// Referee goldens for the settlement rungs.
//
// The fleet poc_digest covers the PoC bytes and the charge of every
// receipt, but not its outcome, retransmit count or failure reason —
// and the coded rung seals all three into the payload it carries. So
// these goldens hash every field of every receipt, plus the coded
// census, for the items of the small_cells benchmark shape at smoke
// size (16 UEs, 3 cycles, seed 1). In that set UE 2's cycle 1 sticks at
// Algorithm 1's fixed point and its cycle 2 follows it, so the
// in-process abandon policy and the stop-and-wait per-cycle degradation
// both show. The dense_cell smoke set (12 UEs, 3 cycles, seed 1) pins
// the in-process and zero-fault coded receipts of the workload whose
// stuck cycles dominate settle time; there too UE 2's cycle 1 is stuck.
//
// Each case runs at 1 and 3 threads; both must hash to the golden.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/batch_settlement.hpp"
#include "crypto/sha256.hpp"
#include "fleet/engine.hpp"
#include "fleet/engine_detail.hpp"
#include "transport/coded_session.hpp"
#include "transport/lossy_settlement.hpp"
#include "smoke_fleets.hpp"
#include "util/serde.hpp"

namespace tlc::transport {
namespace {

/// Drops, duplicates, reorders and corrupts in both directions, so
/// retried and degraded cycles appear on stop-and-wait, and the coded
/// rung carries 9 of the 16 groups and drops the other 7 a rung.
TransportConfig faulty_transport(Coding coding) {
  TransportConfig transport;
  transport.seed = 0x601de7;
  transport.coding = coding;
  transport.coded.generation_size = 16;
  transport.coded.chunk_bytes = 48;
  // Tight enough that about half the coded groups spend their budget.
  transport.coded.max_overhead = 1.25;
  transport.to_edge.drop = 0.15;
  transport.to_edge.duplicate = 0.1;
  transport.to_edge.reorder = 0.1;
  transport.to_operator.drop = 0.15;
  transport.to_operator.corrupt = 0.05;
  transport.retry.base_timeout_ticks = 8;
  transport.retry.max_retransmits = 6;
  return transport;
}

/// CodedSettlerTest.HopelessLinkWalksTheFullDegradationLadder's link:
/// every coded group falls back whole, and stop-and-wait degrades.
TransportConfig hopeless_transport() {
  TransportConfig transport = faulty_transport(Coding::Rlnc);
  transport.to_operator.drop = 0.98;
  transport.to_edge.drop = 0.98;
  transport.coded.max_ticks = 1 << 14;
  transport.retry.max_ticks = 1 << 12;
  return transport;
}

std::string digest(const LossyBatchReport& report) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(report.receipts.size()));
  for (const core::SettlementReceipt& receipt : report.receipts) {
    w.u64(receipt.ue_id);
    w.u32(receipt.cycle);
    w.u8(receipt.completed ? 1 : 0);
    w.u64(receipt.charged);
    w.i64(receipt.rounds);
    w.blob(receipt.poc_wire);
    w.u8(static_cast<std::uint8_t>(receipt.outcome));
    w.i64(receipt.retransmits);
    w.str(receipt.failure_reason);
  }
  const CodedCounters& c = report.coded;
  for (const std::uint64_t v :
       {c.generations, c.generations_decoded, c.packets_sent,
        c.packets_delivered, c.packets_dependent, c.packets_corrupt,
        c.acks_sent, c.cycles_coded, c.fallbacks, c.bytes_on_wire}) {
    w.u64(v);
  }
  return to_hex(crypto::sha256(w.data()));
}

/// One smoke fleet's settlement inputs: its config, items and keys.
struct SmokeSet {
  explicit SmokeSet(const fleet::FleetConfig& fleet_config)
      : config(fleet_config),
        items(fleet::detail::settlement_items(
            fleet::run_fleet(config).records, config)),
        keys(config.rsa_bits, config.key_cache_slots,
             fleet::detail::key_cache_seed(config)) {}

  [[nodiscard]] core::BatchConfig batch() const {
    return fleet::detail::make_batch_config(config);
  }

  fleet::FleetConfig config;
  std::vector<core::SettlementItem> items;
  core::RsaKeyCache keys;
};

class SettlementGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    small_ = new SmokeSet(small_cells_smoke());
    dense_ = new SmokeSet(dense_cell_smoke());
  }
  static void TearDownTestSuite() {
    delete small_;
    delete dense_;
    small_ = nullptr;
    dense_ = nullptr;
  }

  template <typename Settle>
  static void expect_golden(const Settle& settle, const char* golden) {
    for (const unsigned threads : {1u, 3u}) {
      EXPECT_EQ(digest(settle(threads)), golden) << threads << " threads";
    }
  }

  static SmokeSet* small_;
  static SmokeSet* dense_;
};

SmokeSet* SettlementGoldenTest::small_ = nullptr;
SmokeSet* SettlementGoldenTest::dense_ = nullptr;

TEST_F(SettlementGoldenTest, ItemsAreTheSmallCellsSmokeSet) {
  ASSERT_EQ(small_->items.size(), 48u);  // 16 UEs x 3 cycles
}

TEST_F(SettlementGoldenTest, InProcess) {
  expect_golden(
      [](unsigned threads) {
        LossyBatchReport report;
        report.receipts = core::BatchSettler(small_->batch(), small_->keys)
                              .settle(small_->items, threads);
        return report;
      },
      "93678e9aebfba1e6930d8ec77016e7a4ea3e78ed63fb56f3b91b200f52d7abfc");
}

TEST_F(SettlementGoldenTest, StopAndWaitZeroFault) {
  TransportConfig transport;
  transport.seed = 0x601de7;
  expect_golden(
      [&](unsigned threads) {
        return LossySettler(small_->batch(), transport, small_->keys)
            .settle(small_->items, threads);
      },
      "7508fa1bd761cb8228bc95c7a01b1caa5e1727f282b4dd934d706d09f55ef14e");
}

TEST_F(SettlementGoldenTest, StopAndWaitFaulty) {
  expect_golden(
      [](unsigned threads) {
        return LossySettler(small_->batch(), faulty_transport(Coding::Off),
                            small_->keys)
            .settle(small_->items, threads);
      },
      "4ce3c25e8cad5ebf1c41782df83537c4cf3c97554711d30333d16e2dd40c97f3");
}

TEST_F(SettlementGoldenTest, CodedZeroFault) {
  TransportConfig transport;
  transport.seed = 0x601de7;
  transport.coding = Coding::Rlnc;
  expect_golden(
      [&](unsigned threads) {
        return CodedSettler(small_->batch(), transport, small_->keys)
            .settle(small_->items, threads);
      },
      "54a7b03044608580d33166297a26beba8ee89144d7988d8b1e0fd7b774501a9c");
}

TEST_F(SettlementGoldenTest, CodedFaulty) {
  expect_golden(
      [](unsigned threads) {
        return CodedSettler(small_->batch(), faulty_transport(Coding::Rlnc),
                            small_->keys)
            .settle(small_->items, threads);
      },
      "76ba3695dd0a3de165564512061c95df80416378013e88433036f4f12591c79e");
}

TEST_F(SettlementGoldenTest, CodedHopelessLinkFallsBackWholeGroups) {
  expect_golden(
      [](unsigned threads) {
        return CodedSettler(small_->batch(), hopeless_transport(), small_->keys)
            .settle(small_->items, threads);
      },
      "70192ea58feabfdd827884b20a83fa86b9241cfac2633806140f19f0ae7bff77");
}

TEST_F(SettlementGoldenTest, ItemsAreTheDenseCellSmokeSet) {
  ASSERT_EQ(dense_->items.size(), 36u);  // 12 UEs x 3 cycles
}

TEST_F(SettlementGoldenTest, DenseCellInProcess) {
  expect_golden(
      [](unsigned threads) {
        LossyBatchReport report;
        report.receipts = core::BatchSettler(dense_->batch(), dense_->keys)
                              .settle(dense_->items, threads);
        return report;
      },
      "6bfbf5e7a1487d5c1587bfc879faf6a3250958a88fd835bec678bc06d90794ef");
}

TEST_F(SettlementGoldenTest, DenseCellCodedZeroFault) {
  TransportConfig transport;
  transport.seed = 0x601de7;
  transport.coding = Coding::Rlnc;
  expect_golden(
      [&](unsigned threads) {
        return CodedSettler(dense_->batch(), transport, dense_->keys)
            .settle(dense_->items, threads);
      },
      "aff2d79b9c724c6ad3b631c526832fee65d36977b9664dfa29faa44d0f0eaa2a");
}

}  // namespace
}  // namespace tlc::transport

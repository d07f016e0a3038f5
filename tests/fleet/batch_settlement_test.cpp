// Batch TLC settlement equivalence.
//
// 16 UEs x 3 cycles through the batch API must yield exactly the
// receipts (charged volume, rounds, PoC bytes) that 48 sequential
// per-UE TlcSession cycle runs produce — for every worker thread count,
// and under arbitrary cross-session message reordering.
#include "core/batch_settlement.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/rng_stream.hpp"
#include "util/bytes.hpp"

namespace tlc::core {
namespace {

constexpr std::size_t kUes = 16;
constexpr int kCycles = 3;
constexpr std::uint64_t kKeySeed = 0xba7c4;

BatchConfig batch_config() {
  BatchConfig config;
  config.c = 0.5;
  config.cycle_length = 60 * kSecond;
  config.rng_salt = 0x5a17;
  return config;
}

// Deterministic synthetic measurements: a lossy path (received < sent)
// with each party's estimate off by a small per-(UE, cycle) error.
UsageView edge_view(std::uint64_t ue, int cycle) {
  const std::uint64_t sent = 1'000'000 + ue * 40'000 + cycle * 7'777;
  const std::uint64_t lost = 10'000 + ue * 900 + cycle * 333;
  return UsageView{sent, sent - lost + ue * 13};  // received estimate
}

UsageView op_view(std::uint64_t ue, int cycle) {
  const std::uint64_t sent = 1'000'000 + ue * 40'000 + cycle * 7'777;
  const std::uint64_t lost = 10'000 + ue * 900 + cycle * 333;
  return UsageView{sent - cycle * 29, sent - lost};  // sent estimate off
}

std::vector<SettlementItem> make_items() {
  std::vector<SettlementItem> items;
  for (std::uint64_t ue = 0; ue < kUes; ++ue) {
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      items.push_back(SettlementItem{ue, edge_view(ue, cycle),
                                     op_view(ue, cycle)});
    }
  }
  return items;
}

/// The sequential reference: one reused session pair per UE (same key
/// and RNG derivation the batch API documents), each cycle pumped to
/// completion before the next, each UE finished before the next.
struct ReferenceReceipt {
  bool completed = false;
  std::uint64_t charged = 0;
  int rounds = 0;
  Bytes poc_wire;
};

std::unique_ptr<TlcSession> reference_session(const RsaKeyCache& keys,
                                              const BatchConfig& config,
                                              std::uint64_t ue,
                                              PartyRole role) {
  SessionConfig session_config;
  session_config.role = role;
  if (role == PartyRole::EdgeVendor) {
    session_config.own_keys = keys.edge_key(ue);
    session_config.peer_key = keys.operator_key(ue).public_key;
  } else {
    session_config.own_keys = keys.operator_key(ue);
    session_config.peer_key = keys.edge_key(ue).public_key;
  }
  session_config.c = config.c;
  session_config.cycle_length = config.cycle_length;
  session_config.first_cycle_start = config.first_cycle_start;
  session_config.max_rounds = config.max_rounds;
  const std::uint64_t stream =
      2 * ue + (role == PartyRole::EdgeVendor ? 0 : 1);
  return std::make_unique<TlcSession>(std::move(session_config),
                                      std::make_unique<OptimalStrategy>(),
                                      sim::stream_rng(config.rng_salt, stream));
}

void settle_sequentially(
    const RsaKeyCache& keys, const BatchConfig& config,
    std::map<std::pair<std::uint64_t, int>, ReferenceReceipt>& receipts) {
  for (std::uint64_t ue = 0; ue < kUes; ++ue) {
    auto edge = reference_session(keys, config, ue, PartyRole::EdgeVendor);
    auto op = reference_session(keys, config, ue, PartyRole::Operator);
    std::deque<std::pair<bool, Bytes>> wire;  // (to_edge, bytes)
    edge->set_send([&wire](const Bytes& m) { wire.emplace_back(false, m); });
    op->set_send([&wire](const Bytes& m) { wire.emplace_back(true, m); });
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      ASSERT_TRUE(op->begin_cycle(op_view(ue, cycle)).ok())
          << "ue " << ue << " cycle " << cycle;
      ASSERT_TRUE(edge->begin_cycle(edge_view(ue, cycle)).ok());
      ASSERT_TRUE(op->start().ok());
      while (!wire.empty()) {
        auto [to_edge, message] = std::move(wire.front());
        wire.pop_front();
        ASSERT_TRUE((to_edge ? edge : op)->receive(message).ok());
      }
      ASSERT_TRUE(op->cycle_complete());
      ASSERT_TRUE(edge->cycle_complete());
      const auto op_receipt = op->finish_cycle();
      ASSERT_TRUE(op_receipt);
      ASSERT_TRUE(edge->finish_cycle());
      ReferenceReceipt& out = receipts[{ue, cycle}];
      out.completed = true;
      out.charged = op_receipt->charged;
      out.rounds = op_receipt->rounds;
      out.poc_wire = op->receipts().entries().back().poc_wire;
    }
  }
}

class BatchSettlementTest : public ::testing::Test {
 protected:
  // Keygen and the 48-run sequential reference are the expensive parts;
  // compute them once for the whole suite.
  static void SetUpTestSuite() {
    keys_ = new RsaKeyCache(512, 4, kKeySeed);
    reference_ =
        new std::map<std::pair<std::uint64_t, int>, ReferenceReceipt>();
    settle_sequentially(*keys_, batch_config(), *reference_);
  }
  static void TearDownTestSuite() {
    delete keys_;
    delete reference_;
    keys_ = nullptr;
    reference_ = nullptr;
  }

  static void expect_matches_reference(
      const std::vector<SettlementReceipt>& receipts) {
    ASSERT_EQ(receipts.size(), kUes * kCycles);
    for (const SettlementReceipt& receipt : receipts) {
      const auto it = reference_->find(
          {receipt.ue_id, static_cast<int>(receipt.cycle)});
      ASSERT_NE(it, reference_->end());
      const ReferenceReceipt& expected = it->second;
      EXPECT_TRUE(receipt.completed)
          << "ue " << receipt.ue_id << " cycle " << receipt.cycle;
      EXPECT_EQ(receipt.charged, expected.charged);
      EXPECT_EQ(receipt.rounds, expected.rounds);
      EXPECT_EQ(to_hex(receipt.poc_wire), to_hex(expected.poc_wire))
          << "PoC bytes diverged for ue " << receipt.ue_id << " cycle "
          << receipt.cycle;
    }
  }

  static RsaKeyCache* keys_;
  static std::map<std::pair<std::uint64_t, int>, ReferenceReceipt>*
      reference_;
};

RsaKeyCache* BatchSettlementTest::keys_ = nullptr;
std::map<std::pair<std::uint64_t, int>, ReferenceReceipt>*
    BatchSettlementTest::reference_ = nullptr;

TEST_F(BatchSettlementTest, BatchEqualsSequentialRuns) {
  BatchSettler settler(batch_config(), *keys_);
  expect_matches_reference(settler.settle(make_items(), 1));
}

TEST_F(BatchSettlementTest, ReceiptsIdenticalForEveryThreadCount) {
  BatchSettler settler(batch_config(), *keys_);
  expect_matches_reference(settler.settle(make_items(), 2));
  expect_matches_reference(settler.settle(make_items(), 8));
}

TEST_F(BatchSettlementTest, CycleMajorInputOrderSettlesIdentically) {
  // Feeding items cycle-major (all UEs' cycle 0, then cycle 1, ...)
  // must map each item to the same per-UE cycle sequence and receipts.
  std::vector<SettlementItem> items;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (std::uint64_t ue = 0; ue < kUes; ++ue) {
      items.push_back(SettlementItem{ue, edge_view(ue, cycle),
                                     op_view(ue, cycle)});
    }
  }
  BatchSettler settler(batch_config(), *keys_);
  expect_matches_reference(settler.settle(items, 2));
}

TEST(RsaKeyCacheTest, SlotKeysSurviveCacheResize) {
  const RsaKeyCache small(512, 2, kKeySeed);
  const RsaKeyCache large(512, 4, kKeySeed);
  // Slot i is a pure function of (seed, i): ue 0 and 1 hit slots 0 and
  // 1 in both caches and must get identical keys.
  EXPECT_TRUE(small.edge_key(0).public_key == large.edge_key(0).public_key);
  EXPECT_TRUE(small.operator_key(1).public_key ==
              large.operator_key(1).public_key);
  // Modulo slotting: ue 2 wraps to slot 0 in the small cache.
  EXPECT_TRUE(small.edge_key(2).public_key == small.edge_key(0).public_key);
  // The two parties never share a key.
  EXPECT_FALSE(small.edge_key(0).public_key == small.operator_key(0).public_key);
}

}  // namespace
}  // namespace tlc::core

// Fleet runs over the lossy transport: thread-count bit-identity with
// faults injected, and the zero-fault contract: byte-equality with the
// lossless path through each UE's first failed cycle. Also the §8
// outcome census, counted against the receipts on every rung.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "fleet/engine.hpp"
#include "fleet/engine_detail.hpp"
#include "smoke_fleets.hpp"

namespace tlc::fleet {
namespace {

FleetConfig small_fleet(unsigned threads) {
  FleetConfig config;
  config.base.cycle_length = 15 * kSecond;
  config.base.cycles = 2;
  config.base.background_mbps = 2.0;
  config.ue_count = 8;
  config.shards = 2;
  config.threads = threads;
  config.seed = 0x10553f1ee7;
  config.rsa_bits = 512;
  return config;
}

FleetConfig lossy_fleet(unsigned threads) {
  FleetConfig config = small_fleet(threads);
  config.lossy_transport = true;
  config.transport.seed = 0xbad11;
  config.transport.to_edge.drop = 0.15;
  config.transport.to_edge.duplicate = 0.1;
  config.transport.to_edge.reorder = 0.1;
  config.transport.to_operator.drop = 0.15;
  config.transport.to_operator.corrupt = 0.05;
  config.transport.retry.base_timeout_ticks = 8;
  config.transport.retry.max_retransmits = 6;
  return config;
}

void expect_same_results(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.measurement_digest, b.measurement_digest);
  EXPECT_EQ(a.cdf_digest, b.cdf_digest);
  EXPECT_EQ(a.poc_digest, b.poc_digest);
  EXPECT_EQ(a.settlement_totals, b.settlement_totals);
  ASSERT_EQ(a.settlement_by_cycle.size(), b.settlement_by_cycle.size());
  for (std::size_t i = 0; i < a.settlement_by_cycle.size(); ++i) {
    EXPECT_EQ(a.settlement_by_cycle[i], b.settlement_by_cycle[i]) << i;
  }
  ASSERT_EQ(a.receipts.size(), b.receipts.size());
  for (std::size_t i = 0; i < a.receipts.size(); ++i) {
    EXPECT_EQ(a.receipts[i].outcome, b.receipts[i].outcome) << i;
    EXPECT_EQ(a.receipts[i].charged, b.receipts[i].charged) << i;
    EXPECT_EQ(a.receipts[i].retransmits, b.receipts[i].retransmits) << i;
    EXPECT_EQ(a.receipts[i].poc_wire, b.receipts[i].poc_wire) << i;
    EXPECT_EQ(a.receipts[i].failure_reason, b.receipts[i].failure_reason) << i;
  }
}

TEST(LossyFleetTest, FaultyRunIsBitIdenticalAcrossThreadCounts) {
  const FleetResult r1 = run_fleet(lossy_fleet(1));
  const FleetResult r4 = run_fleet(lossy_fleet(4));
  expect_same_results(r1, r4);
  // The injected faults must actually bite somewhere, or the test
  // proves nothing about lossy determinism.
  const auto& totals = r1.settlement_totals;
  EXPECT_EQ(totals.total(), r1.receipts.size());
  EXPECT_GT(totals.retried + totals.degraded + totals.rejected_tamper, 0u);
}

TEST(LossyFleetTest, ZeroRatesMatchTheLosslessPathExactly) {
  // lossy_transport on but every fault rate zero: the transport is a
  // 1-tick FIFO pipe and all byte-level artifacts must equal the
  // in-process settler's output.
  FleetConfig zero = small_fleet(2);
  zero.lossy_transport = true;
  zero.transport.seed = 0x77;  // must not matter with zero rates

  const FleetResult lossless = run_fleet(small_fleet(2));
  const FleetResult piped = run_fleet(zero);
  EXPECT_EQ(piped.measurement_digest, lossless.measurement_digest);
  EXPECT_EQ(piped.cdf_digest, lossless.cdf_digest);
  EXPECT_EQ(piped.poc_digest, lossless.poc_digest);
  ASSERT_EQ(piped.receipts.size(), lossless.receipts.size());
  for (std::size_t i = 0; i < piped.receipts.size(); ++i) {
    EXPECT_EQ(piped.receipts[i].poc_wire, lossless.receipts[i].poc_wire) << i;
    EXPECT_EQ(piped.receipts[i].charged, lossless.receipts[i].charged) << i;
    EXPECT_EQ(piped.receipts[i].retransmits, 0) << i;
  }
  // Every cycle converges first try on a perfect pipe.
  EXPECT_EQ(piped.settlement_totals.converged, piped.receipts.size());
  EXPECT_EQ(piped.settlement_totals.retried, 0u);
  EXPECT_EQ(piped.settlement_totals.degraded, 0u);
  EXPECT_EQ(piped.settlement_totals.rejected_tamper, 0u);
}

TEST(LossyFleetTest, ZeroRatesMatchTheLosslessPathThroughEachFirstFailure) {
  // The zero-fault contract on a fleet where a cycle fails. Every rung
  // matches the in-process receipts up to each UE's first failed
  // cycle, and that cycle fails on every rung for the same reason: the
  // runner stops it at Algorithm 1's fixed point. After it, the
  // in-process and coded rungs leave the UE's remaining cycles
  // un-negotiated (with the first failure's reason), while
  // stop-and-wait negotiates them.
  const FleetConfig lossless_config = transport::small_cells_smoke();
  FleetConfig piped_config = lossless_config;
  piped_config.lossy_transport = true;
  piped_config.transport.seed = 0x77;
  FleetConfig coded_config = piped_config;
  coded_config.transport.coding = transport::Coding::Rlnc;

  const FleetResult lossless = run_fleet(lossless_config);
  const FleetResult piped = run_fleet(piped_config);
  const FleetResult coded = run_fleet(coded_config);

  // Coded delivers every group on a perfect pipe: it is the in-process
  // rung, byte for byte.
  EXPECT_EQ(coded.poc_digest, lossless.poc_digest);
  EXPECT_EQ(coded.coded_totals.fallbacks, 0u);
  ASSERT_EQ(coded.receipts.size(), lossless.receipts.size());
  for (std::size_t i = 0; i < coded.receipts.size(); ++i) {
    EXPECT_EQ(coded.receipts[i].poc_wire, lossless.receipts[i].poc_wire) << i;
    EXPECT_EQ(coded.receipts[i].outcome, lossless.receipts[i].outcome) << i;
    EXPECT_EQ(coded.receipts[i].failure_reason,
              lossless.receipts[i].failure_reason)
        << i;
  }

  ASSERT_EQ(piped.receipts.size(), lossless.receipts.size());
  std::size_t renegotiated = 0;
  std::uint64_t failed_ue = ~std::uint64_t{0};
  for (std::size_t i = 0; i < piped.receipts.size(); ++i) {
    const core::SettlementReceipt& in_process = lossless.receipts[i];
    const core::SettlementReceipt& stop_and_wait = piped.receipts[i];
    ASSERT_EQ(stop_and_wait.ue_id, in_process.ue_id) << i;
    ASSERT_EQ(stop_and_wait.cycle, in_process.cycle) << i;
    EXPECT_EQ(stop_and_wait.retransmits, 0) << i;
    if (in_process.cycle == 0) failed_ue = ~std::uint64_t{0};
    if (failed_ue != in_process.ue_id) {
      // Up to and including the UE's first failed cycle.
      EXPECT_EQ(stop_and_wait.completed, in_process.completed) << i;
      EXPECT_EQ(stop_and_wait.outcome, in_process.outcome) << i;
      EXPECT_EQ(stop_and_wait.charged, in_process.charged) << i;
      EXPECT_EQ(stop_and_wait.rounds, in_process.rounds) << i;
      EXPECT_EQ(stop_and_wait.poc_wire, in_process.poc_wire) << i;
      EXPECT_EQ(stop_and_wait.failure_reason, in_process.failure_reason)
          << i;
      if (!in_process.completed) failed_ue = in_process.ue_id;
      continue;
    }
    // Past it: abandoned in-process, negotiated on stop-and-wait.
    EXPECT_FALSE(in_process.completed) << i;
    EXPECT_EQ(in_process.failure_reason, "negotiation did not complete") << i;
    if (stop_and_wait.completed) ++renegotiated;
  }
  // UE 2's cycle 2 is the one this fleet abandons in-process.
  EXPECT_EQ(renegotiated, 1u);
  EXPECT_NE(piped.poc_digest, lossless.poc_digest);
}

TEST(LossyFleetTest, CountersAggregateAcrossCycles) {
  const FleetResult result = run_fleet(lossy_fleet(2));
  epc::SettlementCounters sum;
  for (const epc::SettlementCounters& cycle : result.settlement_by_cycle) {
    sum.converged += cycle.converged;
    sum.retried += cycle.retried;
    sum.degraded += cycle.degraded;
    sum.rejected_tamper += cycle.rejected_tamper;
  }
  EXPECT_EQ(sum, result.settlement_totals);
  EXPECT_EQ(result.settlement_by_cycle.size(),
            static_cast<std::size_t>(small_fleet(1).base.cycles));
}

/// The census as a direct count of the receipts, cycle by cycle.
void expect_census_counts_the_receipts(const FleetResult& result,
                                       const FleetConfig& config) {
  const auto cycles = static_cast<std::uint32_t>(config.base.cycles);
  ASSERT_FALSE(result.receipts.empty());
  ASSERT_EQ(result.settlement_by_cycle.size(), cycles);
  const auto count = [&result](std::uint32_t cycle,
                               core::SettleOutcome outcome) {
    return static_cast<std::uint64_t>(std::count_if(
        result.receipts.begin(), result.receipts.end(),
        [&](const core::SettlementReceipt& receipt) {
          return receipt.cycle == cycle && receipt.outcome == outcome;
        }));
  };
  epc::SettlementCounters sum;
  for (std::uint32_t cycle = 0; cycle < cycles; ++cycle) {
    const epc::SettlementCounters want{
        count(cycle, core::SettleOutcome::Converged),
        count(cycle, core::SettleOutcome::Retried),
        count(cycle, core::SettleOutcome::Degraded),
        count(cycle, core::SettleOutcome::RejectedTamper)};
    EXPECT_EQ(result.settlement_by_cycle[cycle], want) << "cycle " << cycle;
    sum.converged += want.converged;
    sum.retried += want.retried;
    sum.degraded += want.degraded;
    sum.rejected_tamper += want.rejected_tamper;
  }
  EXPECT_EQ(result.settlement_totals, sum);
  EXPECT_EQ(sum.total(), result.receipts.size());
}

TEST(LossyFleetTest, CensusCountsTheReceiptsOnEveryRung) {
  // In-process, stop-and-wait and coded settlement, the last two over
  // a channel whose faults make cycles retry and degrade.
  // RLNC carries every group through lossy_fleet's faults; on a
  // hopeless link the groups fall down the ladder and degrade.
  FleetConfig coded = lossy_fleet(2);
  coded.transport.coding = transport::Coding::Rlnc;
  coded.transport.to_edge.drop = 0.98;
  coded.transport.to_operator.drop = 0.98;
  coded.transport.coded.max_ticks = 1 << 14;
  coded.transport.retry.max_ticks = 1 << 12;
  const std::pair<const char*, FleetConfig> rungs[] = {
      {"in-process", small_fleet(2)},
      {"stop-and-wait", lossy_fleet(2)},
      {"coded", coded}};
  for (const auto& [rung, config] : rungs) {
    SCOPED_TRACE(rung);
    const FleetResult result = run_fleet(config);
    expect_census_counts_the_receipts(result, config);
    if (config.lossy_transport) {
      // The faults must reach the census, or it counts one outcome only.
      EXPECT_GT(result.settlement_totals.retried +
                    result.settlement_totals.degraded +
                    result.settlement_totals.rejected_tamper,
                0u);
    }
  }

  FleetConfig unsettled = small_fleet(2);
  unsettled.settle = false;
  const FleetResult none = run_fleet(unsettled);
  EXPECT_TRUE(none.receipts.empty());
  EXPECT_TRUE(none.settlement_by_cycle.empty());
  EXPECT_EQ(none.settlement_totals, epc::SettlementCounters{});
}

TEST(LossyFleetTest, AReceiptPastTheLastCycleStaysOutOfTheCensusAndTheBill) {
  // Only a damaged recovered chunk can carry such a receipt; it must
  // move neither a counter nor a bill line.
  const FleetConfig config = small_fleet(1);
  const FleetResult reference = run_fleet(config);
  FleetResult damaged = reference;
  for (const std::uint32_t cycle :
       {static_cast<std::uint32_t>(config.base.cycles), 0xffffffffu}) {
    core::SettlementReceipt stray = reference.receipts.front();
    stray.cycle = cycle;
    stray.completed = true;
    stray.charged = 12345;
    stray.outcome = core::SettleOutcome::Retried;
    damaged.receipts.push_back(stray);
  }
  epc::Ofcs ofcs(detail::fleet_plan(config));
  detail::aggregate_fleet(config, ofcs, damaged, nullptr);

  EXPECT_EQ(damaged.settlement_totals, reference.settlement_totals);
  ASSERT_EQ(damaged.settlement_by_cycle.size(),
            reference.settlement_by_cycle.size());
  for (std::size_t c = 0; c < reference.settlement_by_cycle.size(); ++c) {
    EXPECT_EQ(damaged.settlement_by_cycle[c], reference.settlement_by_cycle[c])
        << c;
  }
  ASSERT_EQ(damaged.bills.size(), reference.bills.size());
  for (std::size_t c = 0; c < reference.bills.size(); ++c) {
    ASSERT_EQ(damaged.bills[c].size(), reference.bills[c].size()) << c;
    for (std::size_t i = 0; i < reference.bills[c].size(); ++i) {
      const epc::BillLine& got = damaged.bills[c][i].second;
      const epc::BillLine& want = reference.bills[c][i].second;
      EXPECT_EQ(got.billed_volume, want.billed_volume) << c << "/" << i;
      EXPECT_EQ(got.amount_micro, want.amount_micro) << c << "/" << i;
    }
  }
  EXPECT_EQ(damaged.totals.billed_bytes, reference.totals.billed_bytes);
  EXPECT_EQ(damaged.totals.amount_micro, reference.totals.amount_micro);
}

}  // namespace
}  // namespace tlc::fleet

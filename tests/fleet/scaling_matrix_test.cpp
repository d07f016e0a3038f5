// Fleet scaling determinism matrix: digests and bills must be
// byte-identical across worker thread counts, UE populations and the
// detached vs supervised paths. The small tier runs the full
// {1,2,4,8}-thread matrix; the 1k tier checks the extremes; the 10k
// tier is the full-scale proof and runs when TLC_SCALE_MATRIX=1 (it
// simulates ~10 billion UE-nanoseconds and is sized for the bench/CI
// soak lane, not the default test wall clock). A hostile feature mix —
// Ghost Traffic adversaries, RLNC over a lossy link, streaming ingest —
// checks supervised == detached with and without an injected kill.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "fleet/engine.hpp"
#include "fleet/supervisor.hpp"
#include "recovery/crash_plan.hpp"
#include "util/bytes.hpp"

namespace tlc::fleet {
namespace {

FleetConfig matrix_fleet(int ue_count, unsigned threads, SimTime cycle_length) {
  FleetConfig config;
  config.base.cycle_length = cycle_length;
  config.base.cycles = 2;
  config.base.background_mbps = 1.0;
  config.ue_count = ue_count;
  // Fixed cell density (8 UEs per shard world): population grows the
  // shard count, as it would grow eNodeB count, keeping per-UE cost
  // flat instead of melting one shared S1 link.
  config.shards = std::max(1, ue_count / 8);
  config.threads = threads;
  config.seed = 0x5ca1e;
  config.rsa_bits = 512;
  config.key_cache_slots = 4;
  return config;
}

void expect_identical(const FleetResult& got, const FleetResult& want,
                      const std::string& label) {
  ASSERT_FALSE(want.measurement_digest.empty()) << label;
  EXPECT_EQ(to_hex(got.measurement_digest), to_hex(want.measurement_digest))
      << label;
  EXPECT_EQ(to_hex(got.cdf_digest), to_hex(want.cdf_digest)) << label;
  EXPECT_EQ(to_hex(got.poc_digest), to_hex(want.poc_digest)) << label;
  EXPECT_EQ(to_hex(got.anomaly_digest), to_hex(want.anomaly_digest)) << label;
  EXPECT_EQ(to_hex(got.ingest_digest), to_hex(want.ingest_digest)) << label;
  EXPECT_TRUE(got.coded_totals == want.coded_totals) << label;
  EXPECT_EQ(got.settlement_totals, want.settlement_totals) << label;
  EXPECT_EQ(got.totals.billed_bytes, want.totals.billed_bytes) << label;
  EXPECT_EQ(got.totals.amount_micro, want.totals.amount_micro) << label;
  ASSERT_EQ(got.bills.size(), want.bills.size()) << label;
  for (std::size_t cycle = 0; cycle < want.bills.size(); ++cycle) {
    ASSERT_EQ(got.bills[cycle].size(), want.bills[cycle].size()) << label;
    for (std::size_t i = 0; i < want.bills[cycle].size(); ++i) {
      const auto& [imsi_got, line_got] = got.bills[cycle][i];
      const auto& [imsi_want, line_want] = want.bills[cycle][i];
      EXPECT_EQ(imsi_got.value, imsi_want.value) << label;
      EXPECT_EQ(line_got.billed_volume, line_want.billed_volume) << label;
      EXPECT_EQ(line_got.amount_micro, line_want.amount_micro) << label;
    }
  }
}

/// The benchmark's hostile_lossy feature mix at test scale: 20%
/// volume-shaper adversaries, RLNC-coded settlement over a 20%-drop
/// channel and streaming ingest at batch 64.
FleetConfig hostile_lossy_fleet(unsigned threads) {
  FleetConfig config = matrix_fleet(32, threads, 5 * kSecond);
  config.adversary.fraction = 0.2;
  config.adversary.kinds = {workloads::AdversaryKind::kVolumeShaper};
  config.lossy_transport = true;
  config.transport.coding = transport::Coding::Rlnc;
  config.transport.to_edge.drop = 0.20;
  config.transport.to_operator.drop = 0.20;
  config.streaming_ingest = true;
  config.ingest_batch_size = 64;
  return config;
}

FleetResult run_supervised(const FleetConfig& fleet, const std::string& tag,
                           recovery::CrashPlan* plan = nullptr) {
  SupervisorConfig config;
  config.fleet = fleet;
  config.plan = plan;
  config.state_dir = ::testing::TempDir() + "/matrix_" + tag;
  auto supervised = run_supervised_fleet(config);
  EXPECT_TRUE(supervised.has_value())
      << (supervised.has_value() ? "" : supervised.error());
  return supervised.has_value() ? supervised->result : FleetResult{};
}

TEST(ScalingMatrixTest, SmallTierFullThreadMatrix) {
  const auto cfg = [](unsigned threads) {
    return matrix_fleet(64, threads, 5 * kSecond);
  };
  const FleetResult reference = run_fleet(cfg(1));
  ASSERT_GT(reference.totals.billed_bytes, 0u);
  for (unsigned threads : {2u, 4u, 8u}) {
    expect_identical(run_fleet(cfg(threads)), reference,
                     "64ue detached t" + std::to_string(threads));
  }
  for (unsigned threads : {1u, 8u}) {
    expect_identical(
        run_supervised(cfg(threads), "64ue_t" + std::to_string(threads)),
        reference, "64ue supervised t" + std::to_string(threads));
  }
}

TEST(ScalingMatrixTest, MidTierExtremeThreadCounts) {
  const auto cfg = [](unsigned threads) {
    return matrix_fleet(1024, threads, 2 * kSecond);
  };
  const FleetResult reference = run_fleet(cfg(1));
  ASSERT_GT(reference.totals.billed_bytes, 0u);
  ASSERT_EQ(reference.records.size(), 1024u);
  expect_identical(run_fleet(cfg(8)), reference, "1024ue detached t8");
  expect_identical(run_supervised(cfg(8), "1024ue_t8"), reference,
                   "1024ue supervised t8");
}

TEST(ScalingMatrixTest, HostileLossySupervisedMatchesDetached) {
  const FleetResult reference = run_fleet(hostile_lossy_fleet(1));
  ASSERT_GT(reference.totals.uncharged_bytes, 0u);
  ASSERT_GT(reference.coded_totals.cycles_coded, 0u);
  ASSERT_FALSE(reference.ingest_batches.empty());
  for (unsigned threads : {1u, 4u}) {
    const std::string t = std::to_string(threads);
    expect_identical(run_fleet(hostile_lossy_fleet(threads)), reference,
                     "hostile detached t" + t);
    expect_identical(run_supervised(hostile_lossy_fleet(threads), "hostile_t" + t),
                     reference, "hostile supervised t" + t);
    recovery::CrashPlan plan;
    plan.arm({recovery::kCrashCheckpointPostRename, /*scope=*/0, /*hit=*/0,
              recovery::CrashKind::Kill});
    expect_identical(
        run_supervised(hostile_lossy_fleet(threads), "hostile_kill_t" + t, &plan),
        reference, "hostile supervised kill t" + t);
    EXPECT_EQ(plan.crashes_fired(), 1) << "t" << t;
  }
}

TEST(ScalingMatrixTest, FullScaleTier) {
  const char* enabled = std::getenv("TLC_SCALE_MATRIX");
  if (enabled == nullptr || std::string(enabled) != "1") {
    GTEST_SKIP() << "10k-UE tier runs with TLC_SCALE_MATRIX=1";
  }
  const auto cfg = [](unsigned threads) {
    return matrix_fleet(10240, threads, 1 * kSecond);
  };
  const FleetResult reference = run_fleet(cfg(1));
  ASSERT_EQ(reference.records.size(), 10240u);
  ASSERT_GT(reference.totals.billed_bytes, 0u);
  for (unsigned threads : {2u, 4u, 8u}) {
    expect_identical(run_fleet(cfg(threads)), reference,
                     "10240ue detached t" + std::to_string(threads));
  }
  expect_identical(run_supervised(cfg(8), "10240ue_t8"), reference,
                   "10240ue supervised t8");
}

}  // namespace
}  // namespace tlc::fleet

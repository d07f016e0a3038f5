// Pins the single-UE testbed's output bytes across builds.
//
// Each case runs a short-cycle scenario and hashes everything `run()`
// exposes: the per-cycle measurements, the Fig 4 timeline and the RTT
// probes. The digests were captured before the per-UE metering code was
// shared with fleet shards, so any change to RNG fork order, event
// scheduling order or sampler wiring shows up here as a digest change.
#include <gtest/gtest.h>

#include <bit>

#include "crypto/sha256.hpp"
#include "testbed/experiment.hpp"
#include "testbed/testbed.hpp"
#include "util/bytes.hpp"
#include "workloads/gaming.hpp"
#include "workloads/trace.hpp"

namespace tlc::testbed {
namespace {

class Digest {
 public:
  void u64(std::uint64_t v) {
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    sha_.update(le, sizeof le);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void cycles(const std::vector<CycleMeasurements>& cycles) {
    u64(cycles.size());
    for (const CycleMeasurements& c : cycles) {
      for (std::uint64_t v : {c.true_sent, c.true_received, c.edge_sent,
                              c.edge_received, c.op_sent, c.op_received,
                              c.gateway_volume}) {
        u64(v);
      }
    }
  }

  [[nodiscard]] std::string hex() { return to_hex(sha_.finish()); }

 private:
  crypto::Sha256 sha_;
};

std::string testbed_digest(Testbed& testbed) {
  Digest d;
  const std::vector<CycleMeasurements>& cycles = testbed.run();
  EXPECT_GT(cycles.front().true_sent, 0u);
  d.cycles(cycles);
  d.u64(testbed.timeline().size());
  for (const TimelinePoint& p : testbed.timeline()) {
    d.i64(p.at);
    d.f64(p.device_rate_mbps);
    d.f64(p.charged_cum_mb);
    d.f64(p.device_cum_mb);
    d.f64(p.gap_mb);
    d.f64(p.rss_dbm);
    d.u64(p.connected ? 1 : 0);
  }
  d.u64(testbed.rtt_ms().size());
  for (double rtt : testbed.rtt_ms()) d.f64(rtt);
  return d.hex();
}

ScenarioConfig short_cycles(AppKind app, std::uint64_t seed) {
  ScenarioConfig config;
  config.app = app;
  config.cycle_length = 6 * kSecond;
  config.cycles = 2;
  config.seed = seed;
  return config;
}

std::shared_ptr<const workloads::Trace> gaming_trace() {
  sim::Simulator sim;
  workloads::TraceRecorder recorder("golden capture");
  workloads::GamingSource source(sim, recorder.tap(nullptr), 1,
                                 sim::Direction::Downlink, sim::Qci::kQci7,
                                 workloads::GamingParams{}, Rng(17));
  source.start(0);
  sim.run_until(4 * kSecond);
  source.stop();
  return std::make_shared<workloads::Trace>(recorder.trace());
}

std::string run_digest(const ScenarioConfig& config) {
  Testbed testbed(config);
  return testbed_digest(testbed);
}

TEST(TestbedGoldenTest, UplinkWebcam) {
  EXPECT_EQ(run_digest(short_cycles(AppKind::WebcamUdp, 31)),
            "8164da3c0ff6b6271c2dfa9bce41acc074dcd1aba8587133664927f806521fa3");
}

TEST(TestbedGoldenTest, DownlinkWebcamWithBackground) {
  ScenarioConfig config = short_cycles(AppKind::WebcamUdpDownlink, 32);
  config.background_mbps = 20.0;
  EXPECT_EQ(run_digest(config),
            "5fdf3cc2b15bb374b8c33a72319bd40ac40ee6caa7f9d0ccd46be20e98626053");
}

TEST(TestbedGoldenTest, UplinkWebcamWithBackground) {
  ScenarioConfig config = short_cycles(AppKind::WebcamUdp, 38);
  config.background_mbps = 20.0;
  EXPECT_EQ(run_digest(config),
            "b2b01b87c999b49b850cee3127d8d324eb040f0fe4ddbfc33780fe1ffec00556");
}

TEST(TestbedGoldenTest, VrWithoutCounterCheckAndTamperedTrafficStats) {
  ScenarioConfig config = short_cycles(AppKind::VrGvsp, 33);
  config.enable_counter_check = false;
  config.edge_trafficstats_tamper = 0.8;
  EXPECT_EQ(run_digest(config),
            "e85553fd74ef8a949b1067db7d6df8c3412921f8c88baa6ba5a4115b70e3e2c8");
}

TEST(TestbedGoldenTest, ReplayedTrace) {
  ScenarioConfig config = short_cycles(AppKind::GamingQci7, 34);
  config.replay_trace = gaming_trace();
  EXPECT_EQ(run_digest(config),
            "4e78033ef61a253f366aad4d3db14b9e122414a847ae7c9d654be08bdf35b0fa");
}

TEST(TestbedGoldenTest, GamingWithTimelineAndRttProbes) {
  Testbed testbed(short_cycles(AppKind::GamingQci7, 35));
  testbed.enable_timeline(kSecond);
  testbed.enable_rtt_probes(6, 500 * kMillisecond);
  testbed.run();
  EXPECT_FALSE(testbed.timeline().empty());
  EXPECT_FALSE(testbed.rtt_ms().empty());
  EXPECT_EQ(testbed_digest(testbed),
            "597e511c91ba5d5819762e634935ec8ab2dabe09cc1f11b583db5d77994d3afa");
}

TEST(TestbedGoldenTest, WeakSignalOutagesAndMobility) {
  ScenarioConfig config = short_cycles(AppKind::WebcamUdpDownlink, 36);
  config.mean_rss_dbm = -104.0;
  config.disconnect_ratio = 0.1;
  config.mobility.speed_mps = 16.7;
  EXPECT_EQ(run_digest(config),
            "9838331fcc5f15b70904afe6cfab251f163f08880a68164ac07dca1e35d63fe8");
}

TEST(TestbedGoldenTest, ExperimentSchemeEvaluation) {
  const ExperimentResult result =
      run_experiment(short_cycles(AppKind::WebcamRtsp, 37));
  Digest d;
  d.cycles(result.cycles);
  for (const auto& [scheme, outcomes] : result.outcomes) {
    d.u64(static_cast<std::uint64_t>(scheme));
    for (const CycleOutcome& o : outcomes) {
      d.u64(o.expected);
      d.u64(o.charged);
      d.f64(o.gap_mb);
      d.f64(o.gap_mb_per_hr);
      d.f64(o.gap_ratio);
      d.i64(o.rounds);
      d.u64(o.completed ? 1 : 0);
    }
  }
  EXPECT_EQ(d.hex(),
            "58a89d4311560fa7e845e8fb9fce1259cc533f5fe69590c41a7f816beb7f264e");
}

}  // namespace
}  // namespace tlc::testbed

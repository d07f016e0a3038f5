#include "testbed/testbed.hpp"

#include <gtest/gtest.h>

namespace tlc::testbed {
namespace {

ScenarioConfig quick_config(AppKind app = AppKind::WebcamUdp) {
  ScenarioConfig config;
  config.app = app;
  config.cycle_length = 20 * kSecond;
  config.cycles = 2;
  config.seed = 11;
  return config;
}

TEST(TestbedTest, GroundTruthInvariantSentGeqReceived) {
  // x̂e >= x̂o must hold for every loss type (§4) — here across apps and
  // radio conditions.
  for (AppKind app : {AppKind::WebcamRtsp, AppKind::WebcamUdp,
                      AppKind::VrGvsp, AppKind::GamingQci7}) {
    auto config = quick_config(app);
    config.background_mbps = 80.0;
    config.mean_rss_dbm = -100.0;
    Testbed testbed(config);
    for (const CycleMeasurements& cycle : testbed.run()) {
      EXPECT_GE(cycle.true_sent, cycle.true_received) << app_name(app);
      EXPECT_GT(cycle.true_sent, 0u) << app_name(app);
    }
  }
}

TEST(TestbedTest, TrafficActuallyFlows) {
  Testbed testbed(quick_config());
  const auto& cycles = testbed.run();
  ASSERT_EQ(cycles.size(), 2u);
  // UDP webcam at 1.73 Mbps for 20 s ≈ 4.3 MB.
  EXPECT_NEAR(static_cast<double>(cycles[0].true_sent), 4.3e6, 1.5e6);
  // In good radio nearly everything arrives.
  EXPECT_GT(cycles[0].true_received, cycles[0].true_sent * 9 / 10);
}

TEST(TestbedTest, MeasurementsTrackGroundTruthClosely) {
  Testbed testbed(quick_config());
  for (const CycleMeasurements& cycle : testbed.run()) {
    const auto close = [](std::uint64_t a, std::uint64_t b) {
      const double rel = std::abs(static_cast<double>(a) -
                                  static_cast<double>(b)) /
                         std::max<double>(1.0, static_cast<double>(b));
      return rel < 0.15;
    };
    EXPECT_TRUE(close(cycle.edge_sent, cycle.true_sent));
    EXPECT_TRUE(close(cycle.edge_received, cycle.true_received));
    EXPECT_TRUE(close(cycle.op_sent, cycle.true_sent));
    EXPECT_TRUE(close(cycle.op_received, cycle.true_received));
  }
}

TEST(TestbedTest, UplinkGatewayIsReceiveSide) {
  // For uplink apps the gateway counts post-loss traffic: the legacy
  // billing basis approximates x̂o, not x̂e.
  auto config = quick_config(AppKind::WebcamUdp);
  config.background_mbps = 120.0;  // force heavy uplink loss
  Testbed testbed(config);
  for (const CycleMeasurements& cycle : testbed.run()) {
    EXPECT_LT(cycle.gateway_volume, cycle.true_sent * 95 / 100);
  }
}

TEST(TestbedTest, DownlinkGatewayIsSendSide) {
  // For downlink apps the gateway charges before the loss: the legacy
  // basis approximates x̂e even when much of it never arrives.
  auto config = quick_config(AppKind::VrGvsp);
  config.background_mbps = 160.0;
  Testbed testbed(config);
  for (const CycleMeasurements& cycle : testbed.run()) {
    EXPECT_GT(cycle.true_sent, cycle.true_received * 11 / 10);  // real loss
    EXPECT_GT(cycle.gateway_volume, cycle.true_received);
  }
}

TEST(TestbedTest, CongestionIncreasesLoss) {
  auto clean = quick_config(AppKind::VrGvsp);
  auto congested = quick_config(AppKind::VrGvsp);
  congested.background_mbps = 160.0;
  Testbed clean_testbed(clean);
  Testbed congested_testbed(congested);
  const auto& clean_cycles = clean_testbed.run();
  const auto& congested_cycles = congested_testbed.run();
  const auto loss = [](const CycleMeasurements& c) {
    return 1.0 - static_cast<double>(c.true_received) /
                     static_cast<double>(c.true_sent);
  };
  EXPECT_GT(loss(congested_cycles[0]), loss(clean_cycles[0]) + 0.05);
}

TEST(TestbedTest, IntermittentConnectivityIncreasesLoss) {
  auto intermittent = quick_config(AppKind::WebcamUdp);
  intermittent.disconnect_ratio = 0.10;
  Testbed testbed(intermittent);
  const auto& cycles = testbed.run();
  const double loss = 1.0 - static_cast<double>(cycles[0].true_received) /
                                static_cast<double>(cycles[0].true_sent);
  EXPECT_GT(loss, 0.03);
  EXPECT_GT(testbed.measured_disconnect_ratio(), 0.02);
}

TEST(TestbedTest, TimelineRecordsFig4Series) {
  auto config = quick_config(AppKind::WebcamUdp);
  config.disconnect_ratio = 0.08;
  Testbed testbed(config);
  testbed.enable_timeline(kSecond);
  testbed.run();
  const auto& timeline = testbed.timeline();
  ASSERT_GT(timeline.size(), 30u);
  bool saw_outage = false;
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    // Cumulative counters are monotone.
    EXPECT_GE(timeline[i].charged_cum_mb, timeline[i - 1].charged_cum_mb);
    EXPECT_GE(timeline[i].device_cum_mb, timeline[i - 1].device_cum_mb);
    saw_outage = saw_outage || !timeline[i].connected;
  }
  EXPECT_TRUE(saw_outage);
}

TEST(TestbedTest, RttProbesAreCollected) {
  auto config = quick_config(AppKind::GamingQci7);
  Testbed testbed(config);
  testbed.enable_rtt_probes(20, kSecond);
  testbed.run();
  const auto& rtts = testbed.rtt_ms();
  ASSERT_GE(rtts.size(), 15u);
  for (double rtt : rtts) {
    EXPECT_GT(rtt, 5.0);
    EXPECT_LT(rtt, 250.0);
  }
}

TEST(TestbedTest, RttScalesWithDeviceProfile) {
  auto fast = quick_config(AppKind::GamingQci7);
  fast.device = epc::device_el20();
  auto slow = quick_config(AppKind::GamingQci7);
  slow.device = epc::device_pixel2xl();
  Testbed fast_tb(fast);
  Testbed slow_tb(slow);
  fast_tb.enable_rtt_probes(20, kSecond);
  slow_tb.enable_rtt_probes(20, kSecond);
  fast_tb.run();
  slow_tb.run();
  double fast_mean = 0.0;
  for (double r : fast_tb.rtt_ms()) fast_mean += r;
  fast_mean /= static_cast<double>(fast_tb.rtt_ms().size());
  double slow_mean = 0.0;
  for (double r : slow_tb.rtt_ms()) slow_mean += r;
  slow_mean /= static_cast<double>(slow_tb.rtt_ms().size());
  EXPECT_GT(slow_mean, fast_mean);
}

TEST(TestbedTest, DeterministicForSeed) {
  Testbed a(quick_config());
  Testbed b(quick_config());
  const auto& cycles_a = a.run();
  const auto& cycles_b = b.run();
  ASSERT_EQ(cycles_a.size(), cycles_b.size());
  for (std::size_t i = 0; i < cycles_a.size(); ++i) {
    EXPECT_EQ(cycles_a[i].true_sent, cycles_b[i].true_sent);
    EXPECT_EQ(cycles_a[i].op_received, cycles_b[i].op_received);
  }
}

TEST(TestbedTest, RunIsIdempotent) {
  Testbed testbed(quick_config());
  const auto& first = testbed.run();
  const auto first_sent = first[0].true_sent;
  const auto& second = testbed.run();
  EXPECT_EQ(second[0].true_sent, first_sent);
}

TEST(TestbedTest, CounterCheckDisabledFallsBackToTrafficStats) {
  auto config = quick_config(AppKind::VrGvsp);
  config.enable_counter_check = false;
  config.edge_trafficstats_tamper = 0.7;  // selfish edge under-reports
  Testbed testbed(config);
  for (const CycleMeasurements& cycle : testbed.run()) {
    // The operator's received-side record is now tamperable: ~70% of
    // the true received volume (strawman 1 of §5.4).
    EXPECT_LT(cycle.op_received, cycle.true_received * 80 / 100);
  }
}

TEST(TestbedTest, CounterCheckResistsTampering) {
  auto config = quick_config(AppKind::VrGvsp);
  config.enable_counter_check = true;
  config.edge_trafficstats_tamper = 0.7;
  Testbed testbed(config);
  for (const CycleMeasurements& cycle : testbed.run()) {
    // Hardware modem counters ignore the user-space tamper.
    EXPECT_GT(cycle.op_received, cycle.true_received * 85 / 100);
  }
}

TEST(TestbedTest, EpcComponentsAreLive) {
  Testbed testbed(quick_config());
  testbed.run();
  EXPECT_TRUE(testbed.mme().attached(testbed.app_imsi()));
  EXPECT_TRUE(testbed.spgw().has_session(testbed.app_imsi()));
  EXPECT_GT(testbed.enodeb().stats().counter_checks, 0u);
  EXPECT_EQ(testbed.hss().subscriber_count(), 2u);
}

TEST(TestbedTest, OnlyQci7GamingGetsADedicatedBearer) {
  for (AppKind app : {AppKind::WebcamRtsp, AppKind::WebcamUdp,
                      AppKind::WebcamUdpDownlink, AppKind::VrGvsp,
                      AppKind::GamingQci9}) {
    EXPECT_EQ(app_qci(app), sim::Qci::kQci9);
  }
  EXPECT_EQ(app_qci(AppKind::GamingQci7), sim::Qci::kQci7);
}

}  // namespace
}  // namespace tlc::testbed

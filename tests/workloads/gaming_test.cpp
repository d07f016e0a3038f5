#include "workloads/gaming.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tlc::workloads {
namespace {

TEST(GamingTest, BitrateMatchesPaper) {
  // Table 2: the King-of-Glory stream averages ~0.02 Mbps.
  sim::Simulator sim;
  std::uint64_t bytes = 0;
  GamingSource source(
      sim, [&](const sim::Packet& p) { bytes += p.size_bytes; }, 1,
      sim::Direction::Downlink, sim::Qci::kQci7, GamingParams{}, Rng(1));
  source.start(0);
  sim.run_until(5 * kMinute);
  source.stop();
  const double mbps = static_cast<double>(bytes) * 8.0 / 1e6 / 300.0;
  EXPECT_NEAR(mbps, 0.02, 0.005);
}

TEST(GamingTest, TickRate) {
  sim::Simulator sim;
  std::vector<sim::Packet> packets;
  GamingSource source(
      sim, [&](const sim::Packet& p) { packets.push_back(p); }, 1,
      sim::Direction::Downlink, sim::Qci::kQci7, GamingParams{}, Rng(2));
  source.start(0);
  sim.run_until(10 * kSecond);
  source.stop();
  EXPECT_NEAR(static_cast<double>(packets.size()), 300, 3);  // 30 Hz
}

TEST(GamingTest, PacketsAreSmall) {
  sim::Simulator sim;
  std::vector<sim::Packet> packets;
  GamingParams params;
  params.sync_probability = 0.0;
  GamingSource source(
      sim, [&](const sim::Packet& p) { packets.push_back(p); }, 1,
      sim::Direction::Downlink, sim::Qci::kQci7, params, Rng(3));
  source.start(0);
  sim.run_until(30 * kSecond);
  source.stop();
  for (const auto& p : packets) {
    EXPECT_LT(p.size_bytes, 200u);  // player-control updates are tiny
    EXPECT_GT(p.size_bytes, 10u);
  }
}

TEST(GamingTest, SyncBurstsAppear) {
  sim::Simulator sim;
  int syncs = 0;
  GamingParams params;
  params.sync_probability = 0.2;
  GamingSource source(
      sim,
      [&](const sim::Packet& p) {
        if (p.size_bytes == kGamingSyncBytes) ++syncs;
      },
      1, sim::Direction::Downlink, sim::Qci::kQci7, params, Rng(4));
  source.start(0);
  sim.run_until(30 * kSecond);
  source.stop();
  EXPECT_NEAR(syncs, 0.2 * 30 * 30, 40);
}

TEST(GamingTest, QciCarriedThrough) {
  // §2.2: the acceleration uses a dedicated QCI 7 session.
  sim::Simulator sim;
  bool checked = false;
  GamingSource source(
      sim,
      [&](const sim::Packet& p) {
        EXPECT_EQ(p.qci, sim::Qci::kQci7);
        checked = true;
      },
      1, sim::Direction::Downlink, sim::Qci::kQci7, GamingParams{}, Rng(5));
  source.start(0);
  sim.run_until(kSecond);
  source.stop();
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace tlc::workloads

#include "workloads/vr_gvsp.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tlc::workloads {
namespace {

TEST(VrGvspTest, BitrateMatchesPaper) {
  // §3.2: 1080p60 VR averages 9.0 Mbps.
  sim::Simulator sim;
  std::uint64_t bytes = 0;
  VrGvspSource source(
      sim, [&](const sim::Packet& p) { bytes += p.size_bytes; }, 1,
      sim::Direction::Downlink, sim::Qci::kQci9, VrGvspParams{}, Rng(1));
  source.start(0);
  sim.run_until(kMinute);
  source.stop();
  const double mbps = static_cast<double>(bytes) * 8.0 / 1e6 / 60.0;
  EXPECT_NEAR(mbps, 9.0, 0.9);
}

TEST(VrGvspTest, SixtyFramesPerSecond) {
  sim::Simulator sim;
  std::vector<sim::Packet> packets;
  VrGvspSource source(
      sim, [&](const sim::Packet& p) { packets.push_back(p); }, 1,
      sim::Direction::Downlink, sim::Qci::kQci9, VrGvspParams{}, Rng(2));
  source.start(0);
  sim.run_until(5 * kSecond);
  source.stop();
  // Count leader packets (size == kGvspLeaderBytes at frame start).
  int leaders = 0;
  for (const auto& p : packets) {
    if (p.size_bytes == kGvspLeaderBytes) ++leaders;
  }
  // Leaders + trailers share the size; each frame contributes two.
  EXPECT_NEAR(leaders, 2 * 60 * 5, 12);
}

TEST(VrGvspTest, GvspFramingLeaderPayloadTrailer) {
  sim::Simulator sim;
  std::vector<sim::Packet> packets;
  VrGvspParams params;
  params.size_jitter = 0.0;
  params.keyframe_probability = 0.0;
  VrGvspSource source(
      sim, [&](const sim::Packet& p) { packets.push_back(p); }, 1,
      sim::Direction::Downlink, sim::Qci::kQci9, params, Rng(3));
  source.start(0);
  sim.run_until(100 * kMillisecond);  // a handful of frames
  source.stop();
  ASSERT_GT(packets.size(), 10u);
  // First packet of the stream is the leader.
  EXPECT_EQ(packets.front().size_bytes, kGvspLeaderBytes);
  // Payload packets are MTU-sized except the last of each frame.
  int full_mtu = 0;
  for (const auto& p : packets) {
    if (p.size_bytes == kMtu) ++full_mtu;
  }
  EXPECT_GT(full_mtu, 5);
}

TEST(VrGvspTest, PayloadIsPacedNotInstant) {
  sim::Simulator sim;
  std::vector<SimTime> stamps;
  VrGvspParams params;
  VrGvspSource source(
      sim, [&](const sim::Packet& p) { stamps.push_back(p.created_at); }, 1,
      sim::Direction::Downlink, sim::Qci::kQci9, params, Rng(4));
  source.start(0);
  sim.run_until(50 * kMillisecond);
  source.stop();
  ASSERT_GT(stamps.size(), 5u);
  // Within the first frame, consecutive payload packets are spaced by
  // the pacing interval, not emitted at one instant.
  bool any_spacing = false;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    if (stamps[i] - stamps[i - 1] == kGvspPacketSpacing) {
      any_spacing = true;
    }
  }
  EXPECT_TRUE(any_spacing);
}

TEST(VrGvspTest, KeyframesInflateOccasionally) {
  sim::Simulator sim;
  std::vector<sim::Packet> packets;
  VrGvspParams params;
  params.size_jitter = 0.0;
  params.keyframe_probability = 0.3;
  params.keyframe_scale = 3.0;
  VrGvspSource source(
      sim, [&](const sim::Packet& p) { packets.push_back(p); }, 1,
      sim::Direction::Downlink, sim::Qci::kQci9, params, Rng(5));
  source.start(0);
  sim.run_until(2 * kSecond);
  source.stop();
  // Group into frames by leader packets and compare sizes.
  std::vector<std::uint64_t> frames;
  for (const auto& p : packets) {
    if (p.size_bytes == kGvspLeaderBytes && !frames.empty() &&
        frames.back() > kGvspLeaderBytes * 2) {
      frames.push_back(0);
    } else {
      if (frames.empty()) frames.push_back(0);
      frames.back() += p.size_bytes;
    }
  }
  std::uint64_t biggest = 0;
  std::uint64_t smallest = ~0ull;
  for (std::uint64_t f : frames) {
    biggest = std::max(biggest, f);
    smallest = std::min(smallest, f);
  }
  EXPECT_GT(biggest, 2 * smallest);
}

}  // namespace
}  // namespace tlc::workloads

// FaultyChannel: deterministic fault schedules, rate statistics, and
// the all-zero-profile FIFO-pipe guarantee.
#include "transport/faulty_channel.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tlc::transport {
namespace {

Bytes msg(std::uint8_t tag, std::size_t size = 24) {
  Bytes wire(size, tag);
  return wire;
}

TEST(FaultyChannelTest, ZeroProfileIsAOneTickFifoPipe) {
  FaultyChannel channel({}, {}, 0x5eed);
  for (std::uint8_t i = 0; i < 10; ++i) {
    channel.send(FaultyChannel::Dir::ToEdge, msg(i), /*now=*/0);
  }
  EXPECT_TRUE(channel.deliver_due(FaultyChannel::Dir::ToEdge, 0).empty());
  const auto delivered = channel.deliver_due(FaultyChannel::Dir::ToEdge, 1);
  ASSERT_EQ(delivered.size(), 10u);
  for (std::uint8_t i = 0; i < 10; ++i) {
    EXPECT_EQ(delivered[i], msg(i)) << "position " << int(i);
  }
  EXPECT_EQ(channel.in_flight(), 0u);
  const auto& stats = channel.stats(FaultyChannel::Dir::ToEdge);
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.delivered, 10u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.corrupted, 0u);
}

TEST(FaultyChannelTest, SameSeedSameSchedule) {
  FaultProfile lossy;
  lossy.drop = 0.3;
  lossy.duplicate = 0.2;
  lossy.reorder = 0.2;
  lossy.corrupt = 0.2;
  lossy.delay_jitter_ticks = 5;

  auto run = [&] {
    FaultyChannel channel(lossy, lossy, 0xabcdef);
    std::vector<Bytes> out;
    for (std::uint8_t i = 0; i < 64; ++i) {
      channel.send(FaultyChannel::Dir::ToOperator, msg(i), i);
    }
    for (std::uint64_t t = 0; t <= 128; ++t) {
      for (Bytes& wire :
           channel.deliver_due(FaultyChannel::Dir::ToOperator, t)) {
        out.push_back(std::move(wire));
      }
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultyChannelTest, ScheduleOfAMessageIsIndependentOfOtherLane) {
  // Message n's fate depends on (seed, dir, n) only: traffic on the
  // opposite lane must not perturb it.
  FaultProfile lossy;
  lossy.drop = 0.25;
  lossy.corrupt = 0.25;
  lossy.delay_jitter_ticks = 7;

  auto run = [&](bool with_cross_traffic) {
    FaultyChannel channel(lossy, lossy, 0x77);
    std::vector<Bytes> out;
    for (std::uint8_t i = 0; i < 32; ++i) {
      channel.send(FaultyChannel::Dir::ToEdge, msg(i), i);
      if (with_cross_traffic) {
        channel.send(FaultyChannel::Dir::ToOperator, msg(i, 40), i);
      }
    }
    for (std::uint64_t t = 0; t <= 64; ++t) {
      for (Bytes& wire : channel.deliver_due(FaultyChannel::Dir::ToEdge, t)) {
        out.push_back(std::move(wire));
      }
    }
    return out;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FaultyChannelTest, RatesMatchStatistically) {
  FaultProfile lossy;
  lossy.drop = 0.2;
  lossy.duplicate = 0.1;
  lossy.corrupt = 0.15;
  FaultyChannel channel(lossy, {}, 0x1234);
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    channel.send(FaultyChannel::Dir::ToEdge, msg(0), 0);
  }
  const auto& stats = channel.stats(FaultyChannel::Dir::ToEdge);
  EXPECT_NEAR(double(stats.dropped) / n, 0.2, 0.03);
  // Duplication is only drawn for surviving messages.
  EXPECT_NEAR(double(stats.duplicated) / double(n - stats.dropped), 0.1, 0.03);
  // Corruption applies per surviving copy.
  const double copies = double(n - stats.dropped + stats.duplicated);
  EXPECT_NEAR(double(stats.corrupted) / copies, 0.15, 0.03);
}

TEST(FaultyChannelTest, CorruptionChangesBytesNotCount) {
  FaultProfile corrupting;
  corrupting.corrupt = 1.0;
  FaultyChannel channel(corrupting, {}, 0x9);
  const Bytes original = msg(0x42, 64);
  channel.send(FaultyChannel::Dir::ToEdge, original, 0);
  const auto delivered = channel.deliver_due(FaultyChannel::Dir::ToEdge, 10);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].size(), original.size());
  EXPECT_NE(delivered[0], original);
}

TEST(FaultyChannelTest, TruncationShortensTheWire) {
  FaultProfile truncating;
  truncating.truncate = 1.0;
  FaultyChannel channel(truncating, {}, 0x10);
  const Bytes original = msg(0x13, 100);
  channel.send(FaultyChannel::Dir::ToEdge, original, 0);
  const auto delivered = channel.deliver_due(FaultyChannel::Dir::ToEdge, 10);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_LT(delivered[0].size(), original.size());
}

TEST(FaultyChannelTest, DuplicateDeliversTwoCopies) {
  FaultProfile duplicating;
  duplicating.duplicate = 1.0;
  FaultyChannel channel(duplicating, {}, 0x11);
  channel.send(FaultyChannel::Dir::ToEdge, msg(0x7), 0);
  const auto delivered = channel.deliver_due(FaultyChannel::Dir::ToEdge, 10);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], msg(0x7));
  EXPECT_EQ(delivered[1], msg(0x7));
}

TEST(FaultyChannelTest, ReorderHoldsACopyBack) {
  FaultProfile reordering;
  reordering.reorder = 1.0;
  FaultyChannel channel(reordering, {}, 0x12);
  channel.send(FaultyChannel::Dir::ToEdge, msg(1), 0);
  // Without the hold the message would be due at tick 1.
  EXPECT_TRUE(channel.deliver_due(FaultyChannel::Dir::ToEdge, 1).empty());
  EXPECT_EQ(channel.earliest_due(), 13u);
  EXPECT_EQ(channel.deliver_due(FaultyChannel::Dir::ToEdge, 13).size(), 1u);
}

TEST(FaultyChannelTest, DrainDiscardsInFlight) {
  FaultyChannel channel({}, {}, 0x13);
  channel.send(FaultyChannel::Dir::ToEdge, msg(1), 0);
  channel.send(FaultyChannel::Dir::ToOperator, msg(2), 0);
  EXPECT_EQ(channel.in_flight(), 2u);
  channel.begin_cycle(1);
  EXPECT_EQ(channel.in_flight(), 0u);
  EXPECT_EQ(channel.earliest_due(), FaultyChannel::kIdle);
  EXPECT_TRUE(channel.deliver_due(FaultyChannel::Dir::ToEdge, 100).empty());
}

// Everything one lane delivers for `count` sends in the current cycle,
// in delivery order, with the lane's stats deltas.
struct CycleSchedule {
  std::vector<Bytes> delivered;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;

  bool operator==(const CycleSchedule&) const = default;
};

CycleSchedule run_cycle(FaultyChannel& channel, std::uint8_t count) {
  const auto before = channel.stats(FaultyChannel::Dir::ToOperator);
  CycleSchedule schedule;
  for (std::uint8_t i = 0; i < count; ++i) {
    channel.send(FaultyChannel::Dir::ToOperator, msg(i), /*now=*/i);
  }
  schedule.delivered =
      channel.deliver_due(FaultyChannel::Dir::ToOperator, 1'000);
  const auto& after = channel.stats(FaultyChannel::Dir::ToOperator);
  schedule.dropped = after.dropped - before.dropped;
  schedule.duplicated = after.duplicated - before.duplicated;
  schedule.corrupted = after.corrupted - before.corrupted;
  return schedule;
}

FaultProfile cross_cycle_profile() {
  FaultProfile lossy;
  lossy.drop = 0.3;
  lossy.duplicate = 0.2;
  lossy.reorder = 0.2;
  lossy.corrupt = 0.3;
  lossy.delay_jitter_ticks = 3;
  return lossy;
}

TEST(FaultyChannelTest, CycleScheduleIgnoresHowThePreviousCycleEnded) {
  // Cycle 0 sends 1 message on one channel and 5 on the other; cycle 1
  // must see the same faults on both.
  FaultyChannel short_cycle({}, cross_cycle_profile(), 0x14);
  FaultyChannel long_cycle({}, cross_cycle_profile(), 0x14);
  (void)run_cycle(short_cycle, 1);
  (void)run_cycle(long_cycle, 5);
  short_cycle.begin_cycle(1);
  long_cycle.begin_cycle(1);
  const CycleSchedule a = run_cycle(short_cycle, 16);
  const CycleSchedule b = run_cycle(long_cycle, 16);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.dropped + a.duplicated + a.corrupted, 0u);
}

TEST(FaultyChannelTest, CycleZeroIsTheFreshChannelSchedule) {
  FaultyChannel fresh({}, cross_cycle_profile(), 0x15);
  FaultyChannel restarted({}, cross_cycle_profile(), 0x15);
  (void)run_cycle(restarted, 7);
  restarted.begin_cycle(0);
  EXPECT_EQ(run_cycle(fresh, 16), run_cycle(restarted, 16));
}

TEST(FaultyChannelTest, CyclesDrawDistinctSchedules) {
  FaultyChannel first({}, cross_cycle_profile(), 0x16);
  FaultyChannel second({}, cross_cycle_profile(), 0x16);
  second.begin_cycle(1);
  EXPECT_NE(run_cycle(first, 16), run_cycle(second, 16));
}

}  // namespace
}  // namespace tlc::transport

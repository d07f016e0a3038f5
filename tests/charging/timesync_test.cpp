#include "charging/timesync.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace tlc::charging {
namespace {

TEST(TimeSyncTest, CorrectsLargeOffsets) {
  TimeSyncParams params;
  params.true_offset_us = 12'000'000;  // badly skewed clock (12 s)
  Rng rng(1);
  const TimeSyncResult result = ntp_sync(params, rng);
  // Offset estimated within the jitter-induced floor (milliseconds).
  EXPECT_NEAR(static_cast<double>(result.estimated_offset_us), 12e6, 2e4);
  EXPECT_LT(result.residual_error_us, 20'000u);
}

TEST(TimeSyncTest, ResidualScalesWithJitter) {
  Rng rng(2);
  RunningStats low_jitter;
  RunningStats high_jitter;
  for (int i = 0; i < 200; ++i) {
    TimeSyncParams low;
    low.delay_jitter_us = 1'000;
    TimeSyncParams high;
    high.delay_jitter_us = 30'000;
    low_jitter.add(static_cast<double>(ntp_sync(low, rng).residual_error_us));
    high_jitter.add(static_cast<double>(ntp_sync(high, rng).residual_error_us));
  }
  EXPECT_LT(low_jitter.mean() * 3.0, high_jitter.mean());
}

TEST(TimeSyncTest, MoreRoundsImproveDiscipline) {
  Rng rng(3);
  RunningStats one_round;
  RunningStats many_rounds;
  for (int i = 0; i < 300; ++i) {
    TimeSyncParams single;
    single.rounds = 1;
    TimeSyncParams many;
    many.rounds = 16;
    one_round.add(static_cast<double>(ntp_sync(single, rng).residual_error_us));
    many_rounds.add(
        static_cast<double>(ntp_sync(many, rng).residual_error_us));
  }
  EXPECT_LT(many_rounds.mean(), one_round.mean());
}

TEST(TimeSyncTest, BestRttIsPlausible) {
  TimeSyncParams params;
  Rng rng(4);
  const TimeSyncResult result = ntp_sync(params, rng);
  EXPECT_GE(result.best_rtt_us, 2 * kOneWayDelayUs - 1);
  EXPECT_LT(result.best_rtt_us,
            2 * (kOneWayDelayUs + 4 * params.delay_jitter_us));
}

TEST(TimeSyncTest, DisciplinedClockBeatsRawSkew) {
  // §7.2: record errors "can be reduced with time synchronizations".
  TimeSyncParams params;
  params.true_offset_us = 10'000'000;
  Rng rng(5);
  const ClockModel disciplined = disciplined_clock(params, rng);
  // Residual bias is milliseconds, vastly better than the raw 10 s.
  EXPECT_LT(std::abs(disciplined.bias_s), 0.05);
  EXPECT_LT(disciplined.offset_stddev_s, 0.05);
}

}  // namespace
}  // namespace tlc::charging

#include "charging/timesync.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace tlc::charging {
namespace {

/// Absolute gaussian delay jitter quantized to whole microseconds. The
/// only floating point in this TU lives here, at the RNG draw edge.
std::uint64_t draw_jitter_us(const TimeSyncParams& params, Rng& rng) {
  // tlclint: allow(float-money) gaussian RNG edge, rounded to whole us
  const double jitter = rng.gaussian(0.0, static_cast<double>(params.delay_jitter_us));
  return static_cast<std::uint64_t>(std::llround(std::abs(jitter)));
}

/// One delay leg: mean one-way delay plus jitter, floored at 100us.
std::uint64_t draw_leg_us(const TimeSyncParams& params, Rng& rng) {
  return std::max<std::uint64_t>(100,
                                 kOneWayDelayUs + draw_jitter_us(params, rng));
}

}  // namespace

TimeSyncResult ntp_sync(const TimeSyncParams& params, Rng& rng) {
  TimeSyncResult result;
  std::uint64_t best_rtt_us = std::numeric_limits<std::uint64_t>::max();
  std::int64_t best_offset_us = 0;

  for (int round = 0; round < std::max(1, params.rounds); ++round) {
    // Request leg and response leg with independent jitter.
    const std::uint64_t fwd_us = draw_leg_us(params, rng);
    const std::uint64_t back_us = draw_leg_us(params, rng);
    // Client timestamps (client clock = server clock + true_offset):
    //   t0 client send, t1 server receive, t2 server send, t3 client recv.
    // offset_est = ((t1 - t0) + (t2 - t3)) / 2
    //            = -true_offset + (fwd - back) / 2     (server processing ~0)
    const std::int64_t offset_est_us =
        -params.true_offset_us + (static_cast<std::int64_t>(fwd_us) -
                                  static_cast<std::int64_t>(back_us)) /
                                     2;
    const std::uint64_t rtt_us = fwd_us + back_us;
    if (rtt_us < best_rtt_us) {
      best_rtt_us = rtt_us;
      best_offset_us = offset_est_us;
    }
  }

  // The client corrects by subtracting its estimate of the server-to-
  // client offset (-best_offset estimates true_offset).
  result.estimated_offset_us = -best_offset_us;
  result.residual_error_us = static_cast<std::uint64_t>(
      std::llabs(params.true_offset_us - result.estimated_offset_us));
  result.best_rtt_us = best_rtt_us;
  return result;
}

ClockModel disciplined_clock(const TimeSyncParams& params, Rng& rng) {
  const TimeSyncResult result = ntp_sync(params, rng);
  ClockModel model;
  // ClockModel speaks seconds (it feeds rng.gaussian directly); convert
  // the integer residual at this boundary only. The residual shows up
  // as a (sign-random) bias at each boundary, plus a small wander
  // between re-syncs.
  // tlclint: allow(float-money) seconds conversion at the ClockModel edge
  const double residual_s = static_cast<double>(result.residual_error_us) * 1e-6;
  model.bias_s = (rng.chance(0.5) ? 1.0 : -1.0) * residual_s;
  model.offset_stddev_s = residual_s / 2.0 + 1e-4;
  return model;
}

}  // namespace tlc::charging

// NTP-style time synchronization (§5.3.1 setup / §7.2).
//
// The charging cycle T must be consistent between the edge vendor and
// the operator; the paper synchronizes via NTP and attributes the
// residual Fig 18 record errors to the remaining misalignment. This
// module models the classic four-timestamp exchange: each round
// estimates offset = ((t1-t0)+(t2-t3))/2, whose error is the path
// asymmetry; taking the round with the smallest RTT (NTP's clock
// filter) gives the disciplined offset. The result plugs straight into
// a ClockModel. All quantities are integer microseconds — floating
// point exists only at the RNG draw edge inside the implementation.
#pragma once

#include <cstdint>

#include "charging/sampler.hpp"
#include "util/rng.hpp"

namespace tlc::charging {

/// Mean one-way network delay to the time server.
inline constexpr std::uint64_t kOneWayDelayUs = 15'000;

struct TimeSyncParams {
  /// The party's true clock offset before synchronization (signed us).
  std::int64_t true_offset_us = 1'500'000;
  /// Per-leg delay jitter (asymmetry source — the NTP error floor).
  std::uint64_t delay_jitter_us = 4'000;
  /// Exchange rounds; NTP keeps the best-RTT sample.
  int rounds = 8;
};

struct TimeSyncResult {
  /// Offset the client computed (and will correct by), signed us.
  std::int64_t estimated_offset_us = 0;
  /// |true - estimated| after discipline — the residual misalignment.
  std::uint64_t residual_error_us = 0;
  /// RTT of the sample that won the clock filter.
  std::uint64_t best_rtt_us = 0;
};

/// Runs the synchronization exchange.
[[nodiscard]] TimeSyncResult ntp_sync(const TimeSyncParams& params, Rng& rng);

/// A ClockModel for a party that disciplines its clock with `params`
/// before every cycle boundary: the boundary offset becomes the NTP
/// residual instead of the raw drift.
[[nodiscard]] ClockModel disciplined_clock(const TimeSyncParams& params,
                                           Rng& rng);

}  // namespace tlc::charging

// The single sanctioned wall-clock read in the library.
//
// Everything on a settlement or simulation path runs on virtual time
// (util/simtime.hpp); tlclint's `wallclock` rule rejects std::chrono
// clocks, time(), rand() etc. anywhere else in src/. The one legitimate
// consumer of real time is *telemetry* — measuring how long real crypto
// operations take (ProtocolEndpoint::crypto_seconds(), Fig 16/17) —
// and that read is funneled through here so it stays auditable.
#pragma once

#include <chrono>  // tlclint: allow(wallclock) sole sanctioned wall-clock site
#include <cstdint>

namespace tlc::util {

/// Monotonic nanosecond counter for latency telemetry. Never use this
/// for anything that feeds settlement bytes, RNG seeding or message
/// contents — those must come from SimTime / seed streams.
[[nodiscard]] inline std::uint64_t monotonic_nanos() {
  // tlclint: allow(wallclock) telemetry-only monotonic read
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

}  // namespace tlc::util

// Radio channel model for the small cell.
//
// Reproduces the two wireless effects the paper measures (Figs 4, 14):
//  * slow RSS fading — an Ornstein-Uhlenbeck random walk around a mean
//    signal strength, mapped to packet loss via bler_from_rss(); and
//  * intermittent connectivity — alternating connected/outage episodes
//    with exponential durations, parameterized by the target
//    disconnectivity ratio η and the mean outage length (1.93 s in the
//    paper's Fig 4 experiment).
//
// State advances lazily on a fixed tick grid so queries at arbitrary
// times are deterministic for a given seed.
#pragma once

#include <optional>

#include "sim/mobility.hpp"
#include "util/rng.hpp"
#include "util/simtime.hpp"

namespace tlc::sim {

struct RadioParams {
  double mean_rss_dbm = -90.0;
  double rss_stddev_db = 4.0;
  /// Target fraction of time spent disconnected (η). 0 disables outages.
  double disconnect_ratio = 0.0;
  /// Mean outage episode duration (paper: 1.93 s average).
  double mean_outage_s = 1.93;
  /// Handover interruptions for a moving device (§3.1 cause 2);
  /// speed 0 (the default) disables them.
  MobilityParams mobility{};
  /// State update granularity.
  SimTime tick = 100 * kMillisecond;
};

class RadioChannel {
 public:
  RadioChannel(RadioParams params, Rng rng);

  /// Advances internal state to time `t` (monotonic; earlier times are
  /// answered from current state).
  void advance_to(SimTime t);

  /// Received signal strength at time `t` (dBm).
  [[nodiscard]] double rss(SimTime t);

  /// Whether the device currently has uplink+downlink service.
  [[nodiscard]] bool connected(SimTime t);

  /// Per-packet drop probability at time `t`: BLER from the current RSS
  /// while connected, 1.0 during an outage.
  [[nodiscard]] double packet_loss_probability(SimTime t);

  /// Start of the ongoing outage, or a negative value when connected.
  /// The MME uses this to emulate radio-link-failure detach (§3.2: the
  /// core detaches a persistently unreachable device after ~5 s).
  [[nodiscard]] SimTime disconnected_since() const {
    return connected_ ? -1 : outage_started_at_;
  }

  /// Cumulative disconnected time up to `t`.
  [[nodiscard]] SimTime total_disconnected(SimTime t);

  /// Measured disconnectivity ratio η over [0, t].
  [[nodiscard]] double measured_disconnect_ratio(SimTime t);

  /// Handover statistics (zero when mobility is disabled).
  [[nodiscard]] std::uint64_t handovers() const {
    return mobility_ ? mobility_->handovers() : 0;
  }
  [[nodiscard]] std::uint64_t failed_handovers() const {
    return mobility_ ? mobility_->failed_handovers() : 0;
  }

 private:
  void step_tick();
  [[nodiscard]] bool mobility_interrupted(SimTime t);

  RadioParams params_;
  Rng rng_;
  std::optional<MobilityModel> mobility_;
  SimTime current_ = 0;
  double rss_dbm_;
  bool connected_ = true;
  SimTime episode_ends_at_ = 0;
  SimTime outage_started_at_ = -1;
  SimTime disconnected_accum_ = 0;
};

}  // namespace tlc::sim

#include "sim/radio.hpp"

#include <algorithm>
#include <cmath>

#include "sim/loss.hpp"

namespace tlc::sim {
namespace {

/// Mean-reversion rate per second of the OU process.
constexpr double kRssReversionPerS = 0.4;

}  // namespace

RadioChannel::RadioChannel(RadioParams params, Rng rng)
    : params_(params), rng_(rng), rss_dbm_(params.mean_rss_dbm) {
  if (params_.mobility.speed_mps > 0.0) {
    mobility_.emplace(params_.mobility, rng_.fork());
  }
  // Draw the first connected episode length.
  if (params_.disconnect_ratio > 0.0 && params_.disconnect_ratio < 1.0) {
    const double mean_connected_s = params_.mean_outage_s *
                                    (1.0 - params_.disconnect_ratio) /
                                    params_.disconnect_ratio;
    episode_ends_at_ = from_seconds(rng_.exponential(mean_connected_s));
  } else {
    episode_ends_at_ = -1;  // never toggles
  }
}

void RadioChannel::step_tick() {
  const double dt = to_seconds(params_.tick);

  // Ornstein-Uhlenbeck RSS update.
  const double drift =
      kRssReversionPerS * (params_.mean_rss_dbm - rss_dbm_) * dt;
  const double diffusion = params_.rss_stddev_db *
                           std::sqrt(2.0 * kRssReversionPerS * dt) *
                           rng_.gaussian();
  rss_dbm_ += drift + diffusion;
  rss_dbm_ = std::clamp(rss_dbm_, -140.0, -40.0);

  const SimTime next = current_ + params_.tick;

  // Connectivity episode transitions.
  if (episode_ends_at_ >= 0) {
    while (episode_ends_at_ <= next) {
      const SimTime toggle_at = episode_ends_at_;
      if (connected_) {
        connected_ = false;
        outage_started_at_ = toggle_at;
        const double outage_s =
            std::max(0.05, rng_.exponential(params_.mean_outage_s));
        episode_ends_at_ = toggle_at + from_seconds(outage_s);
      } else {
        disconnected_accum_ += toggle_at - outage_started_at_;
        connected_ = true;
        outage_started_at_ = -1;
        const double mean_connected_s = params_.mean_outage_s *
                                        (1.0 - params_.disconnect_ratio) /
                                        params_.disconnect_ratio;
        const double connected_s =
            std::max(0.05, rng_.exponential(mean_connected_s));
        episode_ends_at_ = toggle_at + from_seconds(connected_s);
      }
    }
  }
  current_ = next;
}

void RadioChannel::advance_to(SimTime t) {
  while (current_ + params_.tick <= t) {
    step_tick();
  }
}

bool RadioChannel::mobility_interrupted(SimTime t) {
  return mobility_ && mobility_->in_interruption(t);
}

double RadioChannel::rss(SimTime t) {
  advance_to(t);
  // During an outage the measurable signal collapses; report a floor so
  // Fig 4-style timelines show the characteristic dips.
  const bool up = connected_ && !mobility_interrupted(t);
  return up ? rss_dbm_ : std::min(rss_dbm_, -120.0);
}

bool RadioChannel::connected(SimTime t) {
  advance_to(t);
  // Handover interruptions do NOT read as loss of service: the UE
  // context stays alive and the scheduler keeps transmitting — but the
  // in-flight data dies on the floor (no X2 forwarding, [10]). That is
  // why packet_loss_probability is 1 during them while connected()
  // remains true: handover loss is charged-then-lost, exactly the gap
  // source §3.1 cause 2 describes.
  return connected_;
}

double RadioChannel::packet_loss_probability(SimTime t) {
  advance_to(t);
  if (!connected_ || mobility_interrupted(t)) return 1.0;
  return bler_from_rss(rss_dbm_);
}

SimTime RadioChannel::total_disconnected(SimTime t) {
  advance_to(t);
  SimTime total = disconnected_accum_;
  if (!connected_ && outage_started_at_ >= 0 && t > outage_started_at_) {
    total += t - outage_started_at_;
  }
  if (mobility_) {
    (void)mobility_->in_interruption(t);  // advance the handover process
    total += mobility_->total_interruption();
  }
  return total;
}

double RadioChannel::measured_disconnect_ratio(SimTime t) {
  if (t <= 0) return 0.0;
  return static_cast<double>(total_disconnected(t)) / static_cast<double>(t);
}

}  // namespace tlc::sim

#include "workloads/gaming.hpp"

#include <algorithm>
#include <cmath>

namespace tlc::workloads {
namespace {

constexpr double kTickHz = 30.0;
constexpr std::uint32_t kUpdateBytesMean = 78;  // tuned for ~0.02 Mbps
constexpr double kUpdateJitter = 0.25;

}  // namespace

GamingSource::GamingSource(sim::Simulator& sim, EmitFn emit,
                           std::uint32_t flow_id, sim::Direction direction,
                           sim::Qci qci, GamingParams params, Rng rng)
    : PacketSource(sim, std::move(emit), flow_id, direction, qci, rng),
      params_(params) {}

void GamingSource::start(SimTime at) {
  running_ = true;
  sim_.schedule_at(at, [this] { next_tick(); });
}

void GamingSource::next_tick() {
  if (!running_) return;
  if (rng_.chance(params_.sync_probability)) {
    emit(kGamingSyncBytes);
  } else {
    const double jittered =
        static_cast<double>(kUpdateBytesMean) *
        std::max(0.3, 1.0 + kUpdateJitter * rng_.gaussian());
    emit(static_cast<std::uint32_t>(std::llround(jittered)));
  }
  sim_.schedule_after(from_seconds(1.0 / kTickHz), [this] { next_tick(); });
}

}  // namespace tlc::workloads

#include "workloads/background.hpp"

#include <algorithm>

namespace tlc::workloads {

BackgroundUdpSource::BackgroundUdpSource(sim::Simulator& sim, EmitFn emit,
                                         std::uint32_t flow_id,
                                         sim::Direction direction,
                                         BackgroundParams params, Rng rng)
    : PacketSource(sim, std::move(emit), flow_id, direction, sim::Qci::kQci9,
                   rng),
      params_(params) {
  if (params_.rate_mbps > 0.0) {
    const double packets_per_second =
        params_.rate_mbps * 1e6 / 8.0 / static_cast<double>(params_.packet_bytes);
    interval_ = from_seconds(1.0 / packets_per_second);
  }
}

void BackgroundUdpSource::start(SimTime at) {
  if (params_.rate_mbps <= 0.0) return;  // congestion knob at zero
  running_ = true;
  sim_.schedule_at(at, [this] { next_packet(); });
}

void BackgroundUdpSource::next_packet() {
  if (!running_) return;
  emit(params_.packet_bytes);
  const auto next = static_cast<SimTime>(
      std::max(1.0, rng_.exponential(static_cast<double>(interval_))));
  sim_.schedule_after(next, [this] { next_packet(); });
}

}  // namespace tlc::workloads

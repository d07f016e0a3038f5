#include "workloads/vr_gvsp.hpp"

#include <algorithm>
#include <cmath>

namespace tlc::workloads {
namespace {

constexpr double kMeanBitrateMbps = 9.0;
constexpr double kFps = 60.0;
constexpr std::uint32_t kTrailerBytes = 60;

}  // namespace

VrGvspSource::VrGvspSource(sim::Simulator& sim, EmitFn emit,
                           std::uint32_t flow_id, sim::Direction direction,
                           sim::Qci qci, VrGvspParams params, Rng rng)
    : PacketSource(sim, std::move(emit), flow_id, direction, qci, rng),
      params_(params) {
  const double bytes_per_second = kMeanBitrateMbps * 1e6 / 8.0;
  // Account for the keyframe inflation so the long-run mean matches.
  const double inflation = 1.0 + params_.keyframe_probability *
                                     (params_.keyframe_scale - 1.0);
  frame_mean_bytes_ = bytes_per_second / kFps / inflation;
}

void VrGvspSource::start(SimTime at) {
  running_ = true;
  sim_.schedule_at(at, [this] { next_frame(); });
}

void VrGvspSource::next_frame() {
  if (!running_) return;
  double mean = frame_mean_bytes_;
  if (rng_.chance(params_.keyframe_probability)) {
    mean *= params_.keyframe_scale;
  }
  const double jittered =
      mean * std::max(0.25, 1.0 + params_.size_jitter * rng_.gaussian());
  const auto payload = static_cast<std::uint32_t>(std::llround(jittered));

  // GVSP framing: leader, paced payload train, trailer.
  emit(kGvspLeaderBytes);
  emit_frame(payload, kGvspPacketSpacing);
  const std::uint32_t payload_packets = (payload + kMtu - 1) / kMtu;
  sim_.schedule_after(kGvspPacketSpacing * (payload_packets + 1), [this] {
    if (running_) emit(kTrailerBytes);
  });

  sim_.schedule_after(from_seconds(1.0 / kFps), [this] { next_frame(); });
}

}  // namespace tlc::workloads

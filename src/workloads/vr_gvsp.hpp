// Edge-VR workload: GigE-Vision Stream Protocol frames (§7.1
// scenario 2, the VRidge / Portal 2 replay).
//
// 1920×1080p60 graphical frames at an average 9.0 Mbps, shipped GVSP
// style: a small leader packet, a burst of MTU payload packets, and a
// small trailer per frame. The whole frame leaves the server back to
// back — the burstiness is what makes VR the biggest victim of queue
// drops under congestion (Fig 3/13).
#pragma once

#include "workloads/source.hpp"

namespace tlc::workloads {

/// GVSP leader packet size, sent at frame start.
inline constexpr std::uint32_t kGvspLeaderBytes = 60;
/// Intra-frame packet pacing: the sender-side stack drains a frame over
/// a few ms rather than instantaneously (calibrated so overload loss
/// matches the paper's Fig 3 levels instead of being amplified by burst
/// clustering at the drop-tail queue).
inline constexpr SimTime kGvspPacketSpacing = 280 * kMicrosecond;

struct VrGvspParams {
  /// Frame-to-frame size variability (scene complexity).
  double size_jitter = 0.30;
  /// Occasional large scene-change frames.
  double keyframe_probability = 0.02;
  double keyframe_scale = 2.5;
};

class VrGvspSource final : public PacketSource {
 public:
  VrGvspSource(sim::Simulator& sim, EmitFn emit, std::uint32_t flow_id,
               sim::Direction direction, sim::Qci qci, VrGvspParams params,
               Rng rng);

  void start(SimTime at) override;
  [[nodiscard]] std::string name() const override { return "VRidge (GVSP)"; }

 private:
  void next_frame();

  VrGvspParams params_;
  double frame_mean_bytes_ = 0.0;
};

}  // namespace tlc::workloads

// WebCam streaming workloads (§7.1 scenario 1).
//
// The paper streams a 1920×1080p30 H.264 camera with VLC two ways:
//  * RTSP/RTP (average 0.77 Mbps) — the encoder rate-controls harder
//    and RTCP feedback keeps the bitrate lean;
//  * legacy UDP (average 1.73 Mbps) — raw elementary stream push.
//
// Both are modelled as a GOP traffic process: one I-frame per second
// (≈6× a P-frame), 29 P-frames, lognormal-ish size jitter, packetized
// at the RTP MTU. The charging evaluation consumes only the packet
// process, so codec fidelity beyond rate/burst structure is not needed.
#pragma once

#include "workloads/source.hpp"

namespace tlc::workloads {

struct WebcamParams {
  double mean_bitrate_mbps = 0.77;  // RTSP default; UDP preset uses 1.73
  /// Relative frame-size jitter (stddev / mean).
  double size_jitter = 0.18;
};

/// Preset matching the paper's RTSP WebCam numbers.
[[nodiscard]] WebcamParams webcam_rtsp_params();
/// Preset matching the paper's legacy-UDP WebCam numbers.
[[nodiscard]] WebcamParams webcam_udp_params();

class WebcamSource final : public PacketSource {
 public:
  WebcamSource(sim::Simulator& sim, EmitFn emit, std::uint32_t flow_id,
               sim::Direction direction, sim::Qci qci, WebcamParams params,
               Rng rng, std::string name);

  void start(SimTime at) override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  void next_frame();
  [[nodiscard]] std::uint32_t frame_size(bool iframe);

  WebcamParams params_;
  std::string name_;
  std::uint32_t frame_in_gop_ = 0;
  double p_frame_mean_bytes_ = 0.0;
};

}  // namespace tlc::workloads

#include "workloads/webcam.hpp"

#include <algorithm>
#include <cmath>

namespace tlc::workloads {
namespace {

constexpr double kFps = 30.0;
/// I-frame to P-frame size ratio.
constexpr double kIframeRatio = 6.0;
/// Frames per GOP (one I-frame each).
constexpr std::uint32_t kGopFrames = 30;

}  // namespace

WebcamParams webcam_rtsp_params() {
  WebcamParams params;
  params.mean_bitrate_mbps = 0.77;
  return params;
}

WebcamParams webcam_udp_params() {
  WebcamParams params;
  params.mean_bitrate_mbps = 1.73;
  params.size_jitter = 0.25;  // no RTCP rate control smoothing
  return params;
}

WebcamSource::WebcamSource(sim::Simulator& sim, EmitFn emit,
                           std::uint32_t flow_id, sim::Direction direction,
                           sim::Qci qci, WebcamParams params, Rng rng,
                           std::string name)
    : PacketSource(sim, std::move(emit), flow_id, direction, qci, rng),
      params_(params),
      name_(std::move(name)) {
  // Solve per-frame sizes from the target bitrate:
  // (gop-1) P-frames + 1 I-frame (= kIframeRatio * P) per GOP.
  const double bytes_per_second = params_.mean_bitrate_mbps * 1e6 / 8.0;
  const double gop_seconds = static_cast<double>(kGopFrames) / kFps;
  const double gop_bytes = bytes_per_second * gop_seconds;
  const double p_frames = static_cast<double>(kGopFrames - 1);
  p_frame_mean_bytes_ = gop_bytes / (p_frames + kIframeRatio);
}

std::uint32_t WebcamSource::frame_size(bool iframe) {
  const double mean =
      p_frame_mean_bytes_ * (iframe ? kIframeRatio : 1.0);
  const double jittered =
      mean * std::max(0.25, 1.0 + params_.size_jitter * rng_.gaussian());
  return static_cast<std::uint32_t>(std::llround(jittered));
}

void WebcamSource::start(SimTime at) {
  running_ = true;
  sim_.schedule_at(at, [this] { next_frame(); });
}

void WebcamSource::next_frame() {
  if (!running_) return;
  const bool iframe = frame_in_gop_ == 0;
  frame_in_gop_ = (frame_in_gop_ + 1) % kGopFrames;
  emit_frame(frame_size(iframe));
  sim_.schedule_after(from_seconds(1.0 / kFps), [this] { next_frame(); });
}

}  // namespace tlc::workloads

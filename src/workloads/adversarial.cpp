#include "workloads/adversarial.hpp"

#include <algorithm>
#include <cmath>

namespace tlc::workloads {
namespace {

/// Pacing jitter of the jittered generators, as a fraction of the mean
/// inter-packet interval.
constexpr double kPacingJitter = 0.2;

constexpr double kZeroRatedRateMbps = 1.5;
constexpr std::uint32_t kZeroRatedPacketBytes = 1200;

constexpr double kFreeRiderRateMbps = 0.5;
constexpr std::uint32_t kFreeRiderPacketBytes = 1000;

constexpr sim::Protocol kShaperProtocol = sim::Protocol::kIcmp;
constexpr std::uint32_t kShaperPacketBytes = 120;
/// Padded/low-rate encoding: entropy below the tunnel threshold.
constexpr std::uint16_t kShaperEntropyMillis = 550;
/// Strict pacing, no jitter: ceil keeps the per-window emission count
/// at or under kShaperPacketsPerWindow, which is the whole point.
constexpr SimTime kShaperInterval =
    (kShaperWindow + static_cast<SimTime>(kShaperPacketsPerWindow) - 1) /
    static_cast<SimTime>(kShaperPacketsPerWindow);
static_assert(kShaperInterval >= kMicrosecond);

// Jittered inter-packet gap around `mean_s`: uniform in
// [1 - kPacingJitter, 1 + kPacingJitter] × mean, floored at 1 µs so a
// pathological parameter set cannot wedge the event loop.
SimTime jittered_gap(double mean_s, Rng& rng) {
  const double factor = rng.uniform(1.0 - kPacingJitter, 1.0 + kPacingJitter);
  return std::max<SimTime>(from_seconds(mean_s * factor), kMicrosecond);
}

std::uint16_t jittered_entropy(std::uint16_t mean, std::uint16_t jitter,
                               Rng& rng) {
  const std::int64_t drawn =
      static_cast<std::int64_t>(mean) +
      rng.uniform_int(-static_cast<std::int64_t>(jitter),
                      static_cast<std::int64_t>(jitter));
  return static_cast<std::uint16_t>(std::clamp<std::int64_t>(drawn, 0, 1000));
}

}  // namespace

const char* adversary_name(AdversaryKind kind) {
  switch (kind) {
    case AdversaryKind::kNone:
      return "none";
    case AdversaryKind::kIcmpTunnel:
      return "icmp-tunnel";
    case AdversaryKind::kDnsTunnel:
      return "dns-tunnel";
    case AdversaryKind::kZeroRatedAbuse:
      return "zero-rated-abuse";
    case AdversaryKind::kFreeRider:
      return "free-rider";
    case AdversaryKind::kVolumeShaper:
      return "volume-shaper";
  }
  return "none";
}

TunnelParams icmp_tunnel_params() { return TunnelParams{}; }

TunnelParams dns_tunnel_params() {
  TunnelParams params;
  params.protocol = sim::Protocol::kDns;
  params.goodput_kbps = 120.0;
  params.payload_bytes = 100;  // base32-in-qname query sizes
  params.entropy_mean_millis = 930;
  params.entropy_jitter_millis = 40;
  return params;
}

// ---- TunnelSource ---------------------------------------------------

TunnelSource::TunnelSource(sim::Simulator& sim, EmitFn emit,
                           std::uint32_t flow_id, TunnelParams params,
                           Rng rng)
    : PacketSource(sim, std::move(emit), flow_id, sim::Direction::Uplink,
                   sim::Qci::kQci9, rng),
      params_(params) {
  protocol_ = params_.protocol;
}

void TunnelSource::start(SimTime at) {
  running_ = true;
  sim_.schedule_at(at, [this] { next_packet(); });
}

std::string TunnelSource::name() const {
  return std::string("Adversary: ") +
         sim::protocol_name(params_.protocol) + " tunnel";
}

void TunnelSource::next_packet() {
  if (!running_) return;
  entropy_millis_ = jittered_entropy(params_.entropy_mean_millis,
                                     params_.entropy_jitter_millis, rng_);
  emit(params_.payload_bytes);
  const double mean_s = static_cast<double>(params_.payload_bytes) * 8.0 /
                        (params_.goodput_kbps * 1000.0);
  sim_.schedule_after(jittered_gap(mean_s, rng_), [this] { next_packet(); });
}

// ---- ZeroRatedAbuseSource -------------------------------------------

ZeroRatedAbuseSource::ZeroRatedAbuseSource(sim::Simulator& sim, EmitFn emit,
                                           std::uint32_t flow_id, Rng rng)
    : PacketSource(sim, std::move(emit), flow_id, sim::Direction::Uplink,
                   sim::Qci::kQci9, rng) {}

void ZeroRatedAbuseSource::start(SimTime at) {
  running_ = true;
  sim_.schedule_at(at, [this] { next_packet(); });
}

void ZeroRatedAbuseSource::next_packet() {
  if (!running_) return;
  emit(kZeroRatedPacketBytes);
  const double mean_s = static_cast<double>(kZeroRatedPacketBytes) * 8.0 /
                        (kZeroRatedRateMbps * 1e6);
  sim_.schedule_after(jittered_gap(mean_s, rng_), [this] { next_packet(); });
}

// ---- FreeRiderSource ------------------------------------------------

FreeRiderSource::FreeRiderSource(sim::Simulator& sim, EmitFn emit,
                                 std::uint32_t victim_flow_id, Rng rng)
    : PacketSource(sim, std::move(emit), victim_flow_id,
                   sim::Direction::Uplink, sim::Qci::kQci9, rng) {}

void FreeRiderSource::start(SimTime at) {
  running_ = true;
  sim_.schedule_at(at, [this] { next_packet(); });
}

void FreeRiderSource::next_packet() {
  if (!running_) return;
  emit(kFreeRiderPacketBytes);
  const double mean_s = static_cast<double>(kFreeRiderPacketBytes) * 8.0 /
                        (kFreeRiderRateMbps * 1e6);
  sim_.schedule_after(jittered_gap(mean_s, rng_), [this] { next_packet(); });
}

// ---- VolumeShaperSource ---------------------------------------------

VolumeShaperSource::VolumeShaperSource(sim::Simulator& sim, EmitFn emit,
                                       std::uint32_t flow_id, Rng rng)
    : PacketSource(sim, std::move(emit), flow_id, sim::Direction::Uplink,
                   sim::Qci::kQci9, rng) {
  protocol_ = kShaperProtocol;
  entropy_millis_ = kShaperEntropyMillis;
}

void VolumeShaperSource::start(SimTime at) {
  running_ = true;
  sim_.schedule_at(at, [this] { next_packet(); });
}

void VolumeShaperSource::next_packet() {
  if (!running_) return;
  emit(kShaperPacketBytes);
  sim_.schedule_after(kShaperInterval, [this] { next_packet(); });
}

std::uint64_t shaper_leakage_bound(SimTime duration) {
  if (duration <= 0) return 0;
  const auto max_packets =
      static_cast<std::uint64_t>(duration / kShaperInterval) + 1;
  return max_packets * kShaperPacketBytes;
}

// ---- Factory --------------------------------------------------------

std::unique_ptr<TrafficSource> make_adversary(AdversaryKind kind,
                                              sim::Simulator& sim,
                                              TrafficSource::EmitFn emit,
                                              std::uint32_t flow_id,
                                              Rng rng) {
  switch (kind) {
    case AdversaryKind::kNone:
      return nullptr;
    case AdversaryKind::kIcmpTunnel:
      return std::make_unique<TunnelSource>(sim, std::move(emit), flow_id,
                                            icmp_tunnel_params(), rng);
    case AdversaryKind::kDnsTunnel:
      return std::make_unique<TunnelSource>(sim, std::move(emit), flow_id,
                                            dns_tunnel_params(), rng);
    case AdversaryKind::kZeroRatedAbuse:
      return std::make_unique<ZeroRatedAbuseSource>(sim, std::move(emit),
                                                    flow_id, rng);
    case AdversaryKind::kFreeRider:
      return std::make_unique<FreeRiderSource>(sim, std::move(emit), flow_id,
                                               rng);
    case AdversaryKind::kVolumeShaper:
      return std::make_unique<VolumeShaperSource>(sim, std::move(emit),
                                                  flow_id, rng);
  }
  return nullptr;
}

}  // namespace tlc::workloads

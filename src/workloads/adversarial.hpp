// Adversarial billing-bypass traffic generators (DESIGN.md §13).
//
// The paper's threat model covers parties lying about *counted*
// traffic; Ghost Traffic (PAPERS.md) names the complementary class —
// traffic that evades the SPGW counting point entirely. Each generator
// here reproduces one bypass as a seeded, deterministic PacketSource
// overlay, so byzantine UEs can ride the normal fleet machinery:
//
//  * TunnelSource       — ICMP/DNS tunnel mimics: smuggle payload in
//                         small uncharged-class packets (high-entropy,
//                         high small-packet rate → both tunnel
//                         heuristics fire);
//  * ZeroRatedAbuseSource — bulk traffic mislabeled onto a zero-rated
//                         (sponsored) flow → per-window volume cap
//                         fires;
//  * FreeRiderSource    — replays another IMSI's flow identity so
//                         flow-based charging bills the victim →
//                         flow-binding check fires;
//  * VolumeShaperSource — rides *under* every detector threshold by
//                         construction; undetectable, but its leak is
//                         provably bounded by shaper_leakage_bound().
//
// All randomness comes from the injected seeded Rng — never wall clock
// or OS entropy (enforced by tlclint's adversarial-scoped rand rule) —
// so fleet results stay bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "workloads/source.hpp"

namespace tlc::workloads {

enum class AdversaryKind : std::uint8_t {
  kNone = 0,
  kIcmpTunnel = 1,
  kDnsTunnel = 2,
  kZeroRatedAbuse = 3,
  kFreeRider = 4,
  kVolumeShaper = 5,
};

[[nodiscard]] const char* adversary_name(AdversaryKind kind);

/// ICMP/DNS tunnel profile: payload smuggled as small free-class
/// packets at a fixed goodput, with near-random payload entropy (the
/// tunnel carries compressed/encrypted data).
struct TunnelParams {
  sim::Protocol protocol = sim::Protocol::kIcmp;
  /// Smuggled goodput. Default ≫ any plausible diagnostic rate, so the
  /// small-packet-rate heuristic fires within the first window even
  /// under heavy radio loss.
  double goodput_kbps = 400.0;
  std::uint32_t payload_bytes = 96;
  /// Payload entropy: mean ± uniform jitter, in thousandths.
  std::uint16_t entropy_mean_millis = 950;
  std::uint16_t entropy_jitter_millis = 30;
};

[[nodiscard]] TunnelParams icmp_tunnel_params();
[[nodiscard]] TunnelParams dns_tunnel_params();

class TunnelSource final : public PacketSource {
 public:
  TunnelSource(sim::Simulator& sim, EmitFn emit, std::uint32_t flow_id,
               TunnelParams params, Rng rng);

  void start(SimTime at) override;
  [[nodiscard]] std::string name() const override;

 private:
  void next_packet();

  TunnelParams params_;
};

/// Bulk transfer mislabeled onto a zero-rated flow: ordinary UDP at
/// 1.5 Mbps in 1200-byte packets, far beyond what any sponsored service
/// needs. The flow itself must be registered zero-rated at the gateway
/// (the fleet wiring does this for kZeroRatedAbuse members).
class ZeroRatedAbuseSource final : public PacketSource {
 public:
  ZeroRatedAbuseSource(sim::Simulator& sim, EmitFn emit,
                       std::uint32_t flow_id, Rng rng);

  void start(SimTime at) override;
  [[nodiscard]] std::string name() const override {
    return "Adversary: zero-rated abuse";
  }

 private:
  void next_packet();
};

/// Free-rider: emits ordinary traffic (0.5 Mbps in 1000-byte packets)
/// on *another subscriber's* flow identity (`flow_id` is the victim's).
/// Under flow-based charging the victim pays; either way the gateway's
/// flow binding flags the carrier.
class FreeRiderSource final : public PacketSource {
 public:
  FreeRiderSource(sim::Simulator& sim, EmitFn emit,
                  std::uint32_t victim_flow_id, Rng rng);

  void start(SimTime at) override;
  [[nodiscard]] std::string name() const override {
    return "Adversary: free-rider";
  }

 private:
  void next_packet();
};

/// Volume-shaper emissions per window. Must stay strictly under the
/// gateway's epc::kFreeSmallPacketsPerWindow for the shaper to evade.
inline constexpr std::uint32_t kShaperPacketsPerWindow = 48;
/// The shaper's pacing window: the gateway's detection window.
inline constexpr SimTime kShaperWindow = kSecond;

/// Volume shaper: free-class (ICMP) tunnel deliberately tuned to stay
/// under every detector threshold — fewer small packets per window than
/// the flood limit, padded low-entropy encoding (550 thousandths) under
/// the entropy threshold. It is *designed* to go uncaught; the suite
/// instead asserts its leak never exceeds shaper_leakage_bound().
class VolumeShaperSource final : public PacketSource {
 public:
  VolumeShaperSource(sim::Simulator& sim, EmitFn emit, std::uint32_t flow_id,
                     Rng rng);

  void start(SimTime at) override;
  [[nodiscard]] std::string name() const override {
    return "Adversary: volume shaper";
  }

 private:
  void next_packet();
};

/// Upper bound on the bytes a shaper can leak over `duration`: it emits
/// at most one packet per ceil(kShaperWindow / kShaperPacketsPerWindow),
/// so
///   leak ≤ (duration / interval + 1) × packet_bytes.
/// This is an *emission* bound; radio loss only shrinks what arrives
/// at the gateway, so the bound holds end to end (the §13 leakage
/// argument).
[[nodiscard]] std::uint64_t shaper_leakage_bound(SimTime duration);

/// Builds the generator for `kind` (kNone returns nullptr). For
/// kFreeRider, `flow_id` must be the victim's flow; for every other
/// kind it is the adversary's own overlay flow.
[[nodiscard]] std::unique_ptr<TrafficSource> make_adversary(
    AdversaryKind kind, sim::Simulator& sim, TrafficSource::EmitFn emit,
    std::uint32_t flow_id, Rng rng);

}  // namespace tlc::workloads

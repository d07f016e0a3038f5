// Scenario configuration mirroring the paper's testbed (§7, Fig 11):
// one LTE small cell + OpenEPC-style core, an edge server co-located
// with the core, an app device, and a second phone absorbing iperf
// background traffic.
#pragma once

#include <cstdint>
#include <string>

#include <memory>

#include "charging/plan.hpp"
#include "charging/sampler.hpp"
#include "epc/enodeb.hpp"
#include "epc/profiles.hpp"
#include "sim/mobility.hpp"
#include "sim/packet.hpp"
#include "util/simtime.hpp"
#include "workloads/trace.hpp"

namespace tlc::testbed {

/// The four §7.1 applications (gaming in both QoS configurations), plus
/// the downlink UDP WebCam variant the Fig 4 intermittent-connectivity
/// experiment streams.
enum class AppKind {
  WebcamRtsp,         // 0.77 Mbps UL
  WebcamUdp,          // 1.73 Mbps UL
  WebcamUdpDownlink,  // 1.73 Mbps DL (Fig 4)
  VrGvsp,             // 9.0 Mbps DL
  GamingQci7,         // 0.02 Mbps DL, accelerated
  GamingQci9,         // same stream, best-effort
};

[[nodiscard]] const char* app_name(AppKind app);
[[nodiscard]] sim::Direction app_direction(AppKind app);
[[nodiscard]] sim::Qci app_qci(AppKind app);
[[nodiscard]] double app_nominal_mbps(AppKind app);

struct ScenarioConfig {
  AppKind app = AppKind::WebcamUdp;

  /// When set, the app traffic is this captured trace replayed in a
  /// loop (the paper's tcpdump + tcprelay methodology) instead of the
  /// generative model for `app`; `app` still selects the direction and
  /// QoS class.
  std::shared_ptr<const workloads::Trace> replay_trace;

  /// iperf UDP background to the second phone (the congestion knob of
  /// Figs 3/13); runs in the app's direction on QCI 9.
  double background_mbps = 0.0;

  /// Radio environment of the app device. -92 dBm reproduces the
  /// paper's "good radio" (RSS >= -95 dBm) baseline loss of a few
  /// percent; sweep below -95 for the weak-signal experiments.
  double mean_rss_dbm = -92.0;
  /// Intermittent disconnectivity ratio η (Figs 4/14); 0 disables.
  double disconnect_ratio = 0.0;
  double mean_outage_s = 1.93;

  /// Device mobility (handover loss, §3.1 cause 2); speed 0 disables.
  sim::MobilityParams mobility{};

  /// Data plan.
  double plan_c = 0.5;

  /// Charging cycle length. The paper uses 1-hour cycles; experiments
  /// here default to compressed cycles and scale gaps to MB/hr.
  SimTime cycle_length = 60 * kSecond;
  int cycles = 3;

  std::uint64_t seed = 1;
  epc::DeviceProfile device = epc::device_el20();

  /// Small-cell parameters (capacity, queue depth, RRC timers).
  epc::EnodebParams enodeb{};

  /// §5.4 tamper-resilient monitor on/off (off falls back to nothing —
  /// the operator's received-side view degrades to the gateway count).
  bool enable_counter_check = true;

  /// Optional tampering by a selfish edge on user-space TrafficStats
  /// (strawman demo): 1.0 = honest.
  double edge_trafficstats_tamper = 1.0;

  [[nodiscard]] std::string describe() const;
};

/// One member of a fleet population: the per-UE knobs a fleet engine
/// draws from its shard RNG stream. Everything not listed here (cycle
/// structure, cell parameters, plan) is inherited from the fleet's base
/// scenario.
struct FleetMember {
  AppKind app = AppKind::WebcamUdp;
  double mean_rss_dbm = -92.0;
  double disconnect_ratio = 0.0;
  double mobility_speed_mps = 0.0;
  std::uint64_t seed = 1;
};

/// Lifts a base scenario to one fleet member's scenario: applies the
/// member overrides and leaves every shared knob untouched. The lift is
/// the single place the base → per-UE mapping lives; the lifted config
/// then drives the same `make_app_source` and `UeMeters` a one-UE
/// Testbed uses, so both meter a member's world with one code path.
[[nodiscard]] ScenarioConfig lift_scenario(const ScenarioConfig& base,
                                           const FleetMember& member);

}  // namespace tlc::testbed

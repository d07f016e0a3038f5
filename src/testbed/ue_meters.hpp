// Per-UE metering: where each party counts one UE's traffic (§5.4,
// Fig 18).
//
// The gateway counts the app's direction (the legacy billing basis); the
// operator's view of the far endpoint is RRC COUNTER CHECK when enabled
// and the tamperable TrafficStats API otherwise (strawman 1); the edge
// vendor counts at its own endpoints. Each party snapshots at its own
// clock-skewed cycle boundary. The single-UE `Testbed` and every fleet
// shard member build, schedule and read out their UEs through this one
// type, so the two cannot disagree on what a member's world measures.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "charging/monitors.hpp"
#include "charging/sampler.hpp"
#include "epc/enodeb.hpp"
#include "epc/spgw.hpp"
#include "epc/ue.hpp"
#include "sim/simulator.hpp"
#include "testbed/edge_server.hpp"
#include "testbed/scenario.hpp"
#include "workloads/source.hpp"

namespace tlc::testbed {

/// Everything measured for one charging cycle.
struct CycleMeasurements {
  // Ground truth at exact nominal boundaries.
  std::uint64_t true_sent = 0;      // x̂e
  std::uint64_t true_received = 0;  // x̂o
  // Edge vendor's sampled view (its own clock).
  std::uint64_t edge_sent = 0;
  std::uint64_t edge_received = 0;
  // Operator's sampled view (its own clock; received/sent side via RRC
  // COUNTER CHECK or the gateway depending on direction).
  std::uint64_t op_sent = 0;
  std::uint64_t op_received = 0;
  // What the legacy 4G/5G bill would be based on (the gateway CDR for
  // the app's direction).
  std::uint64_t gateway_volume = 0;
};

/// How long past the last nominal boundary a run may need to simulate:
/// the clamped worst-case boundary skew plus slack for in-flight data.
inline constexpr SimTime kBoundaryGrace = 50 * kSecond;

/// Largest clock-skew offset a boundary can land from its nominal time.
[[nodiscard]] SimTime max_boundary_offset(SimTime cycle_length);

/// The UE's app workload: the generative model for `config.app`, or
/// `config.replay_trace` looped (which still takes its direction and
/// QoS class from `config.app`). Uplink traffic leaves through `device`,
/// downlink comes from `server`. Forks `rng` once, unless replaying.
[[nodiscard]] std::unique_ptr<workloads::TrafficSource> make_app_source(
    sim::Simulator& sim, const ScenarioConfig& config, std::uint32_t flow_id,
    epc::UeDevice& device, EdgeServer& server, Rng& rng);

/// One UE's counting points, per-party cycle samplers and clock streams.
///
/// Construction forks `rng` for the seven samplers (true sent/received,
/// edge sent/received, operator sent/received, gateway, in that order),
/// then the edge and the operator clock streams, then — only with
/// `meter_uncharged` — the §13 uncharged-volume sampler, which shares
/// the operator's boundary. `config` and every component must outlive
/// the meters.
class UeMeters {
 public:
  UeMeters(sim::Simulator& sim, const ScenarioConfig& config,
           epc::UeDevice& device, EdgeServer& server, epc::Spgw& spgw,
           epc::EnodeB& enodeb, Rng& rng, bool meter_uncharged = false);
  UeMeters(const UeMeters&) = delete;
  UeMeters& operator=(const UeMeters&) = delete;

  /// COUNTER CHECK response for this UE; the owner dispatches by IMSI.
  void on_counter_check(std::uint64_t ul_bytes, std::uint64_t dl_bytes,
                        SimTime at);

  /// Schedules every cycle boundary (config.cycles + 1 per sampler) and,
  /// with counter checks enabled, a COUNTER CHECK just before each
  /// operator boundary. Call once, before the simulation runs.
  void schedule_boundaries();

  /// Per-cycle volumes, once the last boundary has fired.
  [[nodiscard]] std::vector<CycleMeasurements> cycles() const;
  /// Uncharged volume per cycle; all zero unless `meter_uncharged`.
  [[nodiscard]] std::vector<std::uint64_t> uncharged_per_cycle() const;

 private:
  sim::Simulator& sim_;
  const ScenarioConfig& config_;
  epc::EnodeB& enodeb_;
  epc::Imsi imsi_;

  // Operator's tamper-resilient monitors (fed by COUNTER CHECK).
  charging::RrcCounterMonitor rrc_ul_{
      charging::RrcCounterMonitor::Track::Uplink};
  charging::RrcCounterMonitor rrc_dl_{
      charging::RrcCounterMonitor::Track::Downlink};
  // Cumulative-counter adapters the samplers read.
  std::vector<std::unique_ptr<charging::UsageMonitor>> monitors_;

  std::unique_ptr<charging::CycleSampler> true_sent_;
  std::unique_ptr<charging::CycleSampler> true_received_;
  std::unique_ptr<charging::CycleSampler> edge_sent_;
  std::unique_ptr<charging::CycleSampler> edge_received_;
  std::unique_ptr<charging::CycleSampler> op_sent_;
  std::unique_ptr<charging::CycleSampler> op_received_;
  std::unique_ptr<charging::CycleSampler> gateway_;
  std::unique_ptr<charging::CycleSampler> uncharged_;
  Rng edge_clock_rng_{0};
  Rng op_clock_rng_{0};
};

}  // namespace tlc::testbed

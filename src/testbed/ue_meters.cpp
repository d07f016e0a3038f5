#include "testbed/ue_meters.hpp"

#include <algorithm>
#include <functional>
#include <string>

#include "workloads/gaming.hpp"
#include "workloads/trace.hpp"
#include "workloads/vr_gvsp.hpp"
#include "workloads/webcam.hpp"

namespace tlc::testbed {
namespace {

constexpr SimTime kCounterCheckLead = 120 * kMillisecond;

/// Clock discipline per party as a *fraction of the cycle length*
/// (drives the Fig 18 record errors: the paper's coarse cycle sync
/// leaves ~1-2% volume error on hour cycles), converted to absolute
/// boundary offsets: stddev = rel * cycle_length.
constexpr double kEdgeClockRelStd = 0.0075;
constexpr double kOperatorClockRelStd = 0.012;

/// Clock offsets are clamped so a boundary sample cannot drift into a
/// neighbouring cycle's territory entirely.
SimTime draw_clamped_offset(const charging::ClockModel& model, Rng& rng,
                            SimTime max_abs) {
  const SimTime offset = model.draw_offset(rng);
  return std::clamp<SimTime>(offset, -max_abs, max_abs);
}

}  // namespace

SimTime max_boundary_offset(SimTime cycle_length) {
  return std::min<SimTime>(kBoundaryGrace - 5 * kSecond, cycle_length / 2);
}

std::unique_ptr<workloads::TrafficSource> make_app_source(
    sim::Simulator& sim, const ScenarioConfig& config, std::uint32_t flow_id,
    epc::UeDevice& device, EdgeServer& server, Rng& rng) {
  const sim::Direction direction = app_direction(config.app);
  const sim::Qci qci = app_qci(config.app);

  workloads::TrafficSource::EmitFn sink;
  if (direction == sim::Direction::Uplink) {
    sink = [&device](const sim::Packet& p) { device.app_send(p); };
  } else {
    sink = [&server, imsi = device.imsi()](const sim::Packet& p) {
      server.app_send(imsi, p);
    };
  }

  if (config.replay_trace) {
    // The paper's methodology: loop a captured trace (tcprelay) through
    // the testbed instead of running a generative model.
    return std::make_unique<workloads::TraceReplaySource>(
        sim, sink, flow_id, *config.replay_trace, /*loop=*/true);
  }
  switch (config.app) {
    case AppKind::WebcamRtsp:
      return std::make_unique<workloads::WebcamSource>(
          sim, sink, flow_id, direction, qci, workloads::webcam_rtsp_params(),
          rng.fork(), "WebCam (RTSP)");
    case AppKind::WebcamUdp:
    case AppKind::WebcamUdpDownlink:
      return std::make_unique<workloads::WebcamSource>(
          sim, sink, flow_id, direction, qci, workloads::webcam_udp_params(),
          rng.fork(), "WebCam (UDP)");
    case AppKind::VrGvsp:
      return std::make_unique<workloads::VrGvspSource>(
          sim, sink, flow_id, direction, qci, workloads::VrGvspParams{},
          rng.fork());
    case AppKind::GamingQci7:
    case AppKind::GamingQci9:
      return std::make_unique<workloads::GamingSource>(
          sim, sink, flow_id, direction, qci, workloads::GamingParams{},
          rng.fork());
  }
  return nullptr;
}

UeMeters::UeMeters(sim::Simulator& sim, const ScenarioConfig& config,
                   epc::UeDevice& device, EdgeServer& server,
                   epc::Spgw& spgw, epc::EnodeB& enodeb, Rng& rng,
                   bool meter_uncharged)
    : sim_(sim), config_(config), enodeb_(enodeb), imsi_(device.imsi()) {
  const bool uplink = app_direction(config.app) == sim::Direction::Uplink;
  const epc::Imsi imsi = imsi_;
  auto make_monitor = [this](std::string name,
                             std::function<std::uint64_t()> reader)
      -> const charging::UsageMonitor& {
    monitors_.push_back(std::make_unique<charging::CallbackMonitor>(
        std::move(name), std::move(reader)));
    return *monitors_.back();
  };

  // Ground-truth counting points.
  const charging::UsageMonitor& true_sent =
      uplink ? make_monitor("true-sent",
                            [&device] { return device.app_tx_bytes(); })
             : make_monitor("true-sent", [&server, imsi] {
                 return server.sent_bytes(imsi);
               });
  const charging::UsageMonitor& true_received =
      uplink ? make_monitor("true-received", [&server, imsi] {
                 return server.received_bytes(imsi);
               })
             : make_monitor("true-received",
                            [&device] { return device.app_rx_bytes(); });

  // Operator's gateway counter for the app's direction (the legacy
  // billing basis).
  const charging::UsageMonitor& gateway =
      uplink ? make_monitor("gateway-ul", [&spgw, imsi] {
                 return spgw.uplink_bytes(imsi);
               })
             : make_monitor("gateway-dl", [&spgw, imsi] {
                 return spgw.downlink_bytes(imsi);
               });

  // Operator's view of the other endpoint: RRC COUNTER CHECK when
  // activated (§5.4 "our solution"), else the tamperable user-space
  // TrafficStats API (strawman 1).
  const charging::UsageMonitor* op_far_side = nullptr;
  if (config.enable_counter_check) {
    op_far_side = uplink ? &rrc_ul_ : &rrc_dl_;
  } else {
    op_far_side =
        uplink ? &make_monitor("trafficstats-tx", [&device] {
                   return device.traffic_stats_tx();
                 })
               : &make_monitor("trafficstats-rx", [&device] {
                   return device.traffic_stats_rx();
                 });
  }

  // Per-party assembled (sent, received) views. The edge vendor counts
  // at the endpoints themselves.
  const charging::UsageMonitor& op_sent = uplink ? *op_far_side : gateway;
  const charging::UsageMonitor& op_received = uplink ? gateway : *op_far_side;

  const charging::ClockModel exact{0.0, 0.0};
  auto sampler = [&](const charging::UsageMonitor& monitor) {
    return std::make_unique<charging::CycleSampler>(sim, monitor, exact,
                                                    rng.fork());
  };
  true_sent_ = sampler(true_sent);
  true_received_ = sampler(true_received);
  edge_sent_ = sampler(true_sent);
  edge_received_ = sampler(true_received);
  op_sent_ = sampler(op_sent);
  op_received_ = sampler(op_received);
  gateway_ = sampler(gateway);
  edge_clock_rng_ = rng.fork();
  op_clock_rng_ = rng.fork();

  // §13 leak sampler — forked strictly after every stream above so
  // those keep their exact draws, and gated so honest callers build
  // (and schedule) nothing new at all.
  if (meter_uncharged) {
    uncharged_ = sampler(make_monitor(
        "uncharged", [&spgw, imsi] { return spgw.uncharged_bytes(imsi); }));
  }
}

void UeMeters::on_counter_check(std::uint64_t ul_bytes,
                                std::uint64_t dl_bytes, SimTime at) {
  rrc_ul_.on_report(ul_bytes, dl_bytes, at);
  rrc_dl_.on_report(ul_bytes, dl_bytes, at);
}

void UeMeters::schedule_boundaries() {
  const SimTime max_offset = max_boundary_offset(config_.cycle_length);
  const double cycle_s = to_seconds(config_.cycle_length);
  const charging::ClockModel edge_clock{kEdgeClockRelStd * cycle_s, 0.0};
  const charging::ClockModel op_clock{kOperatorClockRelStd * cycle_s, 0.0};

  for (int i = 0; i <= config_.cycles; ++i) {
    const SimTime nominal = static_cast<SimTime>(i) * config_.cycle_length;
    const SimTime edge_at =
        nominal + draw_clamped_offset(edge_clock, edge_clock_rng_, max_offset);
    const SimTime op_at =
        nominal + draw_clamped_offset(op_clock, op_clock_rng_, max_offset);

    true_sent_->schedule_boundary(nominal);
    true_received_->schedule_boundary(nominal);
    edge_sent_->schedule_boundary(edge_at);
    edge_received_->schedule_boundary(edge_at);
    op_sent_->schedule_boundary(op_at);
    op_received_->schedule_boundary(op_at);
    gateway_->schedule_boundary(op_at);
    if (uncharged_) uncharged_->schedule_boundary(op_at);

    // The operator refreshes its RRC-based record just before it
    // snapshots (bounded overhead: one COUNTER CHECK per boundary plus
    // those piggybacked on RRC releases).
    if (config_.enable_counter_check) {
      sim_.schedule_at(std::max<SimTime>(op_at - kCounterCheckLead, 0),
                       [this] { enodeb_.request_counter_check(imsi_); });
    }
  }
}

std::vector<CycleMeasurements> UeMeters::cycles() const {
  std::vector<CycleMeasurements> cycles(
      static_cast<std::size_t>(config_.cycles));
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    CycleMeasurements& cycle = cycles[i];
    cycle.true_sent = true_sent_->cycle_volume(i);
    cycle.true_received = true_received_->cycle_volume(i);
    cycle.edge_sent = edge_sent_->cycle_volume(i);
    cycle.edge_received = edge_received_->cycle_volume(i);
    cycle.op_sent = op_sent_->cycle_volume(i);
    cycle.op_received = op_received_->cycle_volume(i);
    cycle.gateway_volume = gateway_->cycle_volume(i);
  }
  return cycles;
}

std::vector<std::uint64_t> UeMeters::uncharged_per_cycle() const {
  std::vector<std::uint64_t> volumes(static_cast<std::size_t>(config_.cycles),
                                     0);
  if (uncharged_) {
    for (std::size_t i = 0; i < volumes.size(); ++i) {
      volumes[i] = uncharged_->cycle_volume(i);
    }
  }
  return volumes;
}

}  // namespace tlc::testbed

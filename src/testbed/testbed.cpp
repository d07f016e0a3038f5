#include "testbed/testbed.hpp"

#include <cassert>

#include "workloads/background.hpp"

namespace tlc::testbed {

Testbed::Testbed(ScenarioConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  // Radio channels: the app device per the scenario, the background
  // phone in strong signal with no outages (it only exists to congest
  // the cell).
  sim::RadioParams app_radio_params;
  app_radio_params.mean_rss_dbm = config_.mean_rss_dbm;
  app_radio_params.disconnect_ratio = config_.disconnect_ratio;
  app_radio_params.mean_outage_s = config_.mean_outage_s;
  app_radio_params.mobility = config_.mobility;
  app_radio_ = std::make_unique<sim::RadioChannel>(app_radio_params,
                                                   rng_.fork());
  sim::RadioParams bg_radio_params;
  bg_radio_params.mean_rss_dbm = -70.0;
  bg_radio_ = std::make_unique<sim::RadioChannel>(bg_radio_params, rng_.fork());

  enodeb_ = std::make_unique<epc::EnodeB>(sim_, config_.enodeb,
                                          rng_.fork());
  mme_ = std::make_unique<epc::Mme>(sim_, hss_);
  spgw_ = std::make_unique<epc::Spgw>(sim_, *enodeb_);
  server_ = std::make_unique<EdgeServer>(sim_, *spgw_);
  spgw_->set_server_sink([this](epc::Imsi imsi, const sim::Packet& packet) {
    server_->deliver_uplink(imsi, packet);
  });

  app_ue_ = std::make_unique<epc::UeDevice>(sim_, kAppImsi, config_.device,
                                            app_radio_.get(), enodeb_.get(),
                                            rng_.fork());
  app_ue_->set_traffic_stats_tamper(config_.edge_trafficstats_tamper);
  bg_ue_ = std::make_unique<epc::UeDevice>(sim_, kBackgroundImsi,
                                           epc::device_s7edge(),
                                           bg_radio_.get(), enodeb_.get(),
                                           rng_.fork());
  app_ue_->set_app_receive_handler(
      [this](const sim::Packet& packet) { on_app_receive(packet); });

  // Subscriber provisioning + QoS rules.
  hss_.provision(epc::SubscriberProfile{kAppImsi, "edge-app-device",
                                        config_.device});
  hss_.provision(epc::SubscriberProfile{kBackgroundImsi, "background-phone",
                                        epc::device_s7edge()});
  pcrf_.install_rule(kAppFlow, app_qci(config_.app));
  pcrf_.install_rule(kBackgroundFlow, sim::Qci::kQci9);

  // Operator's tamper-resilient monitor feed (§5.4).
  if (config_.enable_counter_check) {
    enodeb_->set_counter_check_handler(
        [this](epc::Imsi imsi, std::uint64_t ul, std::uint64_t dl,
               SimTime at) {
          if (imsi == kAppImsi) meters_->on_counter_check(ul, dl, at);
        });
  }

  wire_attach_handling();
  // Fork order: app source, background source, then the app UE's
  // meters.
  app_source_ = make_app_source(sim_, config_, kAppFlow, *app_ue_, *server_,
                                rng_);
  build_background_source();
  meters_ = std::make_unique<UeMeters>(sim_, config_, *app_ue_, *server_,
                                       *spgw_, *enodeb_, rng_);
}

void Testbed::wire_attach_handling() {
  mme_->set_state_change_handler([this](epc::Imsi imsi, bool attached) {
    epc::UeDevice* ue = imsi == kAppImsi ? app_ue_.get() : bg_ue_.get();
    sim::RadioChannel* radio =
        imsi == kAppImsi ? app_radio_.get() : bg_radio_.get();
    if (attached) {
      spgw_->create_session(imsi);
      enodeb_->add_ue(imsi, ue, radio);
      ue->set_attached(true);
    } else {
      spgw_->close_session(imsi);
      enodeb_->remove_ue(imsi);
      ue->set_attached(false);
    }
  });
  const bool app_ok = mme_->register_ue(kAppImsi, app_radio_.get());
  const bool bg_ok = mme_->register_ue(kBackgroundImsi, bg_radio_.get());
  assert(app_ok && bg_ok);
  (void)app_ok;
  (void)bg_ok;
}

void Testbed::build_background_source() {
  const sim::Direction direction = app_direction(config_.app);
  if (config_.background_mbps > 0.0) {
    workloads::TrafficSource::EmitFn bg_sink;
    if (direction == sim::Direction::Uplink) {
      bg_sink = [this](const sim::Packet& p) { bg_ue_->app_send(p); };
    } else {
      // Background downlink arrives from the Internet side of the
      // gateway, not from the edge server (it must not touch the edge
      // vendor's netstat counters).
      bg_sink = [this](const sim::Packet& p) {
        spgw_->downlink_submit(kBackgroundImsi, p);
      };
    }
    workloads::BackgroundParams bg_params;
    bg_params.rate_mbps = config_.background_mbps;
    bg_source_ = std::make_unique<workloads::BackgroundUdpSource>(
        sim_, bg_sink, kBackgroundFlow, direction, bg_params, rng_.fork());
  }
}

void Testbed::on_app_receive(const sim::Packet& packet) {
  if (packet.flow_id == EdgeServer::kPingFlow) {
    rtt_ms_.push_back(to_millis(sim_.now() - packet.created_at));
  }
}

void Testbed::record_timeline_point() {
  const sim::Direction direction = app_direction(config_.app);
  const std::uint64_t device_bytes = direction == sim::Direction::Uplink
                                         ? app_ue_->app_tx_bytes()
                                         : app_ue_->app_rx_bytes();
  const std::uint64_t charged_bytes =
      direction == sim::Direction::Uplink
          ? spgw_->uplink_bytes(kAppImsi)
          : spgw_->downlink_bytes(kAppImsi);
  // The "edge side" cumulative for the gap: what the edge metered.
  const std::uint64_t edge_bytes = direction == sim::Direction::Uplink
                                       ? app_ue_->app_tx_bytes()
                                       : app_ue_->app_rx_bytes();

  TimelinePoint point;
  point.at = sim_.now();
  const double delta_bytes =
      static_cast<double>(device_bytes - timeline_prev_device_bytes_);
  point.device_rate_mbps =
      delta_bytes * 8.0 / 1e6 / to_seconds(timeline_interval_);
  timeline_prev_device_bytes_ = device_bytes;
  point.charged_cum_mb = static_cast<double>(charged_bytes) / 1e6;
  point.device_cum_mb = static_cast<double>(edge_bytes) / 1e6;
  point.gap_mb = point.charged_cum_mb >= point.device_cum_mb
                     ? point.charged_cum_mb - point.device_cum_mb
                     : point.device_cum_mb - point.charged_cum_mb;
  point.rss_dbm = app_radio_->rss(sim_.now());
  point.connected = app_radio_->connected(sim_.now());
  timeline_.push_back(point);

  sim_.schedule_after(timeline_interval_, [this] { record_timeline_point(); });
}

void Testbed::send_ping() {
  if (pings_remaining_ <= 0) return;
  --pings_remaining_;
  sim::Packet probe;
  probe.id = next_ping_id_++;
  probe.flow_id = EdgeServer::kPingFlow;
  probe.size_bytes = 64;
  probe.direction = sim::Direction::Uplink;
  // Probes ride the application's bearer, so the measured RTT reflects
  // the QoS class the app actually experiences (QCI 7 gaming pings are
  // not stuck behind best-effort backlog).
  probe.qci = app_qci(config_.app);
  probe.created_at = sim_.now();
  app_ue_->app_send(probe);
  sim_.schedule_after(ping_interval_, [this] { send_ping(); });
}

void Testbed::enable_timeline(SimTime interval) {
  timeline_enabled_ = true;
  timeline_interval_ = interval;
}

void Testbed::enable_rtt_probes(int count, SimTime interval) {
  pings_remaining_ = count;
  ping_interval_ = interval;
}

double Testbed::measured_disconnect_ratio() {
  return app_radio_->measured_disconnect_ratio(sim_.now());
}

const std::vector<CycleMeasurements>& Testbed::run() {
  if (ran_) return cycles_;
  ran_ = true;

  meters_->schedule_boundaries();
  mme_->start();
  app_source_->start(0);
  if (bg_source_) bg_source_->start(0);
  if (timeline_enabled_) {
    sim_.schedule_after(timeline_interval_,
                        [this] { record_timeline_point(); });
  }
  if (pings_remaining_ > 0) {
    sim_.schedule_after(2 * kSecond, [this] { send_ping(); });
  }

  const SimTime horizon =
      static_cast<SimTime>(config_.cycles) * config_.cycle_length +
      kBoundaryGrace;
  sim_.run_until(horizon);

  // Stop sources so the simulator can quiesce if the caller keeps going.
  app_source_->stop();
  if (bg_source_) bg_source_->stop();

  cycles_ = meters_->cycles();
  return cycles_;
}

}  // namespace tlc::testbed

#include "testbed/testbed.hpp"

namespace tlc::testbed {

Testbed::Testbed(ScenarioConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  // Fork order: app radio, background radio, eNodeB, app UE, background
  // phone, app source, background source (above 0 Mbps), then the app
  // UE's meters.
  sim::RadioParams app_radio_params;
  app_radio_params.mean_rss_dbm = config_.mean_rss_dbm;
  app_radio_params.disconnect_ratio = config_.disconnect_ratio;
  app_radio_params.mean_outage_s = config_.mean_outage_s;
  app_radio_params.mobility = config_.mobility;
  app_radio_ = std::make_unique<sim::RadioChannel>(app_radio_params,
                                                   rng_.fork());
  const Rng bg_radio_rng = rng_.fork();
  cell_ = std::make_unique<Cell>(sim_, config_, rng_.fork());

  app_ue_ = std::make_unique<epc::UeDevice>(sim_, kAppImsi, config_.device,
                                            app_radio_.get(),
                                            &cell_->enodeb(), rng_.fork());
  app_ue_->set_traffic_stats_tamper(config_.edge_trafficstats_tamper);
  app_ue_->set_app_receive_handler(
      [this](const sim::Packet& packet) { on_app_receive(packet); });
  const Rng bg_device_rng = rng_.fork();

  app_source_ = make_app_source(sim_, config_, kAppFlow, *app_ue_,
                                cell_->server(), rng_);
  // The phone is built even at 0 Mbps, as an idle attached subscriber.
  cell_->add_background(kBackgroundImsi, kBackgroundFlow, bg_radio_rng,
                        bg_device_rng, rng_);
  meters_ = std::make_unique<UeMeters>(sim_, config_, *app_ue_,
                                       cell_->server(), cell_->spgw(),
                                       cell_->enodeb(), rng_);
  cell_->add_ue("edge-app-device", *app_ue_, *app_radio_, meters_.get());
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
          ? cell_->spgw().uplink_bytes(kAppImsi)
          : cell_->spgw().downlink_bytes(kAppImsi);
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
  cell_->mme().start();
  app_source_->start(0);
  cell_->start_background();
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
  cell_->stop_background();

  cycles_ = meters_->cycles();
  return cycles_;
}

}  // namespace tlc::testbed

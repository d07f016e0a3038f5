#include "testbed/cell.hpp"

#include <cassert>

#include "workloads/background.hpp"

namespace tlc::testbed {

Cell::Cell(sim::Simulator& sim, const ScenarioConfig& config, Rng enodeb_rng,
           epc::SpgwParams spgw_params)
    : sim_(sim),
      config_(config),
      enodeb_(sim, config.enodeb, enodeb_rng),
      mme_(sim, hss_),
      spgw_(sim, enodeb_, spgw_params),
      server_(sim, spgw_) {
  spgw_.set_server_sink([this](epc::Imsi imsi, const sim::Packet& packet) {
    server_.deliver_uplink(imsi, packet);
  });
  mme_.set_state_change_handler([this](epc::Imsi imsi, bool attached) {
    on_state_change(imsi, attached);
  });
  // Operator's tamper-resilient monitor feed (§5.4). The handler's mere
  // presence makes the eNodeB check counters at every RRC release, so
  // it is installed only when enabled.
  if (config_.enable_counter_check) {
    enodeb_.set_counter_check_handler(
        [this](epc::Imsi imsi, std::uint64_t ul, std::uint64_t dl,
               SimTime at) {
          auto it = members_.find(imsi);
          if (it == members_.end() || it->second.meters == nullptr) return;
          it->second.meters->on_counter_check(ul, dl, at);
        });
  }
}

void Cell::on_state_change(epc::Imsi imsi, bool attached) {
  auto it = members_.find(imsi);
  if (it == members_.end()) return;
  const Member& member = it->second;
  if (attached) {
    spgw_.create_session(imsi);
    enodeb_.add_ue(imsi, member.device, member.radio);
  } else {
    spgw_.close_session(imsi);
    enodeb_.remove_ue(imsi);
  }
  member.device->set_attached(attached);
}

void Cell::add_ue(const std::string& name, epc::UeDevice& device,
                  sim::RadioChannel& radio, UeMeters* meters) {
  hss_.provision(
      epc::SubscriberProfile{device.imsi(), name, device.profile()});
  members_[device.imsi()] = Member{&device, &radio, meters};
  const bool ok = mme_.register_ue(device.imsi(), &radio);
  assert(ok);
  (void)ok;
}

void Cell::add_background(epc::Imsi imsi, std::uint32_t flow, Rng radio_rng,
                          Rng device_rng, Rng& source_rng) {
  sim::RadioParams radio_params;
  radio_params.mean_rss_dbm = -70.0;  // strong signal, never drops
  bg_radio_ = std::make_unique<sim::RadioChannel>(radio_params, radio_rng);
  bg_device_ = std::make_unique<epc::UeDevice>(
      sim_, imsi, epc::device_s7edge(), bg_radio_.get(), &enodeb_,
      device_rng);
  add_ue("background-phone", *bg_device_, *bg_radio_, nullptr);
  if (config_.background_mbps <= 0.0) return;

  const sim::Direction direction = app_direction(config_.app);
  workloads::TrafficSource::EmitFn sink;
  if (direction == sim::Direction::Uplink) {
    sink = [device = bg_device_.get()](const sim::Packet& p) {
      device->app_send(p);
    };
  } else {
    sink = [this, imsi](const sim::Packet& p) {
      spgw_.downlink_submit(imsi, p);
    };
  }
  workloads::BackgroundParams params;
  params.rate_mbps = config_.background_mbps;
  bg_source_ = std::make_unique<workloads::BackgroundUdpSource>(
      sim_, sink, flow, direction, params, source_rng.fork());
}

void Cell::start_background() {
  if (bg_source_) bg_source_->start(0);
}

void Cell::stop_background() {
  if (bg_source_) bg_source_->stop();
}

}  // namespace tlc::testbed

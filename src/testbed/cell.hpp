// The testbed's one small cell and its EPC function set (§7, Fig 11).
//
// A `Cell` owns the eNodeB, HSS, MME, SPGW and the edge server
// co-located with the core, and wires the gateway's uplink deliveries
// to that server. It holds the one IMSI -> member registry: the MME's
// attach/detach handler opens and closes each member's bearer from it,
// and, with COUNTER CHECK enabled, the eNodeB's responses reach the
// member's meters through it. It also builds the background phone that
// congests the cell. The single-UE `Testbed` and every fleet shard
// build their world around one `Cell`.
//
// The cell forks no randomness of its own: every `Rng` arrives already
// forked, so each owner keeps its own fork order.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "epc/enodeb.hpp"
#include "epc/hss.hpp"
#include "epc/mme.hpp"
#include "epc/spgw.hpp"
#include "epc/ue.hpp"
#include "sim/radio.hpp"
#include "sim/simulator.hpp"
#include "testbed/edge_server.hpp"
#include "testbed/scenario.hpp"
#include "testbed/ue_meters.hpp"
#include "workloads/source.hpp"

namespace tlc::testbed {

class Cell {
 public:
  /// `config` supplies the eNodeB parameters, the COUNTER CHECK switch
  /// and the background phone's rate and direction; it must outlive
  /// the cell.
  Cell(sim::Simulator& sim, const ScenarioConfig& config, Rng enodeb_rng,
       epc::SpgwParams spgw_params = {});
  // Handlers capture `this`.
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  /// Provisions `device` in the HSS as `name`, registers it for attach
  /// dispatch and COUNTER CHECK (answered to `meters`, if any), then
  /// attaches it. An attach at t = 0 schedules no event and draws no
  /// randomness, so members may be added in any order.
  void add_ue(const std::string& name, epc::UeDevice& device,
              sim::RadioChannel& radio, UeMeters* meters);

  /// Builds the background phone `imsi`: a strong-signal (-70 dBm)
  /// radio, an S7 Edge device and an HSS record "background-phone".
  /// Above 0 Mbps it also gets an iperf source on `flow`, forked from
  /// `source_rng`, in the app's direction: uplink leaves the phone,
  /// downlink enters at the SPGW from the Internet side (never through
  /// the edge server's netstat counters).
  void add_background(epc::Imsi imsi, std::uint32_t flow, Rng radio_rng,
                      Rng device_rng, Rng& source_rng);
  void start_background();
  void stop_background();

  [[nodiscard]] epc::EnodeB& enodeb() { return enodeb_; }
  [[nodiscard]] epc::Hss& hss() { return hss_; }
  [[nodiscard]] epc::Mme& mme() { return mme_; }
  [[nodiscard]] epc::Spgw& spgw() { return spgw_; }
  [[nodiscard]] EdgeServer& server() { return server_; }

 private:
  struct Member {
    epc::UeDevice* device = nullptr;
    sim::RadioChannel* radio = nullptr;
    UeMeters* meters = nullptr;
  };

  void on_state_change(epc::Imsi imsi, bool attached);

  sim::Simulator& sim_;
  const ScenarioConfig& config_;
  epc::EnodeB enodeb_;
  epc::Hss hss_;
  epc::Mme mme_;
  epc::Spgw spgw_;
  EdgeServer server_;
  std::unordered_map<epc::Imsi, Member> members_;

  std::unique_ptr<sim::RadioChannel> bg_radio_;
  std::unique_ptr<epc::UeDevice> bg_device_;
  std::unique_ptr<workloads::TrafficSource> bg_source_;
};

}  // namespace tlc::testbed

// Mobility Management Entity.
//
// Tracks EMM attach state per device and emulates radio-link-failure
// handling: §3.2 observes that the paper's LTE core detaches a device
// after ~5 s of persistent disconnectivity, which caps the charging gap
// an outage can accumulate (the SPGW stops forwarding/charging for a
// detached UE). Shorter intermittent outages go unnoticed — exactly the
// regime where the gap keeps growing.
#pragma once

#include <functional>
#include <unordered_map>

#include "epc/hss.hpp"
#include "epc/ids.hpp"
#include "sim/radio.hpp"
#include "sim/simulator.hpp"

namespace tlc::epc {

class Mme {
 public:
  /// Fired on EMM state changes so the SPGW / eNodeB / UE can react.
  using StateChangeFn = std::function<void(Imsi, bool attached)>;

  Mme(sim::Simulator& sim, Hss& hss);

  /// Registers a UE and its radio for supervision, then performs the
  /// initial attach (authorized against the HSS).
  /// Returns false when the HSS rejects the subscriber.
  bool register_ue(Imsi imsi, sim::RadioChannel* radio);

  void set_state_change_handler(StateChangeFn handler) {
    on_state_change_ = std::move(handler);
  }

  /// Starts periodic radio-link supervision.
  void start();

  [[nodiscard]] bool attached(Imsi imsi) const;
  [[nodiscard]] std::uint64_t detach_count() const { return detaches_; }
  [[nodiscard]] std::uint64_t attach_count() const { return attaches_; }

 private:
  struct UeState {
    sim::RadioChannel* radio = nullptr;
    bool attached = false;
    bool reattach_pending = false;
  };

  void poll();
  void set_attached(Imsi imsi, UeState& state, bool attached);

  sim::Simulator& sim_;
  Hss& hss_;
  std::unordered_map<Imsi, UeState> ues_;
  StateChangeFn on_state_change_;
  bool started_ = false;
  std::uint64_t detaches_ = 0;
  std::uint64_t attaches_ = 0;
};

}  // namespace tlc::epc

#include "epc/mme.hpp"

#include <algorithm>
#include <vector>

#include "util/logging.hpp"

namespace tlc::epc {
namespace {

/// Radio-link supervision period.
constexpr SimTime kPollInterval = 500 * kMillisecond;
/// Persistent-outage threshold before network-initiated detach (the
/// paper's core averaged 5 s).
constexpr SimTime kDetachAfter = 5 * kSecond;
/// Attach procedure latency once coverage returns.
constexpr SimTime kAttachDelay = 200 * kMillisecond;

}  // namespace

Mme::Mme(sim::Simulator& sim, Hss& hss) : sim_(sim), hss_(hss) {}

bool Mme::register_ue(Imsi imsi, sim::RadioChannel* radio) {
  if (!hss_.authorize_attach(imsi)) {
    TLC_WARN("mme") << "attach rejected for IMSI " << imsi.to_string();
    return false;
  }
  UeState& state = ues_[imsi];
  state.radio = radio;
  set_attached(imsi, state, true);
  return true;
}

void Mme::set_attached(Imsi imsi, UeState& state, bool attached) {
  if (state.attached == attached) return;
  state.attached = attached;
  if (attached) {
    ++attaches_;
  } else {
    ++detaches_;
  }
  TLC_INFO("mme") << "IMSI " << imsi.to_string() << " "
                  << (attached ? "attached" : "detached") << " at "
                  << format_time(sim_.now());
  if (on_state_change_) on_state_change_(imsi, attached);
}

void Mme::start() {
  if (started_) return;
  started_ = true;
  sim_.schedule_after(kPollInterval, [this] { poll(); });
}

void Mme::poll() {
  const SimTime now = sim_.now();
  // Poll in ascending IMSI order, not hash order: detaches and attach
  // timers scheduled in this pass land at identical timestamps, so
  // iteration order decides their relative event order. Hash order
  // would tie that to insertion history and hasher implementation.
  std::vector<Imsi> imsis;
  imsis.reserve(ues_.size());
  // tlclint: ordered — key collection, sorted on the next line
  for (const auto& [imsi, state] : ues_) imsis.push_back(imsi);
  std::sort(imsis.begin(), imsis.end());
  for (const Imsi imsi : imsis) {
    UeState& state = ues_.at(imsi);
    if (state.radio == nullptr) continue;
    const bool connected = state.radio->connected(now);
    if (state.attached) {
      if (!connected) {
        const SimTime since = state.radio->disconnected_since();
        if (since >= 0 && now - since >= kDetachAfter) {
          // Radio link failure: network-initiated detach.
          set_attached(imsi, state, false);
        }
      }
    } else if (connected && !state.reattach_pending &&
               hss_.authorize_attach(imsi)) {
      // Coverage restored: run the attach procedure.
      state.reattach_pending = true;
      sim_.schedule_after(kAttachDelay, [this, imsi] {
        auto it = ues_.find(imsi);
        if (it == ues_.end()) return;
        it->second.reattach_pending = false;
        if (it->second.radio->connected(sim_.now())) {
          set_attached(imsi, it->second, true);
        }
      });
    }
  }
  sim_.schedule_after(kPollInterval, [this] { poll(); });
}

bool Mme::attached(Imsi imsi) const {
  auto it = ues_.find(imsi);
  return it != ues_.end() && it->second.attached;
}

}  // namespace tlc::epc

// Serving/PDN gateway (S-GW/P-GW collapsed, as in OpenEPC's SPGW node).
//
// This is where legacy 4G/5G charging happens (§2.1): the gateway
// forwards edge traffic and counts usage per subscriber, per direction.
// Crucially for the charging gap:
//  * downlink packets are counted *before* they cross the S1 link, the
//    eNodeB queue and the air — losses beyond this point have already
//    been charged;
//  * uplink packets are counted on arrival from the eNodeB — losses over
//    the air were never charged;
//  * traffic for a detached UE is discarded uncharged (the MME's
//    radio-link-failure detach caps outage-induced over-charging, §3.2).
//
// The gateway emits Trace-1-style CDRs per charging cycle. A
// "selfish operator" in the paper can rewrite these records at will —
// reproduced in tests by editing the returned CDR, since nothing in
// legacy 4G/5G authenticates it.
//
// Ghost-Traffic extension (DESIGN.md §13): the gateway also carries the
// traffic classes that evade the counting point — free-class ICMP/DNS
// and zero-rated flows are forwarded *uncharged* — and runs cheap
// per-IMSI detectors over them: per-protocol/per-QCI volume histograms,
// a small-packet-rate heuristic and a payload-entropy heuristic for
// tunnels, a per-window volume cap for zero-rated flows, and
// flow-identity binding against free-riders. Detection is fully lazy
// (window indices are derived from the packet's arrival time), so the
// detectors schedule no simulator events and cannot perturb event
// ordering of adversary-free runs.
#pragma once

#include <array>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "epc/cdr.hpp"
#include "epc/enodeb.hpp"
#include "epc/ids.hpp"
#include "sim/link.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace tlc::epc {

// Detector thresholds, fixed at the gateway (the Ghost Traffic
// adversary faces fixed detectors). They are sized so honest workloads
// (which emit no free-class or zero-rated traffic at all) can never
// trip them, while the tunnel profiles overshoot by an order of
// magnitude.

/// Detection window; all rate heuristics are per-window. Also the
/// period from which the documented leakage bounds derive.
inline constexpr SimTime kAnomalyWindow = kSecond;
/// A free-class packet at or under this size counts as "small".
inline constexpr std::uint32_t kSmallPacketBytes = 128;
/// Small free-class packets tolerated per window before the flood flag
/// fires (generous: real diagnostics send a few per second).
inline constexpr std::uint32_t kFreeSmallPacketsPerWindow = 50;
/// Zero-rated volume tolerated per window before the abuse flag fires.
inline constexpr std::uint64_t kZeroRatedBytesPerWindow = 64 * 1024;
/// Mean free-class payload entropy (thousandths) above which the
/// tunnel-entropy flag fires...
inline constexpr std::uint32_t kEntropyThresholdMillis = 800;
/// ...once at least this much free-class volume has accumulated (small
/// samples of legitimate high-entropy DNS are not enough).
inline constexpr std::uint64_t kEntropyMinFreeBytes = 4096;

/// Per-IMSI detector state, exposed for audit. Everything is exact
/// integer arithmetic so fleet digests of these counters are
/// bit-stable.
struct AnomalyCounters {
  /// Volume histogram per transport protocol (index = sim::Protocol).
  std::array<std::uint64_t, sim::kProtocolCount> protocol_bytes{};
  /// Volume histogram per QCI (index = sim::qci_index).
  std::array<std::uint64_t, 3> qci_bytes{};
  /// Free-class (ICMP/DNS) traffic forwarded uncharged.
  std::uint64_t free_bytes = 0;
  std::uint64_t free_packets = 0;
  std::uint64_t free_small_packets = 0;
  /// Sum of per-packet entropy_millis over free-class packets.
  std::uint64_t entropy_millis_sum = 0;
  /// Zero-rated flow volume forwarded uncharged.
  std::uint64_t zero_rated_bytes = 0;
  /// Traffic carried on flows bound to a different IMSI.
  std::uint64_t replayed_bytes = 0;
  std::uint64_t replayed_packets = 0;
  /// Union of AnomalyFlag bits (sticky for the session's lifetime).
  std::uint32_t flags = 0;

  /// Volume that escaped charging entirely (the billing-bypass leak).
  [[nodiscard]] std::uint64_t uncharged_bytes() const {
    return free_bytes + zero_rated_bytes;
  }
  [[nodiscard]] std::uint32_t mean_free_entropy_millis() const {
    return free_packets == 0
               ? 0
               : static_cast<std::uint32_t>(entropy_millis_sum / free_packets);
  }

  [[nodiscard]] bool operator==(const AnomalyCounters&) const = default;
};

struct SpgwParams {
  /// Close the free-class gap: count ICMP/DNS like any other traffic.
  /// Off by default — the uncharged free class *is* the legacy gap the
  /// adversarial suite exercises.
  bool charge_free_classes = false;
  /// Charge uplink traffic to the flow's bound owner instead of the
  /// carrying IMSI. Turns a flow-identity replay from a bypass into a
  /// charge on the victim — which is why detection still flags the
  /// carrier either way.
  bool flow_based_charging = false;
};

class Spgw {
 public:
  /// Uplink traffic leaving the core toward the edge server.
  using ServerSinkFn = std::function<void(Imsi, const sim::Packet&)>;

  Spgw(sim::Simulator& sim, EnodeB& enodeb, SpgwParams params = {});

  void set_server_sink(ServerSinkFn sink) { server_sink_ = std::move(sink); }

  /// Creates the charging session for a subscriber (on attach).
  void create_session(Imsi imsi);
  /// Tears the session down (on detach). Usage survives for CDR export.
  void close_session(Imsi imsi);
  [[nodiscard]] bool has_session(Imsi imsi) const;

  /// Downlink entry point: edge server -> core. Counted here, then
  /// forwarded over S1 to the eNodeB.
  void downlink_submit(Imsi imsi, const sim::Packet& packet);

  /// Uplink exit point, wired as the eNodeB's uplink sink. Counted here,
  /// then handed to the edge server.
  void uplink_from_enodeb(Imsi imsi, const sim::Packet& packet);

  /// Cumulative charged volume for a subscriber.
  [[nodiscard]] std::uint64_t uplink_bytes(Imsi imsi) const;
  [[nodiscard]] std::uint64_t downlink_bytes(Imsi imsi) const;

  /// Marks a flow as zero-rated (sponsored / toll-free): forwarded
  /// uncharged, but volume-capped by the zero-rated detector.
  void set_zero_rated(FlowId flow);
  [[nodiscard]] bool is_zero_rated(FlowId flow) const;

  /// Binds a flow identity to its legitimate owner. Traffic carried by
  /// a different IMSI on a bound flow raises kAnomalyFlowReplay (and,
  /// under flow_based_charging, is charged to the owner).
  void bind_flow(FlowId flow, Imsi owner);

  /// Volume forwarded for `imsi` without being charged (free-class +
  /// zero-rated) — the subscriber's cumulative billing leak.
  [[nodiscard]] std::uint64_t uncharged_bytes(Imsi imsi) const;

  /// Detector state for a subscriber (zero counters if unknown).
  [[nodiscard]] AnomalyCounters anomaly(Imsi imsi) const;

  /// Generates the next CDR for `imsi`, covering usage since the last
  /// generate_cdr call (sequence numbers increase monotonically).
  [[nodiscard]] ChargingDataRecord generate_cdr(Imsi imsi);

  /// Packets discarded because the subscriber had no session.
  [[nodiscard]] std::uint64_t discarded_detached() const {
    return discarded_detached_;
  }

 private:
  struct Session {
    bool active = false;
    std::uint64_t ul_bytes = 0;
    std::uint64_t dl_bytes = 0;
    // Cycle bookkeeping for CDR generation.
    std::uint64_t ul_reported = 0;
    std::uint64_t dl_reported = 0;
    std::uint32_t next_sequence = 1000;  // OpenEPC starts near 1000
    SimTime first_usage = -1;
    SimTime last_usage = 0;
    // Uncharged (free-class + zero-rated) volume, with CDR watermarks.
    std::uint64_t uncharged_ul = 0;
    std::uint64_t uncharged_dl = 0;
    std::uint64_t uncharged_ul_reported = 0;
    std::uint64_t uncharged_dl_reported = 0;
    // Detector state. Window indices derive from packet arrival times,
    // so detection adds no simulator events.
    AnomalyCounters anomaly;
    std::int64_t window_index = -1;
    std::uint32_t window_free_small_packets = 0;
    std::uint64_t window_zero_rated_bytes = 0;
  };

  /// Updates the per-IMSI detectors for one forwarded packet.
  void note_packet(Session& session, const sim::Packet& packet,
                   bool free_class, bool zero_rated, bool replayed);
  /// The session charged for a (non-free) uplink packet: the carrier,
  /// or the bound flow owner under flow_based_charging.
  Session* charged_session(Session& carrier, const sim::Packet& packet);

  sim::Simulator& sim_;
  EnodeB& enodeb_;
  SpgwParams params_;
  sim::Link s1_link_;
  ServerSinkFn server_sink_;
  std::unordered_map<Imsi, Session> sessions_;
  std::unordered_set<FlowId> zero_rated_flows_;
  std::unordered_map<FlowId, Imsi> flow_owners_;
  std::uint64_t discarded_detached_ = 0;
};

}  // namespace tlc::epc

#include "epc/spgw.hpp"

namespace tlc::epc {
namespace {

constexpr std::uint32_t kGatewayAddress =
    (192u << 24) | (168u << 16) | (2u << 8) | 11u;
constexpr std::uint16_t kChargingId = 0;
/// S1-U link to the eNodeB (1 Gbps Ethernet in the paper's testbed).
constexpr sim::LinkParams kS1Link{1e9, 500 * kMicrosecond, 4u << 20};

}  // namespace

Spgw::Spgw(sim::Simulator& sim, EnodeB& enodeb, SpgwParams params)
    : sim_(sim), enodeb_(enodeb), params_(params), s1_link_(sim, kS1Link) {
  enodeb_.set_uplink_sink([this](Imsi imsi, const sim::Packet& packet) {
    uplink_from_enodeb(imsi, packet);
  });
  // Fixed S1-U sink: delivery events carry the IMSI as the u64 context,
  // keeping the per-packet capture inside the inline event buffer.
  s1_link_.set_deliver_sink(
      [this](const sim::Packet& delivered, std::uint64_t imsi) {
        enodeb_.downlink_submit(Imsi{imsi}, delivered);
      });
}

void Spgw::create_session(Imsi imsi) { sessions_[imsi].active = true; }

void Spgw::close_session(Imsi imsi) {
  auto it = sessions_.find(imsi);
  if (it != sessions_.end()) it->second.active = false;
}

bool Spgw::has_session(Imsi imsi) const {
  auto it = sessions_.find(imsi);
  return it != sessions_.end() && it->second.active;
}

void Spgw::note_packet(Session& session, const sim::Packet& packet,
                       bool free_class, bool zero_rated, bool replayed) {
  AnomalyCounters& a = session.anomaly;
  a.protocol_bytes[static_cast<std::size_t>(packet.protocol)] +=
      packet.size_bytes;
  a.qci_bytes[sim::qci_index(packet.qci)] += packet.size_bytes;

  // Lazy window roll: the index is a pure function of arrival time, so
  // the detectors never schedule events (and so cannot shift event
  // sequence numbers of adversary-free runs).
  const std::int64_t window = sim_.now() / kAnomalyWindow;
  if (window != session.window_index) {
    session.window_index = window;
    session.window_free_small_packets = 0;
    session.window_zero_rated_bytes = 0;
  }

  if (free_class) {
    a.free_bytes += packet.size_bytes;
    ++a.free_packets;
    a.entropy_millis_sum += packet.entropy_millis;
    if (packet.size_bytes <= kSmallPacketBytes) {
      ++a.free_small_packets;
      if (++session.window_free_small_packets > kFreeSmallPacketsPerWindow) {
        a.flags |= kAnomalySmallPacketFlood;
      }
    }
    if (a.free_bytes >= kEntropyMinFreeBytes &&
        a.mean_free_entropy_millis() >= kEntropyThresholdMillis) {
      a.flags |= kAnomalyHighEntropyFreeClass;
    }
  }
  if (zero_rated) {
    a.zero_rated_bytes += packet.size_bytes;
    session.window_zero_rated_bytes += packet.size_bytes;
    if (session.window_zero_rated_bytes > kZeroRatedBytesPerWindow) {
      a.flags |= kAnomalyZeroRatedVolume;
    }
  }
  if (replayed) {
    a.replayed_bytes += packet.size_bytes;
    ++a.replayed_packets;
    a.flags |= kAnomalyFlowReplay;
  }
}

Spgw::Session* Spgw::charged_session(Session& carrier,
                                     const sim::Packet& packet) {
  if (!params_.flow_based_charging) return &carrier;
  auto owner = flow_owners_.find(packet.flow_id);
  if (owner == flow_owners_.end()) return &carrier;
  auto session = sessions_.find(owner->second);
  if (session == sessions_.end()) return &carrier;
  return &session->second;
}

void Spgw::downlink_submit(Imsi imsi, const sim::Packet& packet) {
  auto it = sessions_.find(imsi);
  if (it == sessions_.end() || !it->second.active) {
    ++discarded_detached_;
    return;
  }
  Session& session = it->second;
  const bool free_class =
      sim::is_free_class(packet.protocol) && !params_.charge_free_classes;
  const bool zero_rated = is_zero_rated(packet.flow_id);
  note_packet(session, packet, free_class, zero_rated, /*replayed=*/false);
  if (free_class || zero_rated) {
    // Forwarded without counting — the Ghost-Traffic gap.
    session.uncharged_dl += packet.size_bytes;
  } else {
    // Charge first — this ordering is the root of the downlink gap.
    session.dl_bytes += packet.size_bytes;
    if (session.first_usage < 0) session.first_usage = sim_.now();
    session.last_usage = sim_.now();
  }

  s1_link_.send(packet, imsi.value);
}

void Spgw::uplink_from_enodeb(Imsi imsi, const sim::Packet& packet) {
  auto it = sessions_.find(imsi);
  if (it == sessions_.end() || !it->second.active) {
    ++discarded_detached_;
    return;
  }
  Session& session = it->second;
  const bool free_class =
      sim::is_free_class(packet.protocol) && !params_.charge_free_classes;
  const bool zero_rated = is_zero_rated(packet.flow_id);
  const auto owner = flow_owners_.find(packet.flow_id);
  const bool replayed = owner != flow_owners_.end() && owner->second != imsi;
  note_packet(session, packet, free_class, zero_rated, replayed);
  if (free_class || zero_rated) {
    session.uncharged_ul += packet.size_bytes;
  } else {
    Session& payer = *charged_session(session, packet);
    payer.ul_bytes += packet.size_bytes;
    if (payer.first_usage < 0) payer.first_usage = sim_.now();
    payer.last_usage = sim_.now();
  }

  if (server_sink_) server_sink_(imsi, packet);
}

void Spgw::set_zero_rated(FlowId flow) { zero_rated_flows_.insert(flow); }

bool Spgw::is_zero_rated(FlowId flow) const {
  return zero_rated_flows_.contains(flow);
}

void Spgw::bind_flow(FlowId flow, Imsi owner) {
  flow_owners_[flow] = owner;
}

std::uint64_t Spgw::uncharged_bytes(Imsi imsi) const {
  auto it = sessions_.find(imsi);
  return it == sessions_.end() ? 0 : it->second.anomaly.uncharged_bytes();
}

AnomalyCounters Spgw::anomaly(Imsi imsi) const {
  auto it = sessions_.find(imsi);
  return it == sessions_.end() ? AnomalyCounters{} : it->second.anomaly;
}

std::uint64_t Spgw::uplink_bytes(Imsi imsi) const {
  auto it = sessions_.find(imsi);
  return it == sessions_.end() ? 0 : it->second.ul_bytes;
}

std::uint64_t Spgw::downlink_bytes(Imsi imsi) const {
  auto it = sessions_.find(imsi);
  return it == sessions_.end() ? 0 : it->second.dl_bytes;
}

ChargingDataRecord Spgw::generate_cdr(Imsi imsi) {
  Session& session = sessions_[imsi];
  ChargingDataRecord cdr;
  cdr.served_imsi = imsi;
  cdr.gateway_address = kGatewayAddress;
  cdr.charging_id = kChargingId;
  cdr.sequence_number = session.next_sequence++;
  cdr.time_of_first_usage = session.first_usage < 0 ? 0 : session.first_usage;
  cdr.time_of_last_usage = session.last_usage;
  cdr.datavolume_uplink = session.ul_bytes - session.ul_reported;
  cdr.datavolume_downlink = session.dl_bytes - session.dl_reported;
  cdr.uncharged_uplink = session.uncharged_ul - session.uncharged_ul_reported;
  cdr.uncharged_downlink =
      session.uncharged_dl - session.uncharged_dl_reported;
  cdr.anomaly_flags = session.anomaly.flags;
  session.ul_reported = session.ul_bytes;
  session.dl_reported = session.dl_bytes;
  session.uncharged_ul_reported = session.uncharged_ul;
  session.uncharged_dl_reported = session.uncharged_dl;
  session.first_usage = -1;
  return cdr;
}

}  // namespace tlc::epc

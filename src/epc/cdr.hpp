// Charging Data Records, as produced by the 4G gateway (Trace 1 of the
// paper).
//
// Two encodings are provided:
//  * XML, matching OpenEPC's <chargingRecord> element byte-for-byte in
//    structure (Trace 1); and
//  * a 34-byte compact binary form — the "LTE CDR" row of the paper's
//    Fig 17 message-size table.
#pragma once

#include <cstdint>
#include <string>

#include "epc/ids.hpp"
#include "util/bytes.hpp"
#include "util/expected.hpp"
#include "util/simtime.hpp"

namespace tlc {
class ByteReader;
class ByteWriter;
}  // namespace tlc

namespace tlc::epc {

/// Per-IMSI anomaly flags raised by the gateway's bypass detectors
/// (DESIGN.md §13) and surfaced through CDRs into the OFCS. A flag is
/// sticky for the life of the charging session.
enum AnomalyFlag : std::uint32_t {
  /// Free-class (ICMP/DNS) small-packet rate exceeded the per-window
  /// limit — the signature of a tunnel smuggling payload in uncharged
  /// chatter.
  kAnomalySmallPacketFlood = 1u << 0,
  /// Mean payload entropy of free-class traffic crossed the threshold
  /// once enough bytes accumulated — diagnostics and resolver lookups
  /// are low-entropy; encrypted tunnel payload is not.
  kAnomalyHighEntropyFreeClass = 1u << 1,
  /// A zero-rated flow moved more volume per window than any sponsored
  /// service plausibly needs (QoS-class mislabeling abuse).
  kAnomalyZeroRatedVolume = 1u << 2,
  /// Traffic arrived on a flow bound to a different IMSI — a free-rider
  /// replaying another subscriber's flow identity.
  kAnomalyFlowReplay = 1u << 3,
};

struct ChargingDataRecord {
  Imsi served_imsi;
  std::uint32_t gateway_address = 0;  // IPv4, host byte order
  std::uint16_t charging_id = 0;
  std::uint32_t sequence_number = 0;
  SimTime time_of_first_usage = 0;
  SimTime time_of_last_usage = 0;
  std::uint64_t datavolume_uplink = 0;
  std::uint64_t datavolume_downlink = 0;

  /// Volume the gateway forwarded but did not charge (free-class and
  /// zero-rated traffic) plus the detector flag union — the audit
  /// fields of DESIGN.md §13. They ride the full-width journal codec
  /// and XML rendering only; the legacy 34-byte compact wire form
  /// predates them and stays pinned at 34 bytes (the fields decode as
  /// zero from it).
  std::uint64_t uncharged_uplink = 0;
  std::uint64_t uncharged_downlink = 0;
  std::uint32_t anomaly_flags = 0;

  [[nodiscard]] SimTime time_usage() const {
    return time_of_last_usage - time_of_first_usage;
  }

  /// Trace-1 style XML rendering.
  [[nodiscard]] std::string to_xml() const;

  /// Compact binary encoding: exactly 34 bytes (the legacy LTE CDR size
  /// reported in Fig 17).
  [[nodiscard]] Bytes encode_compact() const;
  [[nodiscard]] static Expected<ChargingDataRecord> decode_compact(
      const Bytes& data);

  [[nodiscard]] bool operator==(const ChargingDataRecord& o) const = default;
};

/// Full-width encoding: every field at its own width, audit fields
/// included. The OFCS journal and snapshot and the streaming-ingest
/// Merkle leaf all carry it.
inline constexpr std::size_t kFullCdrSize = 70;
void write_cdr(ByteWriter& w, const ChargingDataRecord& cdr);
/// Reads one full-width record; a short read latches on `r`.
[[nodiscard]] ChargingDataRecord read_cdr(ByteReader& r);

/// Renders "a.b.c.d" from a host-order IPv4 address.
[[nodiscard]] std::string format_ipv4(std::uint32_t address);

}  // namespace tlc::epc

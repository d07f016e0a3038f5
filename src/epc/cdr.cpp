#include "epc/cdr.hpp"

#include <sstream>

#include "util/serde.hpp"

namespace tlc::epc {
namespace {

/// CDR timestamps are carried as whole seconds (the gateway logs wall
/// seconds); volumes as u32 truncated at 4 GiB like legacy 32-bit
/// counters.
std::uint32_t seconds_u32(SimTime t) {
  return static_cast<std::uint32_t>(t / kSecond);
}

/// Wire version of the 34-byte compact encoding. Bump on any field
/// order/width change — tools/schemas/epc_cdr_compact.schema pins the
/// layout and `ctest -L static` fails on drift.
constexpr std::uint32_t kCdrCompactVersion = 1;
static_assert(kCdrCompactVersion >= 1);

/// Wire version of the full-width encoding; v2 appended the §13 audit
/// fields. tools/schemas/epc_cdr_full.schema pins the layout.
constexpr std::uint32_t kCdrFullVersion = 2;

}  // namespace

std::string format_ipv4(std::uint32_t address) {
  std::ostringstream out;
  out << ((address >> 24) & 0xff) << '.' << ((address >> 16) & 0xff) << '.'
      << ((address >> 8) & 0xff) << '.' << (address & 0xff);
  return out.str();
}

std::string ChargingDataRecord::to_xml() const {
  std::ostringstream out;
  out << "<chargingRecord>\n"
      << "  <servedIMSI>" << served_imsi.to_string() << "</servedIMSI>\n"
      << "  <gatewayAddress>" << format_ipv4(gateway_address)
      << "</gatewayAddress>\n"
      << "  <chargingID>" << charging_id << "</chargingID>\n"
      << "  <SequenceNumber>" << sequence_number << "</SequenceNumber>\n"
      << "  <timeOfFirstUsage>" << format_time(time_of_first_usage)
      << "</timeOfFirstUsage>\n"
      << "  <timeOfLastUsage>" << format_time(time_of_last_usage)
      << "</timeOfLastUsage>\n"
      << "  <timeUsage>" << (time_usage() / kSecond) << "</timeUsage>\n"
      << "  <datavolumeUplink>" << datavolume_uplink
      << "</datavolumeUplink>\n"
      << "  <datavolumeDownlink>" << datavolume_downlink
      << "</datavolumeDownlink>\n";
  // Audit extension (DESIGN.md §13): rendered only when the detectors
  // saw something, so legacy records keep their pinned byte-for-byte
  // shape.
  if (uncharged_uplink != 0 || uncharged_downlink != 0) {
    out << "  <unchargedUplink>" << uncharged_uplink
        << "</unchargedUplink>\n"
        << "  <unchargedDownlink>" << uncharged_downlink
        << "</unchargedDownlink>\n";
  }
  if (anomaly_flags != 0) {
    out << "  <anomalyFlags>" << anomaly_flags << "</anomalyFlags>\n";
  }
  out << "</chargingRecord>";
  return out.str();
}

// tlclint: codec(epc_cdr_compact, encode, version=kCdrCompactVersion)
Bytes ChargingDataRecord::encode_compact() const {
  // 8 (imsi) + 4 (gw) + 2 (charging id) + 4 (seq) + 4 (first) + 4 (last)
  // + 4 (ul) + 4 (dl) = 34 bytes.
  ByteWriter w;
  w.u64(served_imsi.value);
  w.u32(gateway_address);
  w.u16(charging_id);
  w.u32(sequence_number);
  w.u32(seconds_u32(time_of_first_usage));
  w.u32(seconds_u32(time_of_last_usage));
  w.u32(static_cast<std::uint32_t>(datavolume_uplink));
  w.u32(static_cast<std::uint32_t>(datavolume_downlink));
  return w.take();
}

// tlclint: codec(epc_cdr_compact, decode, version=kCdrCompactVersion)
Expected<ChargingDataRecord> ChargingDataRecord::decode_compact(
    const Bytes& data) {
  if (data.size() != 34) {
    return Err("cdr: compact encoding must be exactly 34 bytes");
  }
  // The exact size leaves no read below short.
  ByteReader r(data);
  ChargingDataRecord cdr;
  cdr.served_imsi.value = r.u64();
  cdr.gateway_address = r.u32();
  cdr.charging_id = r.u16();
  cdr.sequence_number = r.u32();
  cdr.time_of_first_usage = static_cast<SimTime>(r.u32()) * kSecond;
  cdr.time_of_last_usage = static_cast<SimTime>(r.u32()) * kSecond;
  cdr.datavolume_uplink = r.u32();
  cdr.datavolume_downlink = r.u32();
  return cdr;
}

// tlclint: codec(epc_cdr_full, encode, version=kCdrFullVersion)
void write_cdr(ByteWriter& w, const ChargingDataRecord& cdr) {
  w.u64(cdr.served_imsi.value);
  w.u32(cdr.gateway_address);
  w.u16(cdr.charging_id);
  w.u32(cdr.sequence_number);
  w.i64(cdr.time_of_first_usage);
  w.i64(cdr.time_of_last_usage);
  w.u64(cdr.datavolume_uplink);
  w.u64(cdr.datavolume_downlink);
  w.u64(cdr.uncharged_uplink);
  w.u64(cdr.uncharged_downlink);
  w.u32(cdr.anomaly_flags);
}

// tlclint: codec(epc_cdr_full, decode, version=kCdrFullVersion)
ChargingDataRecord read_cdr(ByteReader& r) {
  ChargingDataRecord cdr;
  cdr.served_imsi.value = r.u64();
  cdr.gateway_address = r.u32();
  cdr.charging_id = r.u16();
  cdr.sequence_number = r.u32();
  cdr.time_of_first_usage = r.i64();
  cdr.time_of_last_usage = r.i64();
  cdr.datavolume_uplink = r.u64();
  cdr.datavolume_downlink = r.u64();
  cdr.uncharged_uplink = r.u64();
  cdr.uncharged_downlink = r.u64();
  cdr.anomaly_flags = r.u32();
  return cdr;
}

}  // namespace tlc::epc

#include "epc/rrc.hpp"

#include "util/serde.hpp"

namespace tlc::epc {

// tlclint: codec(rrc_counter_check, encode)
Bytes RrcCounterCheck::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RrcMessageType::CounterCheck));
  w.u32(transaction_id);
  return w.take();
}

// tlclint: codec(rrc_counter_check, decode)
Expected<RrcCounterCheck> RrcCounterCheck::decode(const Bytes& wire) {
  ByteReader r(wire);
  if (r.u8() != static_cast<std::uint8_t>(RrcMessageType::CounterCheck)) {
    r.fail("rrc: not a CounterCheck");
  }
  const RrcCounterCheck check{r.u32()};
  if (!r.ok()) return r.error_or("rrc: truncated");
  if (!r.exhausted()) return Err("rrc: trailing bytes");
  return check;
}

// tlclint: codec(rrc_counter_check_response, encode)
Bytes RrcCounterCheckResponse::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RrcMessageType::CounterCheckResponse));
  w.u32(transaction_id);
  w.u64(uplink_bytes);
  w.u64(downlink_bytes);
  return w.take();
}

// tlclint: codec(rrc_counter_check_response, decode)
Expected<RrcCounterCheckResponse> RrcCounterCheckResponse::decode(
    const Bytes& wire) {
  ByteReader r(wire);
  if (r.u8() !=
      static_cast<std::uint8_t>(RrcMessageType::CounterCheckResponse)) {
    r.fail("rrc: not a CounterCheckResponse");
  }
  RrcCounterCheckResponse response;
  response.transaction_id = r.u32();
  response.uplink_bytes = r.u64();
  response.downlink_bytes = r.u64();
  if (!r.ok()) return r.error_or("rrc: truncated");
  if (!r.exhausted()) return Err("rrc: trailing bytes");
  return response;
}

}  // namespace tlc::epc

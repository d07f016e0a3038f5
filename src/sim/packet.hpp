// Packet model.
//
// The charging problem only depends on packet identity, size, direction
// and QoS class — payload contents never matter — so packets are a small
// value type and the simulator moves them by copy. The adversarial
// suite (DESIGN.md §13) adds two shallow-classifier facts a gateway
// can read without touching payload bytes: the transport protocol and
// a payload-entropy estimate (what a DPI tap would compute; tunnels
// carrying compressed/encrypted data score high, chatty plaintext
// protocols score low).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simtime.hpp"

namespace tlc::sim {

/// Direction relative to the device: uplink = device -> server.
enum class Direction : std::uint8_t { Uplink, Downlink };

/// Transport protocol as the gateway's shallow classifier labels it.
/// ICMP and DNS form the traditionally *uncharged* class — operators
/// forward diagnostics and resolver traffic for free, which is exactly
/// the hole Ghost-Traffic-style tunnels ride through.
enum class Protocol : std::uint8_t {
  kUdp = 0,
  kTcp = 1,
  kIcmp = 2,
  kDns = 3,
};

inline constexpr std::size_t kProtocolCount = 4;

[[nodiscard]] constexpr const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kUdp:
      return "UDP";
    case Protocol::kTcp:
      return "TCP";
    case Protocol::kIcmp:
      return "ICMP";
    case Protocol::kDns:
      return "DNS";
  }
  return "UDP";
}

/// Protocols the legacy charging function forwards without counting.
[[nodiscard]] constexpr bool is_free_class(Protocol p) {
  return p == Protocol::kIcmp || p == Protocol::kDns;
}

[[nodiscard]] constexpr const char* direction_name(Direction d) {
  return d == Direction::Uplink ? "UL" : "DL";
}

/// LTE QoS Class Identifier. The paper's experiments use QCI 3/7
/// (gaming, 50/100 ms delay budget) and QCI 9 (best-effort background).
enum class Qci : std::uint8_t {
  kQci3 = 3,  // real-time gaming, GBR, 50 ms budget
  kQci7 = 7,  // voice / interactive gaming, non-GBR, 100 ms budget
  kQci9 = 9,  // default best-effort
};

/// Strict-priority rank: lower value served first. 3GPP TS 23.203 gives
/// QCI 3 priority 3, QCI 7 priority 7, QCI 9 priority 9.
[[nodiscard]] constexpr int qci_priority(Qci qci) {
  return static_cast<int>(qci);
}

/// Per-QCI packet delay budget from TS 23.203 Table 6.1.7.
[[nodiscard]] constexpr SimTime qci_delay_budget(Qci qci) {
  switch (qci) {
    case Qci::kQci3:
      return 50 * kMillisecond;
    case Qci::kQci7:
      return 100 * kMillisecond;
    case Qci::kQci9:
      return 300 * kMillisecond;
  }
  return 300 * kMillisecond;
}

/// Per-QCI slot for arrays indexed by class: QCI 3 / 7 / 9 -> 0 / 1 / 2
/// (the eNodeB's queues, the gateway's per-QCI volume histogram).
[[nodiscard]] constexpr std::size_t qci_index(Qci qci) {
  switch (qci) {
    case Qci::kQci3:
      return 0;
    case Qci::kQci7:
      return 1;
    case Qci::kQci9:
      return 2;
  }
  return 2;
}

struct Packet {
  std::uint64_t id = 0;       // unique per simulation
  std::uint32_t flow_id = 0;  // workload/bearer flow
  std::uint32_t size_bytes = 0;
  Direction direction = Direction::Uplink;
  Qci qci = Qci::kQci9;
  Protocol protocol = Protocol::kUdp;
  /// Payload-entropy estimate in thousandths (0 = constant bytes,
  /// 1000 = indistinguishable from random). Kept integral so every
  /// downstream aggregate stays in exact arithmetic.
  std::uint16_t entropy_millis = 0;
  SimTime created_at = 0;
};

}  // namespace tlc::sim

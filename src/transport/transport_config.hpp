// Transport-layer configuration shared by the stop-and-wait and
// network-coded settlement paths (§8, §17).
//
// Split out of lossy_settlement.hpp so the coded session (the first
// rung of LossySettler's ladder) can see the config without an include
// cycle. `TransportConfig::coding` selects the
// path; with `Coding::Off` every consumer behaves byte-identically to
// the pre-coding transport — the coded knobs are never read and no
// coded seed stream is ever drawn.
#pragma once

#include <cstdint>

#include "transport/faulty_channel.hpp"
#include "transport/retry.hpp"

namespace tlc::transport {

/// Which transfer discipline carries the sealed settlement batch.
enum class Coding : std::uint8_t {
  Off = 0,   // stop-and-wait per message (PR 2 behaviour)
  Rlnc = 1,  // GF(2^8) random linear network coding (§17)
};

/// Knobs for the RLNC coded session. Defaults are tuned so the
/// zero-loss coded path sends exactly one systematic pass plus one
/// ACK — no redundancy tax when the link is clean.
struct CodedConfig {
  /// Chunks per generation (coefficient-vector length).
  std::uint16_t generation_size = 32;
  /// Bytes per chunk; the sealed batch is zero-padded to a whole
  /// number of chunks.
  std::uint16_t chunk_bytes = 64;
  /// Ticks the sender waits for the end-of-generation ACK before
  /// topping the generation up with more coded packets.
  std::uint64_t ack_timeout_ticks = 32;
  /// Per-generation packet budget, as a multiple of the generation
  /// size. When (packets sent) > generation_size * max_overhead the
  /// coded transfer gives up and the group falls back one rung on the
  /// degradation ladder (stop-and-wait, then legacy CDR).
  double max_overhead = 8.0;
  /// Hard per-group tick budget for the coded transfer.
  std::uint64_t max_ticks = 1 << 20;
};

/// Census of the coded path. Sums across groups/shards in merge
/// order; all-zero whenever coding is off.
struct CodedCounters {
  std::uint64_t generations = 0;         // generations started
  std::uint64_t generations_decoded = 0; // reached full rank
  std::uint64_t packets_sent = 0;        // coded + systematic submissions
  std::uint64_t packets_delivered = 0;   // survived the channel, CRC ok
  std::uint64_t packets_dependent = 0;   // delivered but not innovative
  std::uint64_t packets_corrupt = 0;     // CRC/truncation rejects
  std::uint64_t acks_sent = 0;
  std::uint64_t cycles_coded = 0;        // receipts carried by RLNC
  std::uint64_t fallbacks = 0;           // groups that left the coded rung
  std::uint64_t bytes_on_wire = 0;       // packet + ack wire bytes submitted

  CodedCounters& operator+=(const CodedCounters& other) {
    generations += other.generations;
    generations_decoded += other.generations_decoded;
    packets_sent += other.packets_sent;
    packets_delivered += other.packets_delivered;
    packets_dependent += other.packets_dependent;
    packets_corrupt += other.packets_corrupt;
    acks_sent += other.acks_sent;
    cycles_coded += other.cycles_coded;
    fallbacks += other.fallbacks;
    bytes_on_wire += other.bytes_on_wire;
    return *this;
  }
  friend bool operator==(const CodedCounters&, const CodedCounters&) = default;
};

/// Everything that shapes the lossy transport between the parties.
struct TransportConfig {
  FaultProfile to_edge;
  FaultProfile to_operator;
  RetryPolicy retry;
  /// Root seed for fault schedules and retry jitter (independent of
  /// the protocol-level rng_salt).
  std::uint64_t seed = 0x10557;
  /// Transfer discipline for sealed settlement batches.
  Coding coding = Coding::Off;
  /// RLNC knobs (read only when coding == Coding::Rlnc).
  CodedConfig coded;
};

}  // namespace tlc::transport

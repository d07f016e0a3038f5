// Deterministic fault-injecting message channel (§8: fault model).
//
// Sits between the edge and operator `ProtocolEndpoint`s and subjects
// every wire message to configurable, per-direction drop, duplication,
// reordering, delay, truncation and byte corruption. The fault schedule
// of the n-th message of cycle c on a direction is a pure function of
// (seed, direction, c, n) — derived through sim::stream_seed, never a
// shared RNG sequence or wall clock — so two runs with the same seed
// inject byte-identical faults regardless of call interleaving or
// thread count, and how one cycle ends never shifts the faults of the
// next. That is what lets whole fleets run over lossy transport
// while preserving the bit-identity-across-thread-counts contract.
//
// Time is virtual: the caller stamps send/deliver calls with its own
// monotonic tick counter. With an all-zero profile the channel is a
// 1-tick FIFO pipe: in-process settlement (core::settle_in_process)
// runs over one.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace tlc::transport {

/// Per-direction fault rates and delay jitter. All probabilities are
/// independent per message (duplication composes with corruption etc.).
/// Every copy takes one tick to propagate, plus a 12-tick hold when
/// reordered.
struct FaultProfile {
  double drop = 0.0;       // message vanishes
  double duplicate = 0.0;  // message delivered twice
  double reorder = 0.0;    // copy held back so later sends overtake it
  double corrupt = 0.0;    // 1-3 random bytes XORed
  double truncate = 0.0;   // tail cut off
  std::uint64_t delay_jitter_ticks = 0;  // uniform extra [0, jitter]

  [[nodiscard]] bool any() const {
    return drop > 0.0 || duplicate > 0.0 || reorder > 0.0 || corrupt > 0.0 ||
           truncate > 0.0 || delay_jitter_ticks > 0;
  }
};

class FaultyChannel {
 public:
  enum class Dir : std::uint8_t { ToEdge = 0, ToOperator = 1 };

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t truncated = 0;
  };

  FaultyChannel(FaultProfile to_edge, FaultProfile to_operator,
                std::uint64_t seed);

  /// Submits a message at virtual time `now`; the fault schedule of the
  /// n-th submission of the current cycle per direction depends only on
  /// (seed, dir, cycle, n).
  void send(Dir dir, const Bytes& wire, std::uint64_t now);

  /// All messages due at or before `now`, in (due tick, submission
  /// order) order; removes them from flight.
  [[nodiscard]] std::vector<Bytes> deliver_due(Dir dir, std::uint64_t now);

  /// Earliest due tick over both directions (kIdle when nothing flies).
  [[nodiscard]] std::uint64_t earliest_due() const;
  [[nodiscard]] std::size_t in_flight() const;

  /// Starts settlement cycle `cycle`: discards everything still in
  /// flight and restarts both lanes' message counters. Each cycle is a
  /// fresh transport association, so a delayed copy from a finished
  /// cycle never leaks into the next one, and message n of `cycle`
  /// draws its faults from stream (cycle << 32) | n. A new channel is
  /// at cycle 0.
  void begin_cycle(std::uint32_t cycle);

  [[nodiscard]] const Stats& stats(Dir dir) const {
    return lanes_[static_cast<std::size_t>(dir)].stats;
  }

  static constexpr std::uint64_t kIdle = ~0ull;

 private:
  struct InFlight {
    std::uint64_t due = 0;
    std::uint64_t seq = 0;  // tie-break: submission order
    Bytes wire;
  };
  struct Lane {
    FaultProfile profile;
    std::uint32_t next_msg = 0;  // message index within the cycle
    std::uint64_t next_seq = 0;
    std::vector<InFlight> queue;
    Stats stats;
  };

  Lane& lane(Dir dir) { return lanes_[static_cast<std::size_t>(dir)]; }

  std::uint64_t seed_;
  std::uint32_t cycle_ = 0;
  Lane lanes_[2];
};

}  // namespace tlc::transport

// Traffic source framework.
//
// A source emits packets into the testbed on the simulator's clock
// through a caller-supplied sink (the testbed routes uplink packets
// into the device app and downlink packets into the edge server). All
// sources are seeded and deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tlc::workloads {

/// Payload MTU the video sources packetize frames at (RTP and GVSP).
inline constexpr std::uint32_t kMtu = 1400;

class TrafficSource {
 public:
  using EmitFn = std::function<void(const sim::Packet&)>;

  virtual ~TrafficSource() = default;

  /// Begins emitting at time `at`; runs until stop().
  virtual void start(SimTime at) = 0;
  virtual void stop() = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] std::uint64_t emitted_packets() const { return packets_; }
  [[nodiscard]] std::uint64_t emitted_bytes() const { return bytes_; }

 protected:
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Shared plumbing for concrete sources: flow identity, QoS class,
/// per-source RNG and packet-id allocation.
class PacketSource : public TrafficSource {
 public:
  PacketSource(sim::Simulator& sim, EmitFn emit, std::uint32_t flow_id,
               sim::Direction direction, sim::Qci qci, Rng rng);

  void stop() override { running_ = false; }

 protected:
  /// Emits one packet of `size` bytes now.
  void emit(std::uint32_t size_bytes);

  /// Emits `total` bytes as kMtu-sized packets plus a remainder (how a
  /// video frame leaves the encoder). Packets are paced `spacing`
  /// apart: the sender NIC/encoder drains the frame at line rate rather
  /// than in zero time, which matters for drop-tail queues downstream.
  /// Implemented as a single self-rescheduling drain event per frame
  /// rather than one pre-scheduled event per chunk, so the event heap
  /// holds one entry per in-flight frame instead of one per packet.
  void emit_frame(std::uint32_t total_bytes,
                  SimTime spacing = 120 * kMicrosecond);

  sim::Simulator& sim_;
  EmitFn emit_fn_;
  std::uint32_t flow_id_;
  sim::Direction direction_;
  sim::Qci qci_;
  Rng rng_;
  bool running_ = false;
  /// Shallow-classifier facts stamped onto every emitted packet.
  /// Defaults (UDP, zero entropy) keep every pre-existing source
  /// byte-identical; the adversarial generators override them per
  /// packet before calling emit().
  sim::Protocol protocol_ = sim::Protocol::kUdp;
  std::uint16_t entropy_millis_ = 0;

 private:
  /// Schedules the next chunk of an in-flight frame `spacing` from now.
  /// Each chunk slot consumes its bytes even while the source is
  /// stopped (emission is skipped, pacing continues), matching the
  /// pre-scheduled per-chunk behavior for stop/restart cycles.
  void schedule_frame_drain(std::uint32_t remaining_bytes, SimTime spacing);

  // Per-instance, namespaced by flow: packet ids stay unique within a
  // simulation without a process-global counter (which would be a data
  // race — and a determinism leak — across concurrently running
  // simulator shards).
  std::uint64_t next_packet_id_;
};

}  // namespace tlc::workloads

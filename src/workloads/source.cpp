#include "workloads/source.hpp"

namespace tlc::workloads {

PacketSource::PacketSource(sim::Simulator& sim, EmitFn emit,
                           std::uint32_t flow_id, sim::Direction direction,
                           sim::Qci qci, Rng rng)
    : sim_(sim),
      emit_fn_(std::move(emit)),
      flow_id_(flow_id),
      direction_(direction),
      qci_(qci),
      rng_(rng),
      next_packet_id_((static_cast<std::uint64_t>(flow_id) << 32) | 1u) {}

void PacketSource::emit(std::uint32_t size_bytes) {
  if (size_bytes == 0) return;
  sim::Packet packet;
  packet.id = next_packet_id_++;
  packet.flow_id = flow_id_;
  packet.size_bytes = size_bytes;
  packet.direction = direction_;
  packet.qci = qci_;
  packet.protocol = protocol_;
  packet.entropy_millis = entropy_millis_;
  packet.created_at = sim_.now();
  ++packets_;
  bytes_ += size_bytes;
  emit_fn_(packet);
}

void PacketSource::emit_frame(std::uint32_t total_bytes, SimTime spacing) {
  if (total_bytes == 0) return;
  const std::uint32_t head = std::min(total_bytes, kMtu);
  emit(head);  // head of the frame leaves immediately
  schedule_frame_drain(total_bytes - head, spacing);
}

void PacketSource::schedule_frame_drain(std::uint32_t remaining_bytes,
                                        SimTime spacing) {
  if (remaining_bytes == 0) return;
  // [this, remaining_bytes, spacing] is 24 bytes: inline, trivial.
  sim_.schedule_after(spacing, [this, remaining_bytes, spacing] {
    const std::uint32_t chunk = std::min(remaining_bytes, kMtu);
    if (running_) emit(chunk);
    schedule_frame_drain(remaining_bytes - chunk, spacing);
  });
}

}  // namespace tlc::workloads

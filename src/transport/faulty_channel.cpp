#include "transport/faulty_channel.hpp"

#include <algorithm>

#include "sim/rng_stream.hpp"

namespace tlc::transport {
namespace {

/// Minimum propagation delay of every copy.
constexpr std::uint64_t kBaseDelayTicks = 1;
/// Extra hold of a reordered copy.
constexpr std::uint64_t kReorderHoldTicks = 12;

// Fixed draw order per message — drop, duplicate, then per-copy
// (corrupt, truncate, delay jitter, reorder) — so a schedule never
// shifts when an unrelated rate changes from zero.
void mutate_copy(const FaultProfile& profile, Rng& rng, Bytes& wire,
                 std::uint64_t now, std::uint64_t& due,
                 FaultyChannel::Stats& stats) {
  if (rng.chance(profile.corrupt) && !wire.empty()) {
    const std::uint64_t flips = 1 + rng.uniform_u64(3);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(rng.uniform_u64(wire.size()));
      wire[at] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    }
    ++stats.corrupted;
  }
  if (rng.chance(profile.truncate) && wire.size() > 1) {
    wire.resize(static_cast<std::size_t>(rng.uniform_u64(wire.size())));
    ++stats.truncated;
  }
  due = now + kBaseDelayTicks;
  if (profile.delay_jitter_ticks > 0) {
    due += rng.uniform_u64(profile.delay_jitter_ticks + 1);
  }
  if (rng.chance(profile.reorder)) {
    due += kReorderHoldTicks;
    ++stats.reordered;
  }
}

}  // namespace

FaultyChannel::FaultyChannel(FaultProfile to_edge, FaultProfile to_operator,
                             std::uint64_t seed)
    : seed_(seed) {
  lanes_[static_cast<std::size_t>(Dir::ToEdge)].profile = to_edge;
  lanes_[static_cast<std::size_t>(Dir::ToOperator)].profile = to_operator;
}

void FaultyChannel::send(Dir dir, const Bytes& wire, std::uint64_t now) {
  Lane& l = lane(dir);
  ++l.stats.submitted;
  // The whole schedule of message n comes from its own stream: pure in
  // (seed, dir, cycle, n), untouched by other messages, the other lane
  // or earlier cycles.
  const auto dir_stream = static_cast<std::uint64_t>(dir);
  const std::uint64_t msg_stream =
      (std::uint64_t{cycle_} << 32) | l.next_msg++;
  Rng rng = sim::stream_rng(sim::stream_seed(seed_, dir_stream), msg_stream);
  if (rng.chance(l.profile.drop)) {
    ++l.stats.dropped;
    return;
  }
  const int copies = rng.chance(l.profile.duplicate) ? 2 : 1;
  if (copies == 2) ++l.stats.duplicated;
  for (int c = 0; c < copies; ++c) {
    InFlight flight;
    flight.wire = wire;
    mutate_copy(l.profile, rng, flight.wire, now, flight.due, l.stats);
    flight.seq = l.next_seq++;
    l.queue.push_back(std::move(flight));
  }
}

std::vector<Bytes> FaultyChannel::deliver_due(Dir dir, std::uint64_t now) {
  Lane& l = lane(dir);
  std::vector<InFlight> due;
  auto keep = l.queue.begin();
  for (auto it = l.queue.begin(); it != l.queue.end(); ++it) {
    if (it->due <= now) {
      due.push_back(std::move(*it));
    } else {
      if (keep != it) *keep = std::move(*it);  // guard the self-move
      ++keep;
    }
  }
  l.queue.erase(keep, l.queue.end());
  std::sort(due.begin(), due.end(), [](const InFlight& a, const InFlight& b) {
    return a.due != b.due ? a.due < b.due : a.seq < b.seq;
  });
  std::vector<Bytes> out;
  out.reserve(due.size());
  for (auto& flight : due) out.push_back(std::move(flight.wire));
  l.stats.delivered += out.size();
  return out;
}

std::uint64_t FaultyChannel::earliest_due() const {
  std::uint64_t earliest = kIdle;
  for (const Lane& l : lanes_) {
    for (const InFlight& flight : l.queue) {
      earliest = std::min(earliest, flight.due);
    }
  }
  return earliest;
}

std::size_t FaultyChannel::in_flight() const {
  return lanes_[0].queue.size() + lanes_[1].queue.size();
}

void FaultyChannel::begin_cycle(std::uint32_t cycle) {
  cycle_ = cycle;
  for (Lane& l : lanes_) {
    l.queue.clear();
    l.next_msg = 0;
  }
}

}  // namespace tlc::transport

#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace tlc::sim {

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ == kNoSlot) {
    // Grow by one block; block addresses are stable so slots can hold
    // live EventFns across growth. Slot indices must fit the key's
    // low kSlotBits.
    if (slot_count_ + kSlotsPerBlock > kMaxSlots) {
      throw std::length_error("sim::Simulator: more than 2^24 event slots");
    }
    auto block = std::make_unique<Slot[]>(kSlotsPerBlock);
    const std::uint32_t base = slot_count_;
    for (std::size_t i = kSlotsPerBlock; i > 0; --i) {
      block[i - 1].next_free = free_head_;
      free_head_ = base + static_cast<std::uint32_t>(i - 1);
    }
    blocks_.push_back(std::move(block));
    slot_count_ += static_cast<std::uint32_t>(kSlotsPerBlock);
  }
  const std::uint32_t index = free_head_;
  free_head_ = slot_at(index).next_free;
  return index;
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slot_at(index);
  ++slot.generation;  // retire outstanding ids for this incarnation
  slot.next_free = free_head_;
  free_head_ = index;
}

void Simulator::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!entry_less(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulator::heap_pop() {
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t child = first + 1; child < last; ++child) {
      if (entry_less(heap_[child], heap_[best])) best = child;
    }
    if (!entry_less(heap_[best], moved)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moved;
}

void Simulator::refill_near() {
  // The heap is empty: open the window at the earliest far entry and
  // move every far entry inside it across. Keys are not rewritten, so
  // the (at, seq) order is unchanged. Times are >= 0, so `at - first`
  // cannot overflow; near_end_ saturates at the end of time.
  SimTime first = far_.front().at;
  for (const HeapEntry& entry : far_) first = std::min(first, entry.at);
  constexpr SimTime kEnd = std::numeric_limits<SimTime>::max();
  near_end_ = first > kEnd - kNearWindow ? kEnd : first + kNearWindow;
  std::size_t kept = 0;
  for (const HeapEntry& entry : far_) {
    if (entry.at - first >= kNearWindow) {
      far_[kept++] = entry;
    } else if (slot_at(slot_of(entry)).armed) {
      heap_.push_back(entry);
    } else {
      release_slot(slot_of(entry));  // cancelled while far
    }
  }
  far_.resize(kept);
  // A sorted array is a valid min-heap.
  std::sort(heap_.begin(), heap_.end(), entry_less);
}

std::uint64_t Simulator::schedule_at(SimTime at, Action action) {
  const std::uint32_t index = acquire_slot();
  Slot& slot = slot_at(index);
  slot.action = std::move(action);
  slot.armed = true;
  assert(next_seq_ < kMaxSeq);
  const HeapEntry entry{std::max(at, now_), next_seq_++ << kSlotBits | index};
  if (entry.at < near_end_) {
    heap_push(entry);
  } else {
    far_.push_back(entry);
  }
  ++live_;
  return (static_cast<std::uint64_t>(slot.generation) << 32) |
         (static_cast<std::uint64_t>(index) + 1);
}

std::uint64_t Simulator::schedule_after(SimTime delay, Action action) {
  return schedule_at(now_ + std::max<SimTime>(delay, 0), std::move(action));
}

void Simulator::cancel(std::uint64_t id) {
  const auto index_plus_one = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (index_plus_one == 0 || index_plus_one > slot_count_) return;
  Slot& slot = slot_at(index_plus_one - 1);
  if (!slot.armed || slot.generation != static_cast<std::uint32_t>(id >> 32)) {
    return;  // already fired or firing, cancelled, or a recycled slot
  }
  slot.armed = false;
  slot.action.reset();
  --live_;
  // The slot stays pinned until its entry pops; release happens there.
}

bool Simulator::live_head() {
  for (;;) {
    if (heap_.empty()) {
      if (far_.empty()) return false;
      refill_near();
      continue;
    }
    const std::uint32_t index = slot_of(heap_.front());
    if (slot_at(index).armed) return true;
    heap_pop();
    release_slot(index);  // cancelled: retire the pinned slot
  }
}

void Simulator::step() {
  const HeapEntry entry = heap_.front();
  heap_pop();
  const std::uint32_t index = slot_of(entry);
  Slot& slot = slot_at(index);
  // Run the action where it lives. The slot is disarmed but pinned
  // until the action returns, so a cancel() of this very event is a
  // no-op and nothing the action schedules can take its slot.
  slot.armed = false;
  --live_;
  now_ = entry.at;
  ++executed_;
  slot.action();
  slot.action.reset();
  release_slot(index);
}

void Simulator::run_until(SimTime horizon) {
  while (live_head() && heap_.front().at <= horizon) step();
  now_ = std::max(now_, horizon);
}

void Simulator::run() {
  while (live_head()) step();
}

}  // namespace tlc::sim

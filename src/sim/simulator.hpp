// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events at the same timestamp fire in
// scheduling order. Everything in the emulated testbed — workload packet
// arrivals, link serialization, RRC timers, charging-cycle boundaries —
// is an event on this queue.
//
// The hot path is allocation-free: callables live in slab-allocated
// slots (EventFn keeps captures ≤48 bytes inline), and slots recycle
// through a free list. The pending set is split at `near_end_`: events
// before it sit in a 4-ary min-heap of 16-byte POD entries `{at, key}`
// with `key = seq << 24 | slot`; events at or after it wait unsorted in
// `far_`. When the heap drains, the next window of far entries moves
// into it. Charging-cycle boundary snapshots are scheduled for the whole
// run at t = 0, so the far list keeps them out of every packet event's
// sift. A slot stays pinned until its entry pops and its action returns
// — cancel() only disarms it — so each entry maps to exactly one slot
// incarnation and generations are needed only to reject stale ids.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_fn.hpp"
#include "util/simtime.hpp"

namespace tlc::sim {

class Simulator {
 public:
  using Action = EventFn;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `at` (clamped to now()).
  /// Returns an id usable with cancel().
  std::uint64_t schedule_at(SimTime at, Action action);

  /// Schedules `action` after a relative delay.
  std::uint64_t schedule_after(SimTime delay, Action action);

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  void cancel(std::uint64_t id);

  /// Runs events until the queue is empty or the horizon is passed.
  /// now() advances to the horizon even if later events remain pending.
  void run_until(SimTime horizon);

  /// Runs until the queue drains completely.
  void run();

  /// Pending (non-cancelled) event count.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Total events executed so far (for harness diagnostics).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Width of the heap's time window; later events wait in the far list.
  static constexpr SimTime kNearWindow = kSecond;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::size_t kSlotsPerBlock = 512;
  static constexpr unsigned kSlotBits = 24;
  // 2^24 slots: ~10^4x the ~10^3 events a shard holds pending today.
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kSlotMask = kMaxSlots - 1;
  // 2^40 seqs: ~10^5x the <=10^7 events a shard runs today.
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);

  struct Slot {
    EventFn action;
    std::uint32_t generation = 0;  // bumped on release; validates cancel(id)
    std::uint32_t next_free = kNoSlot;
    bool armed = false;
  };

  // POD queue entry; key = seq << kSlotBits | slot. Seqs are unique, so
  // (at, key) orders exactly as (at, seq): FIFO at equal timestamps.
  struct HeapEntry {
    SimTime at;
    std::uint64_t key;
  };
  static_assert(sizeof(HeapEntry) == 16);

  static bool entry_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;
  }
  static std::uint32_t slot_of(const HeapEntry& entry) {
    return static_cast<std::uint32_t>(entry.key & kSlotMask);
  }

  Slot& slot_at(std::uint32_t index) {
    return blocks_[index / kSlotsPerBlock][index % kSlotsPerBlock];
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  void heap_push(HeapEntry entry);
  void heap_pop();
  void refill_near();
  bool live_head();  // drops cancelled heads; false if nothing is pending
  void step();       // pops the live head and runs it in its slot

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;  // armed (schedulable) events; cancel drops this
  // Invariant: every heap_ entry is before near_end_, every far_ entry
  // at or after it.
  SimTime near_end_ = kNearWindow;
  std::vector<HeapEntry> heap_;
  std::vector<HeapEntry> far_;
  std::vector<std::unique_ptr<Slot[]>> blocks_;  // stable slot addresses
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace tlc::sim

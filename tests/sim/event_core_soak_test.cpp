// Event-core property soak: the slab/4-ary-heap simulator is run
// differentially against a transliteration of the original
// std::function + priority_queue engine over hundreds of randomized
// schedule/cancel/reschedule/run_until scripts. Every observable —
// firing order (same-timestamp FIFO included), now(), pending(),
// executed(), cancel-after-fire no-ops, horizon clamping — must match op
// for op. A third script shape spans dozens of the simulator's near
// windows, and a shadow of the near/far split in the reference checks
// that it reaches every boundary case. Runs under the asan preset via
// the `sim` label.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace tlc::sim {
namespace {

/// How often a replay reached each boundary case of the simulator's
/// near/far split, as seen by the reference's shadow of that split.
struct WindowCoverage {
  std::uint64_t at_bound = 0;        // scheduled exactly at near_end_
  std::uint64_t below_bound = 0;     // scheduled at near_end_ - 1
  std::uint64_t far_cancels = 0;     // cancelled while still far
  std::uint64_t far_chains = 0;      // scheduled far from inside an event
  std::uint64_t self_cancels = 0;    // an event cancelled itself
  std::uint64_t split_horizons = 0;  // run_until stopped between windows
  std::uint64_t refills = 0;

  void add(const WindowCoverage& o) {
    at_bound += o.at_bound;
    below_bound += o.below_bound;
    far_cancels += o.far_cancels;
    far_chains += o.far_chains;
    self_cancels += o.self_cancels;
    split_horizons += o.split_horizons;
    refills += o.refills;
  }
};

// Reference implementation: the pre-slab engine, kept byte-for-byte in
// behavior (map-of-actions, cancel == erase, lazy head discard). It also
// shadows Simulator's near/far split for coverage only: the simulator
// refills its heap when no entry before near_end_ is left, which is when
// the queue's earliest entry, cancelled or not, is at or past near_end_.
class RefSimulator {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] SimTime now() const { return now_; }

  std::uint64_t schedule_at(SimTime at, Action action) {
    const std::uint64_t id = next_id_++;
    at = std::max(at, now_);
    if (at == near_end_) ++coverage_.at_bound;
    if (at == near_end_ - 1) ++coverage_.below_bound;
    if (firing_ != 0 && at >= near_end_) ++coverage_.far_chains;
    queue_.push(Event{at, next_seq_++, id});
    actions_.emplace(id, std::move(action));
    at_of_.emplace(id, at);
    return id;
  }

  std::uint64_t schedule_after(SimTime delay, Action action) {
    return schedule_at(now_ + std::max<SimTime>(delay, 0), std::move(action));
  }

  void cancel(std::uint64_t id) {
    if (firing_ != 0 && id == firing_) ++coverage_.self_cancels;
    if (actions_.erase(id) != 0 && at_of_.at(id) >= near_end_) {
      ++coverage_.far_cancels;
    }
  }

  void run_until(SimTime horizon) {
    const std::uint64_t refills = coverage_.refills;
    for (;;) {
      while (!queue_.empty()) {
        shadow_refill();
        if (actions_.find(queue_.top().id) != actions_.end()) break;
        queue_.pop();
      }
      if (queue_.empty() || queue_.top().at > horizon) break;
      step();
    }
    if (!queue_.empty() && coverage_.refills != refills) {
      ++coverage_.split_horizons;
    }
    now_ = std::max(now_, horizon);
  }

  void run() {
    while (step()) {
    }
  }

  [[nodiscard]] std::size_t pending() const { return actions_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] const WindowCoverage& coverage() const { return coverage_; }

 private:
  struct Event {
    SimTime at = 0;
    std::uint64_t seq = 0;
    std::uint64_t id = 0;
    bool operator<(const Event& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  void shadow_refill() {
    const SimTime first = queue_.top().at;
    if (first < near_end_) return;
    near_end_ = first + Simulator::kNearWindow;
    ++coverage_.refills;
  }

  bool step() {
    while (!queue_.empty()) {
      shadow_refill();
      const Event event = queue_.top();
      queue_.pop();
      auto it = actions_.find(event.id);
      if (it == actions_.end()) continue;
      Action action = std::move(it->second);
      actions_.erase(it);
      now_ = event.at;
      ++executed_;
      firing_ = event.id;
      action();
      firing_ = 0;
      return true;
    }
    return false;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event> queue_;
  std::unordered_map<std::uint64_t, Action> actions_;
  std::unordered_map<std::uint64_t, SimTime> at_of_;
  std::uint64_t firing_ = 0;  // id of the running event; ids start at 1
  SimTime near_end_ = Simulator::kNearWindow;
  WindowCoverage coverage_;
};

struct Op {
  enum Kind {
    kScheduleChain,       // a: time, b: chain depth (0 = plain event)
    kScheduleCanceller,   // a: time, b: victim selector at fire time
    kScheduleSelfCancel,  // a: time; the event cancels its own id
    kCancel,              // a: handle selector
    kCancelBogus,         // a: raw id that must be dead in both engines
    kRunUntil,            // a: horizon
    kRun,
  };
  Kind kind = kRun;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

std::vector<Op> make_script(std::uint64_t seed) {
  Rng rng(seed);
  // Dense scripts hammer same-timestamp FIFO ordering; sparse scripts
  // exercise heap shape and long horizons.
  const bool dense = (seed % 2) == 0;
  const std::int64_t time_range = dense ? 400 : 1'000'000;
  const std::size_t ops = 200 + static_cast<std::size_t>(rng.uniform_u64(200));
  std::vector<Op> script;
  script.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    Op op;
    const std::uint64_t roll = rng.uniform_u64(100);
    if (roll < 45) {
      op.kind = Op::kScheduleChain;
      // Occasionally in the past (negative or earlier than now):
      // clamping must match.
      op.a = rng.uniform_int(-50, time_range);
      op.b = rng.uniform_u64(10) == 0 ? rng.uniform_int(1, 3) : 0;
    } else if (roll < 55) {
      op.kind = Op::kScheduleCanceller;
      op.a = rng.uniform_int(0, time_range);
      op.b = static_cast<std::int64_t>(rng.uniform_u64(1u << 20));
    } else if (roll < 75) {
      op.kind = Op::kCancel;
      op.a = static_cast<std::int64_t>(rng.uniform_u64(1u << 20));
    } else if (roll < 80) {
      op.kind = Op::kCancelBogus;
      // 0 is never a valid id; huge low words exceed every slot index
      // and every sequential reference id.
      op.a = rng.uniform_u64(2) == 0
                 ? 0
                 : static_cast<std::int64_t>(0x7fffffffffffffffLL);
    } else if (roll < 97) {
      op.kind = Op::kRunUntil;
      op.a = rng.uniform_int(0, time_range + time_range / 2);
    } else {
      op.kind = Op::kRun;
    }
    script.push_back(op);
  }
  return script;
}

constexpr std::int64_t kQuarterWindow = Simulator::kNearWindow / 4;

/// A time on a quarter-window grid, `lo` to `hi` grid steps past
/// `cursor`, usually on a grid point or 1 ns either side of one. Each
/// refill opens its window at the earliest far entry, so window bounds
/// land on the same grid and events fall exactly at, or 1 ns below, the
/// bound.
std::int64_t window_time(Rng& rng, std::int64_t cursor, std::int64_t lo,
                         std::int64_t hi) {
  const std::int64_t grid = cursor + rng.uniform_int(lo, hi) * kQuarterWindow;
  const std::uint64_t roll = rng.uniform_u64(100);
  if (roll < 50) return grid;
  if (roll < 75) return grid - 1;
  if (roll < 85) return grid + 1;
  return grid + rng.uniform_int(0, kQuarterWindow - 1);
}

/// Scripts whose times span dozens of near windows: boundary-grid times
/// up to four windows past the last horizon, horizons that creep forward
/// by up to two windows, chains whose links land one or more half
/// windows later, cancels of far entries and self-cancelling events.
std::vector<Op> make_window_script(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t ops = 200 + static_cast<std::size_t>(rng.uniform_u64(200));
  std::vector<Op> script;
  script.reserve(ops);
  std::int64_t cursor = 0;  // the latest run_until horizon
  for (std::size_t i = 0; i < ops; ++i) {
    Op op;
    const std::uint64_t roll = rng.uniform_u64(100);
    if (roll < 40) {
      op.kind = Op::kScheduleChain;
      op.a = window_time(rng, cursor, -1, 16);
      op.b = rng.uniform_u64(4) == 0 ? rng.uniform_int(1, 3) : 0;
    } else if (roll < 47) {
      op.kind = Op::kScheduleCanceller;
      op.a = window_time(rng, cursor, -1, 16);
      op.b = static_cast<std::int64_t>(rng.uniform_u64(1u << 20));
    } else if (roll < 52) {
      op.kind = Op::kScheduleSelfCancel;
      op.a = window_time(rng, cursor, -1, 16);
    } else if (roll < 72) {
      op.kind = Op::kCancel;
      op.a = static_cast<std::int64_t>(rng.uniform_u64(1u << 20));
    } else if (roll < 75) {
      op.kind = Op::kCancelBogus;
      op.a = 0;
    } else if (roll < 99) {
      op.kind = Op::kRunUntil;
      op.a = window_time(rng, cursor, 0, 8);
      cursor = std::max(cursor, op.a);
    } else {
      op.kind = Op::kRun;
    }
    script.push_back(op);
  }
  return script;
}

/// Replays `script` on `sim`, returning the full observable trace:
/// every fire (tag@time), every cancel-at-fire, and now/pending/
/// executed after every op. Two engines agree iff their traces match.
/// A chain link at depth d schedules its child kChainUnit * d + (tag %
/// 29) ns after it fires; the unit is a template argument so the chain
/// closure stays at the 48-byte inline size the testbed's closures use.
template <SimTime kChainUnit, typename Engine>
std::string replay(Engine& sim, const std::vector<Op>& script) {
  std::vector<std::uint64_t> handles;
  std::string log;

  const std::function<std::uint64_t(SimTime, std::int64_t)> schedule_chain =
      [&](SimTime at, std::int64_t depth) -> std::uint64_t {
    const std::uint64_t tag = handles.size();
    return sim.schedule_at(at, [&sim, &handles, &log, &schedule_chain, tag,
                                depth] {
      log += 'f';
      log += std::to_string(tag);
      log += '@';
      log += std::to_string(sim.now());
      log += ';';
      if (depth > 0) {
        const SimTime delta =
            kChainUnit * depth + static_cast<SimTime>(tag % 29);
        handles.push_back(schedule_chain(sim.now() + delta, depth - 1));
        // Read the captures again after scheduling: an engine that let
        // the child take this event's slot mid-call garbles them.
        log += '>';
        log += std::to_string(tag);
        log += ';';
      }
    });
  };

  for (const Op& op : script) {
    switch (op.kind) {
      case Op::kScheduleChain:
        handles.push_back(schedule_chain(op.a, op.b));
        break;
      case Op::kScheduleCanceller: {
        const std::uint64_t tag = handles.size();
        handles.push_back(sim.schedule_at(
            op.a, [&sim, &handles, &log, tag, sel = op.b] {
              log += 'x';
              log += std::to_string(tag);
              log += ';';
              if (!handles.empty()) {
                sim.cancel(handles[static_cast<std::size_t>(sel) %
                                   handles.size()]);
              }
            }));
        break;
      }
      case Op::kScheduleSelfCancel: {
        const std::uint64_t tag = handles.size();
        handles.push_back(sim.schedule_at(op.a, [&sim, &handles, &log, tag] {
          sim.cancel(handles[tag]);  // must be a no-op
          log += 's';
          log += std::to_string(tag);
          log += 'p';
          log += std::to_string(sim.pending());
          log += ';';
        }));
        break;
      }
      case Op::kCancel:
        if (!handles.empty()) {
          sim.cancel(
              handles[static_cast<std::size_t>(op.a) % handles.size()]);
        }
        break;
      case Op::kCancelBogus:
        sim.cancel(static_cast<std::uint64_t>(op.a));
        break;
      case Op::kRunUntil:
        sim.run_until(op.a);
        break;
      case Op::kRun:
        sim.run();
        break;
    }
    log += 'n';
    log += std::to_string(sim.now());
    log += 'p';
    log += std::to_string(sim.pending());
    log += 'e';
    log += std::to_string(sim.executed());
    log += '|';
  }
  sim.run();
  log += "end:n";
  log += std::to_string(sim.now());
  log += 'p';
  log += std::to_string(sim.pending());
  log += 'e';
  log += std::to_string(sim.executed());
  return log;
}

TEST(EventCoreSoakTest, MatchesReferenceEngineOverRandomScripts) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const std::vector<Op> script = make_script(seed);
    Simulator sim;
    RefSimulator ref;
    const std::string got = replay<13>(sim, script);
    const std::string want = replay<13>(ref, script);
    ASSERT_EQ(got, want) << "script seed " << seed;
  }
}

TEST(EventCoreSoakTest, MatchesReferenceAcrossNearWindows) {
  WindowCoverage total;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const std::vector<Op> script = make_window_script(seed);
    Simulator sim;
    RefSimulator ref;
    constexpr SimTime kHalfWindow = Simulator::kNearWindow / 2;
    const std::string got = replay<kHalfWindow>(sim, script);
    const std::string want = replay<kHalfWindow>(ref, script);
    ASSERT_EQ(got, want) << "window script seed " << seed;
    total.add(ref.coverage());
  }
  // Every boundary case of the near/far split must have been exercised,
  // not just survived.
  EXPECT_GE(total.refills, 4u * 300u);
  EXPECT_GT(total.at_bound, 0u);
  EXPECT_GT(total.below_bound, 0u);
  EXPECT_GT(total.far_cancels, 0u);
  EXPECT_GT(total.far_chains, 0u);
  EXPECT_GT(total.self_cancels, 0u);
  EXPECT_GT(total.split_horizons, 0u);
}

TEST(EventCoreSoakTest, SlotReuseChurn) {
  // Drive far more schedule/fire cycles than one slab block holds so
  // every slot is recycled many times, with a persistent far-future
  // event pinned across the whole churn.
  Simulator sim;
  bool far_fired = false;
  const std::uint64_t far = sim.schedule_at(1'000'000'000, [&] {
    far_fired = true;
  });
  std::uint64_t fired = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 600; ++i) {
      sim.schedule_after(i, [&] { ++fired; });
    }
    sim.run_until(sim.now() + 700);
  }
  EXPECT_EQ(fired, 40u * 600u);
  EXPECT_FALSE(far_fired);
  EXPECT_EQ(sim.pending(), 1u);
  sim.cancel(far);
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_FALSE(far_fired);
}

TEST(EventCoreSoakTest, StaleIdNeverCancelsRecycledSlot) {
  // A fired event's id must stay dead even after its slot is recycled
  // through many generations.
  Simulator sim;
  std::uint64_t stale = 0;
  sim.schedule_at(1, [] {});
  stale = sim.schedule_at(2, [] {});
  sim.run();
  for (int round = 0; round < 2000; ++round) {
    bool fired = false;
    sim.schedule_after(1, [&] { fired = true; });
    sim.cancel(stale);  // must never hit the recycled slot
    sim.run();
    ASSERT_TRUE(fired) << "round " << round;
  }
}

}  // namespace
}  // namespace tlc::sim

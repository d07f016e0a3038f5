// util::parallel_for, the library's one fan-out: every index runs
// exactly once at any worker count, and a crash thrown by one body
// reaches the caller only after every worker has joined, with its type
// intact even though recovery::CrashException is not a std::exception.
#include "util/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "recovery/crash_plan.hpp"
#include "util/logging.hpp"

namespace tlc::util {
namespace {

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (std::size_t count : {0u, 1u, 7u, 64u}) {
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      std::vector<std::atomic<int>> hits(count);
      parallel_for(count, threads, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "count " << count << " threads " << threads << " index " << i;
      }
    }
  }
}

TEST(ParallelForTest, RethrowsCrashOnCallerAfterJoin) {
  constexpr std::size_t kThrower = 5;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    std::atomic<int> in_flight{0};
    std::atomic<std::size_t> ran{0};
    bool caught = false;
    try {
      parallel_for(64, threads, [&](std::size_t i) {
        in_flight.fetch_add(1);
        ran.fetch_add(1);
        if (i == kThrower) {
          in_flight.fetch_sub(1);
          throw recovery::CrashException{
              {recovery::kCrashSettleCycle, /*scope=*/i, /*hit=*/0,
               recovery::CrashKind::Kill}};
        }
        // Slow bodies: a rethrow before the join would find some of
        // them still running.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        in_flight.fetch_sub(1);
      });
    } catch (const recovery::CrashException& crash) {
      caught = true;
      EXPECT_EQ(in_flight.load(), 0) << "threads " << threads;
      EXPECT_EQ(crash.site.point, recovery::kCrashSettleCycle);
      EXPECT_EQ(crash.site.scope, kThrower);
    }
    EXPECT_TRUE(caught) << "threads " << threads;
    // Inline, in order: nothing after the thrower runs.
    if (threads == 1) {
      EXPECT_EQ(ran.load(), kThrower + 1);
    }
  }
}

TEST(ParallelForTest, WorkersMayLogWhileTheLevelChanges) {
  // Shard and settler bodies log from workers (TLC_WARN reads the level)
  // while another thread may change it. The level toggles between Error
  // and Off, so the Warn lines are read-and-filtered, never printed.
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Error);
  std::atomic<bool> done{false};
  std::thread fan_out([&done] {
    parallel_for(32, 4, [](std::size_t i) {
      for (int k = 0; k < 200; ++k) {
        TLC_WARN("parallel_for_test") << "index " << i << " line " << k;
      }
    });
    done.store(true);
  });
  bool off = false;
  do {
    set_log_level(off ? LogLevel::Off : LogLevel::Error);
    off = !off;
  } while (!done.load());
  fan_out.join();
  set_log_level(saved);
}

}  // namespace
}  // namespace tlc::util

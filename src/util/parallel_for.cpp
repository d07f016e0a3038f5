#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace tlc::util {

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t workers = std::min<std::size_t>(threads, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  Mutex mu;
  std::exception_ptr first;  // written under `mu`, read after the joins
  const auto work = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        MutexLock lock(mu);
        if (!first) first = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    try {
      pool.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // no thread to be had: the running workers claim the rest
    }
  }
  work();
  for (std::thread& worker : pool) worker.join();
  if (first) std::rethrow_exception(first);
}

}  // namespace tlc::util

// Clocks and the peak-RSS probe the benchmark measures with. All reads
// happen in the benchmark, around calls into the library.
#pragma once

#include <malloc.h>
#include <time.h>

#include <chrono>
#include <fstream>
#include <string>

namespace tlc::bench {

/// Monotonic wall clock, seconds.
[[nodiscard]] inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of every thread of the process, seconds.
[[nodiscard]] inline double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the next
/// peak_rss_mb() read covers only what ran in between. Free heap the
/// allocator still holds goes back to the kernel first, so an earlier,
/// larger job does not set the floor. Where /proc/self/clear_refs is
/// not writable the peak covers the whole process lifetime instead.
inline void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM in MB (10^6 bytes); 0 when /proc is unavailable.
[[nodiscard]] inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib * 1024.0 / 1e6;
    }
    std::getline(status, key);
  }
  return 0.0;
}

}  // namespace tlc::bench

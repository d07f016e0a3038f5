#include "util/logging.hpp"

#include <atomic>
#include <cstdio>

namespace tlc {
namespace {

// Relaxed: the level is a lone filter flag that orders no other data.
std::atomic<LogLevel> g_level{LogLevel::Warn};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug:
      return "debug";
    case LogLevel::Info:
      return "info";
    case LogLevel::Warn:
      return "warn";
    case LogLevel::Error:
      return "error";
    case LogLevel::Off:
      return "off";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void log_message(LogLevel level, std::string_view component,
                 std::string_view message) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  std::fprintf(stderr, "[%s] %.*s: %.*s\n", level_name(level),
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(message.size()), message.data());
}

namespace detail {

LogLine::~LogLine() { log_message(level_, component_, stream_.str()); }

}  // namespace detail
}  // namespace tlc

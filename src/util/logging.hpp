// Leveled logging for the library.
//
// Defaults to Warn so tests and benches stay quiet; examples raise the
// level to show the protocol in action. Safe to call from any thread:
// shards and settlers log from `util::parallel_for` workers. The level
// is an atomic, and each line is a single `fprintf`, which holds the
// stream lock, so concurrent lines never interleave mid-line.
#pragma once

#include <sstream>
#include <string>

namespace tlc {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Global minimum level; messages below it are discarded.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Emits one line to stderr as "[level] component: message".
void log_message(LogLevel level, std::string_view component,
                 std::string_view message);

namespace detail {

/// Stream-style one-shot logger: LogLine(...).stream() << "x=" << x;
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine();

  [[nodiscard]] std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace tlc

#define TLC_LOG(level, component)                                   \
  if (static_cast<int>(level) < static_cast<int>(tlc::log_level())) \
    ;                                                               \
  else                                                              \
    tlc::detail::LogLine(level, component).stream()

#define TLC_DEBUG(component) TLC_LOG(tlc::LogLevel::Debug, component)
#define TLC_INFO(component) TLC_LOG(tlc::LogLevel::Info, component)
#define TLC_WARN(component) TLC_LOG(tlc::LogLevel::Warn, component)
#define TLC_ERROR(component) TLC_LOG(tlc::LogLevel::Error, component)

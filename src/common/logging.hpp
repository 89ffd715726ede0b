// Lightweight leveled logger with an optional structured (JSON-lines) sink.
//
// The benches and examples narrate long-running experiments through this;
// level is process-global and settable via the PHISHINGHOOK_LOG env var
// (debug|info|warn|error, default info). Setting PHISHINGHOOK_LOG_FORMAT
// to `json` switches every line to one JSON object:
//
//   {"ts":"2026-08-06T12:00:00.123Z","level":"info","thread":1,
//    "event":"synth.build","rows":12000,"phishing":3000}
//
// Plain log_info(...) renders in JSON mode with the message under "msg";
// log_event(...) attaches typed key=value fields in both formats.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

namespace phishinghook::common {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };
enum class LogFormat { kText = 0, kJson = 1 };

/// Current process-wide level (initialized from PHISHINGHOOK_LOG on first
/// use).
LogLevel log_level();

/// Overrides the process-wide level.
void set_log_level(LogLevel level);

/// Current output format (initialized from PHISHINGHOOK_LOG_FORMAT on
/// first use; anything other than "json" is text).
LogFormat log_format();

/// Overrides the process-wide format.
void set_log_format(LogFormat format);

/// Re-reads level and format from the environment (tests use this after
/// setenv; normal programs never need it).
void refresh_log_from_env();

/// Redirects rendered log lines (without trailing newline) away from
/// stderr; pass nullptr to restore stderr. Test hook — not thread-safe
/// versus concurrent logging.
using LogWriter = void (*)(const std::string& line);
void set_log_writer(LogWriter writer);

/// Small per-process thread id (main thread is 1) used by the JSON sink;
/// stable for the thread's lifetime.
std::uint64_t log_thread_id();

/// One key=value field of a structured event. The value keeps its type in
/// JSON output (numbers unquoted, bools bare); text output renders
/// `key=value` uniformly.
struct LogField {
  template <typename T,
            typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  LogField(std::string_view key, T value) : key(key) {
    std::ostringstream out;
    if constexpr (std::is_same_v<T, bool>) {
      out << (value ? "true" : "false");
    } else {
      out << value;
    }
    this->value = out.str();
    quoted = false;
  }
  LogField(std::string_view key, const char* value)
      : key(key), value(value), quoted(true) {}
  LogField(std::string_view key, std::string_view value)
      : key(key), value(value), quoted(true) {}
  LogField(std::string_view key, const std::string& value)
      : key(key), value(value), quoted(true) {}

  std::string key;
  std::string value;
  bool quoted;  ///< render inside quotes in JSON output
};

/// Emits one line to the active sink if `level` passes the filter.
void log_line(LogLevel level, const std::string& message);

/// Structured event: text mode renders `event key=value ...`, JSON mode
/// one object with each field as a member alongside ts/level/thread/event.
void log_event(LogLevel level, std::string_view event,
               std::initializer_list<LogField> fields);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream out;
  (out << ... << std::forward<Args>(args));
  return out.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(Args&&... args) {
  if (log_level() <= LogLevel::kDebug)
    log_line(LogLevel::kDebug, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() <= LogLevel::kInfo)
    log_line(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_warn(Args&&... args) {
  if (log_level() <= LogLevel::kWarn)
    log_line(LogLevel::kWarn, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_error(Args&&... args) {
  if (log_level() <= LogLevel::kError)
    log_line(LogLevel::kError, detail::concat(std::forward<Args>(args)...));
}

}  // namespace phishinghook::common

#include "common/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "obs/metrics.hpp"  // json_escape_to

namespace phishinghook::common {

namespace {

LogLevel parse_level(const char* text) {
  if (text == nullptr) return LogLevel::kInfo;
  const std::string_view v(text);
  if (v == "debug") return LogLevel::kDebug;
  if (v == "info") return LogLevel::kInfo;
  if (v == "warn") return LogLevel::kWarn;
  if (v == "error") return LogLevel::kError;
  return LogLevel::kInfo;
}

LogFormat parse_format(const char* text) {
  return (text != nullptr && std::string_view(text) == "json")
             ? LogFormat::kJson
             : LogFormat::kText;
}

std::atomic<int>& level_storage() {
  static std::atomic<int> level{
      static_cast<int>(parse_level(std::getenv("PHISHINGHOOK_LOG")))};
  return level;
}

std::atomic<int>& format_storage() {
  static std::atomic<int> format{
      static_cast<int>(parse_format(std::getenv("PHISHINGHOOK_LOG_FORMAT")))};
  return format;
}

std::atomic<LogWriter>& writer_storage() {
  static std::atomic<LogWriter> writer{nullptr};
  return writer;
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?????";
}

const char* level_word(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "unknown";
}

std::string iso8601_now() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm_utc{};
  gmtime_r(&secs, &tm_utc);
  char buffer[40];
  const std::size_t n =
      std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%S", &tm_utc);
  std::snprintf(buffer + n, sizeof(buffer) - n, ".%03dZ",
                static_cast<int>(ms));
  return buffer;
}

void emit(const std::string& line) {
  const LogWriter writer = writer_storage().load(std::memory_order_acquire);
  if (writer != nullptr) {
    writer(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

/// Shared head of every JSON log object; leaves the object open so the
/// caller can append event-specific members.
std::string json_head(LogLevel level) {
  std::string out = "{\"ts\":\"";
  out += iso8601_now();
  out += "\",\"level\":\"";
  out += level_word(level);
  out += "\",\"thread\":";
  out += std::to_string(log_thread_id());
  return out;
}

}  // namespace

LogLevel log_level() {
  return static_cast<LogLevel>(level_storage().load(std::memory_order_relaxed));
}

void set_log_level(LogLevel level) {
  level_storage().store(static_cast<int>(level), std::memory_order_relaxed);
}

LogFormat log_format() {
  return static_cast<LogFormat>(
      format_storage().load(std::memory_order_relaxed));
}

void set_log_format(LogFormat format) {
  format_storage().store(static_cast<int>(format), std::memory_order_relaxed);
}

void refresh_log_from_env() {
  set_log_level(parse_level(std::getenv("PHISHINGHOOK_LOG")));
  set_log_format(parse_format(std::getenv("PHISHINGHOOK_LOG_FORMAT")));
}

void set_log_writer(LogWriter writer) {
  writer_storage().store(writer, std::memory_order_release);
}

std::uint64_t log_thread_id() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void log_line(LogLevel level, const std::string& message) {
  if (log_format() == LogFormat::kJson) {
    std::string out = json_head(level);
    out += ",\"msg\":\"";
    obs::json_escape_to(out, message);
    out += "\"}";
    emit(out);
  } else {
    emit(std::string("[phook ") + level_tag(level) + "] " + message);
  }
}

void log_event(LogLevel level, std::string_view event,
               std::initializer_list<LogField> fields) {
  if (log_level() > level) return;
  if (log_format() == LogFormat::kJson) {
    std::string out = json_head(level);
    out += ",\"event\":\"";
    obs::json_escape_to(out, event);
    out += '"';
    for (const LogField& field : fields) {
      out += ",\"";
      obs::json_escape_to(out, field.key);
      out += "\":";
      if (field.quoted) {
        out += '"';
        obs::json_escape_to(out, field.value);
        out += '"';
      } else {
        out += field.value;
      }
    }
    out += '}';
    emit(out);
  } else {
    std::string message(event);
    for (const LogField& field : fields) {
      message += ' ';
      message += field.key;
      message += '=';
      message += field.value;
    }
    log_line(level, message);
  }
}

}  // namespace phishinghook::common

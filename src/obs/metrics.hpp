// Process-wide metrics registry: named counters, gauges and log-scale
// histograms, with optional labels (`train_fit_ms{model="Random Forest"}`),
// and a Prometheus-style text exposition.
//
// Split of responsibilities:
//   * registration (`registry.counter("name")`) takes a mutex and may
//     allocate — do it once, at construction/startup;
//   * the returned handles are trivially copyable pointers into
//     registry-owned stable storage, and every operation on them is a
//     relaxed atomic — safe and cheap from any number of hot-path threads;
//   * exposition walks the registry under the mutex, reading cells
//     relaxed, so scraping never blocks writers.
//
// `MetricsRegistry::global()` is the process-wide instance the thread pool,
// the disassembler and the experiment harness publish into; subsystems
// whose tests need isolated exact counts (the scoring engine) own a private
// registry instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"

namespace phishinghook::obs {

namespace detail {
/// Cell behind default-constructed handles, so an unbound Counter/Gauge is
/// a safe no-op target instead of a crash.
std::atomic<std::uint64_t>& null_counter_cell();
std::atomic<double>& null_gauge_cell();
}  // namespace detail

/// Monotone counter handle. Copyable; the cell lives in the registry and
/// stays valid for the registry's lifetime.
class Counter {
 public:
  Counter() : cell_(&detail::null_counter_cell()) {}

  void inc(std::uint64_t n = 1) { cell_->fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return cell_->load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_;
};

/// Point-in-time value handle (queue depths, cache occupancy, rates).
class Gauge {
 public:
  Gauge() : cell_(&detail::null_gauge_cell()) {}

  void set(double v) { cell_->store(v, std::memory_order_relaxed); }
  void add(double d) { cell_->fetch_add(d, std::memory_order_relaxed); }
  double value() const { return cell_->load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_;
};

/// Renders one `key="value"` label fragment, escaping backslashes and
/// quotes. Join several with commas before passing to the registry.
std::string label(std::string_view key, std::string_view value);

/// Appends `text` to `out` escaped for embedding inside a JSON string
/// literal: quotes, backslashes and control characters. The repo's one
/// JSON string escaper (trace writer, log sink, JSON-RPC replies).
void json_escape_to(std::string& out, std::string_view text);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) the metric named `name` with an optional
  /// comma-joined label fragment built via obs::label(). Re-registering the
  /// same (name, labels) returns a handle onto the same cell; registering
  /// it as a different kind throws InvalidArgument (naming both kinds), as
  /// does a name outside [a-zA-Z_:][a-zA-Z0-9_:]* or a label fragment that
  /// is not well-formed key="value" pairs — exposition-breaking names fail
  /// at registration, not at scrape time.
  Counter counter(std::string_view name, std::string_view labels = {});
  Gauge gauge(std::string_view name, std::string_view labels = {});
  LatencyHistogram& histogram(std::string_view name,
                              std::string_view labels = {});

  /// Attaches Prometheus `# HELP` text to a metric name (any labels).
  /// Idempotent — the last call wins; unknown names are remembered and
  /// apply when the metric registers later.
  void set_help(std::string_view name, std::string_view help);

  std::size_t size() const;

  /// Prometheus-style text exposition: `# HELP` + `# TYPE` comments per
  /// metric name, `name{labels} value` lines sorted by (name, labels);
  /// histograms render as summaries (quantile lines plus _sum/_count/_max).
  /// Values are read relaxed, so a concurrent scrape sees a near-consistent
  /// snapshot.
  void write_prometheus(std::ostream& out) const;

  /// Process-wide registry (never destroyed, so handles taken by
  /// static-lifetime instruments stay valid during shutdown).
  static MetricsRegistry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    std::string labels;
    Kind kind;
    std::size_t index;  ///< into the kind's storage deque
  };

  const Entry& find_or_create(std::string_view name, std::string_view labels,
                              Kind kind);
  std::vector<const Entry*> sorted_entries() const;

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> help_;  ///< name -> text
  // Deques: stable addresses across registration, required by the handles.
  std::deque<std::atomic<std::uint64_t>> counters_;
  std::deque<std::atomic<double>> gauges_;
  std::deque<LatencyHistogram> histograms_;
};

/// Exposition-grammar validators (shared with the registry's registration
/// checks and the tests): Prometheus metric names are
/// [a-zA-Z_:][a-zA-Z0-9_:]*, label keys [a-zA-Z_][a-zA-Z0-9_]*, and a
/// label fragment is zero or more key="value" pairs joined by commas with
/// only \\ and \" escapes inside the value.
bool valid_metric_name(std::string_view name);
bool valid_label_fragment(std::string_view labels);

}  // namespace phishinghook::obs

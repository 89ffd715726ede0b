// The three serving workloads and the metrics derived from them.
//
// One call runs one workload in this process: set-up (timed), an untimed
// warm-up, then the measured window. With trace off it yields the
// end-to-end metrics; with trace on it runs an untraced window and a
// decorated window of half the length each and yields the per-layer
// metrics (plus the tracing overhead between the two).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "plan.hpp"

namespace perfbench {

struct RunConfig {
  Workload workload = Workload::kRpcSingle;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome-trace output of the traced run ("" = not written).
  std::string trace_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Why `correct` is false, one line each.
  std::vector<std::string> problems;
  /// Human-readable report: sample counts, workload shape, raw counters.
  std::vector<std::string> notes;
};

RunResult run_workload(const RunConfig& config);

}  // namespace perfbench

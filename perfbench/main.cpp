// perfbench_serving: runs one serving workload and prints its metrics.
//
//   perfbench_serving --workload rpc_single|rpc_batch_cold|stream_follow
//                     --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is 0 only when every answer was correct and
// the engine's conservation law held.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload rpc_single|rpc_batch_cold|stream_follow "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      const auto workload = perfbench::parse_workload(value);
      if (!workload) return usage(argv[0]);
      config.workload = *workload;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      config.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      config.trace_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !(config.seconds > 0.0)) return usage(argv[0]);

  const perfbench::RunResult result = perfbench::run_workload(config);
  std::printf("== %s seed=%llu seconds=%g trace=%d\n",
              perfbench::workload_name(config.workload),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const std::string& line : result.notes) {
    std::printf("   %s\n", line.c_str());
  }
  for (const perfbench::Metric& metric : result.metrics) {
    std::printf("   %-28s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "INCORRECT: %s\n", problem.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& metric = result.metrics[i];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

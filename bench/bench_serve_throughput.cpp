// Serving throughput: contracts/sec and tail latency of the online scoring
// engine at 1/4/8 worker threads, on a warm score cache.
//
// This is the deployment half of the paper (§IV-F): the detector is
// trained once, frozen to a model artifact, loaded back, and then put
// behind the batching engine while producer threads replay the deployment
// stream. The cold pass pays one model row per *unique* code hash; the
// warm passes measure the steady state a monitor would live in (Fig. 2's
// ~5x duplication makes hits the common case).
//
// A fault-mix mode measures the same engine under a hostile upstream: with
// --faults <rate>, eth_getCode throws at <rate> and returns empty code at
// <rate>/2 through a seeded FaultInjectingExplorer, and the table gains
// failed/shed/retry columns. Throughput under chaos is the number that
// matters for the paper's real deployment: a production monitor lives on a
// flaky node, not a clean one.
//
// Usage: bench_serve_throughput [passes-per-config] [--faults <rate>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench_common.hpp"
#include "chain/fault_injection.hpp"
#include "obs/metrics.hpp"
#include "common/timer.hpp"
#include "ml/random_forest.hpp"
#include "serve/artifact.hpp"
#include "serve/scoring_engine.hpp"

int main(int argc, char** argv) {
  using namespace phishinghook;

  bench::print_banner("Serving throughput (online scoring engine)",
                      "deployment scenario of §IV-F; not a paper figure");
  int passes = 3;
  double fault_rate = 0.0;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--faults") == 0 && a + 1 < argc) {
      fault_rate = std::atof(argv[++a]);
    } else {
      passes = std::atoi(argv[a]);
    }
  }

  // --- train once, persist, load the artifact ------------------------------
  const synth::BuiltDataset data = bench::build_bench_dataset();
  std::vector<const evm::Bytecode*> codes;
  std::vector<int> labels;
  for (const synth::LabeledContract& sample : data.samples) {
    codes.push_back(&sample.code);
    labels.push_back(sample.phishing ? 1 : 0);
  }

  core::HistogramAdapter trained(std::make_unique<ml::RandomForestClassifier>(),
                                 "Random Forest");
  common::Timer train_timer;
  trained.fit(codes, labels);
  std::printf("trained Random Forest on %zu contracts in %.2fs\n",
              codes.size(), train_timer.seconds());

  const std::filesystem::path artifact_path =
      bench::bench_output_dir(argv[0]) / "serve_rf.phookmdl";
  serve::save_artifact_file(artifact_path, trained);
  common::Timer load_timer;
  const std::unique_ptr<core::HistogramAdapter> detector =
      serve::load_artifact_file(artifact_path);
  std::printf("artifact %s: %ju bytes, loaded in %.1f ms\n\n",
              artifact_path.c_str(),
              static_cast<std::uintmax_t>(
                  std::filesystem::file_size(artifact_path)),
              load_timer.milliseconds());

  // The replayed request stream: every address of the corpus window.
  std::vector<evm::Address> stream;
  for (const synth::LabeledContract& sample : data.samples) {
    stream.push_back(sample.address);
  }

  // Fault-mix mode: the engine reads through a seeded chaos decorator, so
  // every pass exercises the per-slot isolation and retry path.
  std::unique_ptr<chain::FaultInjectingExplorer> chaos;
  if (fault_rate > 0.0) {
    chain::FaultConfig faults;
    faults.throw_rate = fault_rate;
    faults.empty_rate = fault_rate / 2.0;
    faults.seed = 99;
    chaos = std::make_unique<chain::FaultInjectingExplorer>(*data.explorer,
                                                            faults);
    std::printf("fault mix: throw %.0f%%, empty %.0f%% (seeded, replayable)\n",
                100.0 * faults.throw_rate, 100.0 * faults.empty_rate);
  }
  const chain::Explorer& upstream =
      chaos ? static_cast<const chain::Explorer&>(*chaos) : *data.explorer;

  std::printf("%8s %10s %12s %10s %10s %10s %8s %8s %8s\n", "workers",
              "requests", "contracts/s", "p50(us)", "p95(us)", "p99(us)",
              "hit%", "failed", "retries");
  double single_thread_rate = 0.0;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    serve::EngineConfig config;
    config.workers = workers;
    config.max_batch = 32;
    config.extract_retry.base_delay_us = 10;
    config.extract_retry.max_delay_us = 500;
    serve::ScoringEngine engine(upstream, *detector, config);

    engine.score_all(stream);  // cold pass: fills the cache, not timed

    common::Timer timer;
    std::size_t completed = 0;
    for (int pass = 0; pass < passes; ++pass) {
      // Producers submit concurrently, as independent wallets would.
      constexpr int kProducers = 4;
      std::vector<std::thread> producers;
      std::atomic<std::size_t> done{0};
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&] {
          const std::vector<serve::ScoreResult> results =
              engine.score_all(stream);
          done.fetch_add(results.size());
        });
      }
      for (std::thread& producer : producers) producer.join();
      completed += done.load();
    }
    const double seconds = timer.seconds();
    const double rate = static_cast<double>(completed) / seconds;
    if (workers == 1) single_thread_rate = rate;

    const auto& latency = engine.metrics().request_latency;
    std::printf("%8zu %10zu %12.0f %10.0f %10.0f %10.0f %7.1f%% %8ju %8ju\n",
                workers, completed, rate, latency.quantile(0.50),
                latency.quantile(0.95), latency.quantile(0.99),
                100.0 * engine.cache_stats().hit_rate(),
                static_cast<std::uintmax_t>(
                    engine.metrics().requests_failed.value()),
                static_cast<std::uintmax_t>(engine.metrics().retries.value()));

    // The accounting invariant holds in every mode; in fault-mix mode it is
    // the whole point of the bench, so fail loudly if it breaks.
    const auto& m = engine.metrics();
    if (m.requests_completed.value() + m.requests_failed.value() +
            m.requests_shed.value() !=
        m.requests_submitted.value()) {
      std::fprintf(stderr,
                   "accounting violation: completed+failed+shed != "
                   "submitted\n");
      return 1;
    }
    if (workers == 8 && single_thread_rate > 0.0) {
      std::printf("\nspeedup at 8 workers vs 1: %.2fx "
                  "(hardware concurrency: %u)\n",
                  rate / single_thread_rate,
                  std::thread::hardware_concurrency());
    }

    // Machine-readable exposition for CI: overwritten per config, so the
    // file holds the final (8-worker) engine plus the process registry.
    engine.shutdown();
    std::ofstream exposition("BENCH_serve_metrics.prom");
    engine.dump_prometheus(exposition);
    obs::MetricsRegistry::global().write_prometheus(exposition);
  }
  std::printf("\nmetrics exposition: BENCH_serve_metrics.prom\n");
  return 0;
}

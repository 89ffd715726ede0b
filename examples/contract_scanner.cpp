// Contract scanner: the paper's motivating deployment scenario, on the
// serving stack.
//
// A crypto wallet (or a monitoring service like the paper's prospective
// Etherscan customer) must warn users *before* they sign — §IV-F: "users
// interact with smart contracts in real-time, often signing transactions
// within seconds". The seed version of this example retrained the detector
// in-process on every start and scored one contract at a time; this
// version runs the production shape end to end:
//
//   1. train the Random Forest on the historical window (once),
//   2. freeze it to a model artifact on disk,
//   3. load the artifact back (what a scoring replica actually boots from),
//   4. stand up the batching ScoringEngine and scan the fresh-deployment
//      stream from concurrent producer threads, and
//   5. print the engine's Prometheus exposition (latency quantiles, batch
//      and cache counters).
//
// Build & run:  ./build/examples/contract_scanner
//   --metrics <path>   write the full Prometheus exposition (engine registry
//                      + process-wide registry) after the scan
//   --trace <path>     write a chrome://tracing span trace of the run
//                      (equivalent to PHISHINGHOOK_TRACE=<path>)
//   --chaos <rate>     interpose a FaultInjectingExplorer on the scan:
//                      eth_getCode throws at <rate>, returns empty code at
//                      <rate>/2, stalls at <rate>/4. The scan must still
//                      complete with every request accounted for
//                      (completed + failed + shed == submitted); the ci.sh
//                      chaos smoke step runs this at 10% and checks the
//                      per-status summary.
//   --metrics-port <p> serve /metrics and /healthz on
//                      127.0.0.1:<p> for the lifetime of the run (0 picks
//                      an ephemeral port, printed at startup); the
//                      exposition covers the engine registry and the
//                      process-wide registry, with tracer ring health
//                      synced on every scrape
//   --linger <secs>    keep the process (and the scrape server) alive for
//                      <secs> after the scan so an external scraper can
//                      pull the final state
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "chain/fault_injection.hpp"
#include "common/timer.hpp"
#include "core/experiment.hpp"
#include "ml/random_forest.hpp"
#include "net/json_rpc_server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/artifact.hpp"
#include "serve/scoring_engine.hpp"
#include "synth/dataset_builder.hpp"

int main(int argc, char** argv) {
  using namespace phishinghook;

  const char* metrics_path = nullptr;
  const char* trace_path = nullptr;
  double chaos_rate = 0.0;
  int metrics_port = -1;
  double linger_s = 0.0;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--metrics") == 0 && a + 1 < argc) {
      metrics_path = argv[++a];
    } else if (std::strcmp(argv[a], "--trace") == 0 && a + 1 < argc) {
      trace_path = argv[++a];
    } else if (std::strcmp(argv[a], "--chaos") == 0 && a + 1 < argc) {
      chaos_rate = std::atof(argv[++a]);
    } else if (std::strcmp(argv[a], "--metrics-port") == 0 && a + 1 < argc) {
      metrics_port = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--linger") == 0 && a + 1 < argc) {
      linger_s = std::atof(argv[++a]);
    } else {
      std::fprintf(stderr,
                   "usage: contract_scanner [--metrics <path>] "
                   "[--trace <path>] [--chaos <rate>] "
                   "[--metrics-port <port>] [--linger <secs>]\n");
      return 2;
    }
  }
  if (trace_path != nullptr) obs::Tracer::global().enable();

  // --- historical training data (months 2023-10 .. 2024-07) ----------------
  synth::DatasetConfig config;
  config.target_size = 300;
  config.seed = 21;
  config.match_benign_temporal = true;
  const synth::BuiltDataset history = synth::DatasetBuilder(config).build();

  std::vector<const evm::Bytecode*> train_codes;
  std::vector<int> train_labels;
  for (const synth::LabeledContract& sample : history.samples) {
    if (sample.month.index <= 9) {  // keep the last months as "the future"
      train_codes.push_back(&sample.code);
      train_labels.push_back(sample.phishing ? 1 : 0);
    }
  }

  ml::RandomForestConfig forest;
  forest.seed = 3;
  core::HistogramAdapter trained(
      std::make_unique<ml::RandomForestClassifier>(forest), "Random Forest");
  common::Timer train_timer;
  trained.fit(train_codes, train_labels);
  std::printf("detector trained on %zu historical contracts in %.2fs\n",
              train_codes.size(), train_timer.seconds());

  // --- train once, serve many: freeze + reload the artifact ----------------
  const std::filesystem::path artifact_path =
      std::filesystem::temp_directory_path() / "contract_scanner.phookmdl";
  serve::save_artifact_file(artifact_path, trained);
  common::Timer load_timer;
  const std::unique_ptr<core::HistogramAdapter> detector =
      serve::load_artifact_file(artifact_path);
  std::printf("artifact: %ju bytes at %s, reloaded in %.1f ms\n\n",
              static_cast<std::uintmax_t>(
                  std::filesystem::file_size(artifact_path)),
              artifact_path.c_str(), load_timer.milliseconds());

  // --- live stream: fresh deployments arriving on-chain ---------------------
  // The engine sees only addresses; bytecode is pulled through the BEM, the
  // same eth_getCode path a production integration would use.
  std::vector<const synth::LabeledContract*> fresh;
  for (const synth::LabeledContract& sample : history.samples) {
    if (sample.month.index > 9) fresh.push_back(&sample);
  }

  // Under --chaos the engine reads through a fault-injecting decorator, the
  // same hostile-upstream shape the chaos test suite drives.
  std::unique_ptr<chain::FaultInjectingExplorer> chaos;
  if (chaos_rate > 0.0) {
    chain::FaultConfig faults;
    faults.throw_rate = chaos_rate;
    faults.empty_rate = chaos_rate / 2.0;
    faults.latency_rate = chaos_rate / 4.0;
    faults.latency_us = 500;
    faults.seed = 1337;
    chaos = std::make_unique<chain::FaultInjectingExplorer>(*history.explorer,
                                                            faults);
    std::printf("chaos mode: eth_getCode throws at %.0f%%, empty at %.0f%%, "
                "stalls at %.0f%%\n",
                100.0 * faults.throw_rate, 100.0 * faults.empty_rate,
                100.0 * faults.latency_rate);
  }
  const chain::Explorer& upstream =
      chaos ? static_cast<const chain::Explorer&>(*chaos) : *history.explorer;

  serve::EngineConfig engine_config;
  engine_config.workers = 4;
  engine_config.max_batch = 16;
  serve::ScoringEngine engine(upstream, *detector, engine_config);

  // Scrape endpoint (an HTTP server with no JSON-RPC methods) over the
  // engine's registry + the process-wide one; cache stats and tracer ring
  // health are synced per scrape by hooks.
  net::JsonRpcServer scrape;
  if (metrics_port >= 0) {
    scrape.add_registry(engine.prometheus_registry());
    scrape.add_registry(obs::MetricsRegistry::global());
    scrape.add_pre_scrape_hook([&engine] { engine.export_pull_metrics(); });
    scrape.add_pre_scrape_hook([] {
      obs::Tracer::global().export_metrics(obs::MetricsRegistry::global());
    });
    scrape.start(static_cast<std::uint16_t>(metrics_port));
    std::printf("metrics: http://127.0.0.1:%u/metrics (also /healthz)\n",
                scrape.port());
    std::fflush(stdout);  // external scrapers poll stdout for this URL
  }

  std::printf("scanning fresh deployments (2024-08..2024-10) on %zu workers, "
              "%d producers:\n",
              engine_config.workers, 2);
  std::vector<std::vector<serve::ScoreResult>> halves(2);
  common::Timer scan_timer;
  {
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
      producers.emplace_back([&, p] {
        // Each producer scans half the stream, as two wallet frontends would.
        std::vector<evm::Address> addresses;
        for (std::size_t i = p; i < fresh.size(); i += 2) {
          addresses.push_back(fresh[i]->address);
        }
        halves[p] = engine.score_all(addresses);
      });
    }
    for (std::thread& producer : producers) producer.join();
  }
  const double scan_ms = scan_timer.milliseconds();

  std::size_t scanned = 0, flagged = 0, missed = 0, false_alarms = 0;
  std::map<serve::ScoreStatus, std::size_t> by_status;
  for (int p = 0; p < 2; ++p) {
    for (std::size_t r = 0; r < halves[p].size(); ++r) {
      const serve::ScoreResult& result = halves[p][r];
      const synth::LabeledContract& sample =
          *fresh[static_cast<std::size_t>(p) + 2 * r];
      ++scanned;
      ++by_status[result.status];
      if (result.flagged && sample.phishing) ++flagged;
      if (!result.flagged && sample.phishing) ++missed;
      if (result.flagged && !sample.phishing) ++false_alarms;
      if (result.flagged) {
        std::printf("  !! %s  P(phishing)=%.2f  (%.0f us%s)%s\n",
                    result.address.to_hex().c_str(), result.probability,
                    result.latency_us, result.cache_hit ? ", cached" : "",
                    sample.phishing ? "" : "  <- FALSE ALARM");
      }
    }
  }

  std::printf("\nscanned %zu new contracts in %.1f ms\n", scanned, scan_ms);
  std::printf("  phishing caught:  %zu\n", flagged);
  std::printf("  phishing missed:  %zu\n", missed);
  std::printf("  false alarms:     %zu\n", false_alarms);

  // Per-status breakdown + the fault-isolation accounting invariant. Under
  // --chaos this is the contract CI enforces: every submission resolves to
  // exactly one terminal status, no matter how hostile the upstream was.
  std::printf("status counts:");
  for (const serve::ScoreStatus status :
       {serve::ScoreStatus::kOk, serve::ScoreStatus::kEmptyCode,
        serve::ScoreStatus::kDegraded, serve::ScoreStatus::kExtractError,
        serve::ScoreStatus::kModelError, serve::ScoreStatus::kShed}) {
    std::printf(" %s=%zu", serve::to_string(status), by_status[status]);
  }
  std::printf("\n");
  const serve::ServiceMetrics& service = engine.metrics();
  const std::uint64_t submitted = service.requests_submitted.value();
  const std::uint64_t accounted = service.requests_completed.value() +
                                  service.requests_failed.value() +
                                  service.requests_shed.value();
  std::printf("chaos accounting: submitted=%ju completed=%ju failed=%ju "
              "shed=%ju retries=%ju %s\n",
              static_cast<std::uintmax_t>(submitted),
              static_cast<std::uintmax_t>(service.requests_completed.value()),
              static_cast<std::uintmax_t>(service.requests_failed.value()),
              static_cast<std::uintmax_t>(service.requests_shed.value()),
              static_cast<std::uintmax_t>(service.retries.value()),
              accounted == submitted ? "OK" : "MISMATCH");
  if (accounted != submitted) return 1;

  std::printf("\nservice metrics (wallet signing budget: seconds):\n");
  std::ostringstream metrics;
  engine.dump_prometheus(metrics);
  std::printf("%s", metrics.str().c_str());

  // Quiesce the engine before exporting telemetry: worker threads must be
  // joined so the trace rings and counters are final.
  engine.shutdown();
  if (metrics_path != nullptr) {
    std::ofstream out(metrics_path);
    engine.dump_prometheus(out);
    obs::MetricsRegistry::global().write_prometheus(out);
    std::printf("\nmetrics exposition written to %s\n", metrics_path);
  }
  if (trace_path != nullptr) {
    obs::Tracer::global().write_to_file(trace_path);
    std::printf("trace written to %s (open in chrome://tracing)\n",
                trace_path);
  }
  if (metrics_port >= 0 && linger_s > 0.0) {
    std::printf("lingering %.1fs for scrapes on port %u...\n", linger_s,
                scrape.port());
    std::this_thread::sleep_for(std::chrono::duration<double>(linger_s));
  }
  std::filesystem::remove(artifact_path);
  return 0;
}

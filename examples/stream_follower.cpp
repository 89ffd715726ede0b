// Stream follower: live-tail a chain being mined and score every new
// deployment at chain speed.
//
// Where contract_scanner replays a *finished* corpus through the engine,
// this example runs the streaming deployment shape end to end: a miner
// keeps producing blocks with fresh (and heavily duplicated) contracts, a
// block follower tails the head and dedups by code hash, an open-loop
// load generator submits score requests on a Poisson schedule regardless
// of how fast the engine answers, and the coordinator drains the whole
// pipeline gracefully at the end — printing ingest lag, dedup/cache hit
// rates, sustained rows/s, and the accounting identity.
//
// Build & run:  ./build/examples/stream_follower
//   --seconds <s>      run duration (default 5)
//   --rate <r>         arrival rate, requests/s (default 1000)
//   --burst            use the mempool-burst scenario instead of steady
//   --blocks-per-s <b> chain production rate (default 50)
//   --chaos <rate>     fault-inject the follower's code fetches:
//                      eth_getCode throws at <rate> on a seeded schedule
//   --metrics <path>   write the stream + engine Prometheus expositions
//   --metrics-port <p> serve /metrics and /healthz on
//                      127.0.0.1:<p> while the pipeline runs (0 = pick an
//                      ephemeral port, printed at startup). Scrapes show
//                      the stream + engine registries with the windowed
//                      SLO gauges (stream_window_*, stream_error_burn_rate,
//                      stream_shed_pressure) refreshed per scrape;
//                      /healthz reports live drain/queue state.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include "chain/fault_injection.hpp"
#include "core/model_registry.hpp"
#include "ml/random_forest.hpp"
#include "net/json_rpc_server.hpp"
#include "obs/trace.hpp"
#include "serve/scoring_engine.hpp"
#include "stream/coordinator.hpp"
#include "synth/dataset_builder.hpp"

int main(int argc, char** argv) {
  using namespace phishinghook;

  double seconds = 5.0;
  double rate = 1000.0;
  bool burst = false;
  double blocks_per_s = 50.0;
  double chaos_rate = 0.0;
  const char* metrics_path = nullptr;
  int metrics_port = -1;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--seconds") == 0 && a + 1 < argc) {
      seconds = std::atof(argv[++a]);
    } else if (std::strcmp(argv[a], "--rate") == 0 && a + 1 < argc) {
      rate = std::atof(argv[++a]);
    } else if (std::strcmp(argv[a], "--burst") == 0) {
      burst = true;
    } else if (std::strcmp(argv[a], "--blocks-per-s") == 0 && a + 1 < argc) {
      blocks_per_s = std::atof(argv[++a]);
    } else if (std::strcmp(argv[a], "--chaos") == 0 && a + 1 < argc) {
      chaos_rate = std::atof(argv[++a]);
    } else if (std::strcmp(argv[a], "--metrics") == 0 && a + 1 < argc) {
      metrics_path = argv[++a];
    } else if (std::strcmp(argv[a], "--metrics-port") == 0 && a + 1 < argc) {
      metrics_port = std::atoi(argv[++a]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[a]);
      return 2;
    }
  }

  // 1. Train the detector on the historical window (the batch side).
  std::printf("== training detector on the historical window\n");
  synth::DatasetConfig dataset_config;
  dataset_config.target_size = 240;
  dataset_config.seed = 97;
  const synth::BuiltDataset built =
      synth::DatasetBuilder(dataset_config).build();
  ml::RandomForestConfig rf;
  rf.n_trees = 12;
  rf.max_depth = 6;
  core::HistogramAdapter detector(
      std::make_unique<ml::RandomForestClassifier>(rf), "stream-follower");
  {
    std::vector<const evm::Bytecode*> codes;
    std::vector<int> labels;
    for (const synth::LabeledContract& sample : built.samples) {
      codes.push_back(&sample.code);
      labels.push_back(sample.phishing ? 1 : 0);
    }
    detector.fit(codes, labels);
  }

  // 2. Stand up the live chain + engine + streaming pipeline.
  stream::LiveChain live;
  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  engine_config.max_queue = 256;
  serve::ScoringEngine engine(live.explorer(), detector, engine_config);

  std::unique_ptr<chain::FaultInjectingExplorer> chaos;
  if (chaos_rate > 0.0) {
    chain::FaultConfig fault_config;
    fault_config.throw_rate = chaos_rate;
    fault_config.seed = 1;
    chaos = std::make_unique<chain::FaultInjectingExplorer>(live.explorer(),
                                                            fault_config);
  }

  stream::StreamConfig config;
  config.arrivals = burst ? stream::LoadGenerator::mempool_burst_scenario()
                          : stream::LoadGenerator::steady_scenario();
  config.arrivals.rate_per_s = rate;
  config.blocks_per_s = blocks_per_s;
  config.max_blocks =
      static_cast<std::uint64_t>(std::ceil(blocks_per_s * seconds));
  config.max_requests = static_cast<std::uint64_t>(
      (config.arrivals.rate_per_s + config.arrivals.burst_rate_per_s) *
      seconds * 4.0);

  std::printf("== streaming for %.1fs (%s arrivals at %.0f/s, %.0f blocks/s%s)\n",
              seconds, burst ? "mempool-burst" : "steady", rate, blocks_per_s,
              chaos ? ", chaos on the follower" : "");
  stream::StreamCoordinator coordinator(live, engine, config, chaos.get());

  // Scrape endpoint over both registries: an HTTP server with no JSON-RPC
  // methods. Hooks re-evaluate the SLO window and sync cache/tracer state
  // on every pull, and /healthz exposes the coordinator's live drain/queue
  // state.
  net::JsonRpcServer scrape;
  if (metrics_port >= 0) {
    scrape.add_registry(coordinator.registry());
    scrape.add_registry(engine.prometheus_registry());
    scrape.add_pre_scrape_hook([&coordinator] { coordinator.evaluate_slo(); });
    scrape.add_pre_scrape_hook([&engine] { engine.export_pull_metrics(); });
    scrape.add_pre_scrape_hook([&coordinator] {
      obs::Tracer::global().export_metrics(coordinator.registry());
    });
    scrape.set_health([&coordinator] { return coordinator.health_json(); });
    scrape.start(static_cast<std::uint16_t>(metrics_port));
    std::printf("== metrics: http://127.0.0.1:%u/metrics (also /healthz)\n",
                scrape.port());
    // Scrapers watching our stdout (the ci.sh smoke) need the URL the
    // moment the server is up, not when the stdio buffer happens to drain.
    std::fflush(stdout);
  }

  coordinator.start();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!coordinator.finished() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  coordinator.drain();

  // 3. Report.
  const stream::StreamReport report = coordinator.report();
  std::printf("== run summary (%.2fs)\n", report.elapsed_s);
  std::printf("  chain:    %llu blocks, %llu deployments (%llu phishing, "
              "%llu clones)\n",
              (unsigned long long)report.miner.blocks_mined,
              (unsigned long long)report.miner.deployments,
              (unsigned long long)report.miner.phishing_deployments,
              (unsigned long long)report.miner.clone_deployments);
  std::printf("  follower: %llu seen, %llu forwarded, dedup hit rate %.2f, "
              "lag %llu (max %llu) blocks, %llu code faults\n",
              (unsigned long long)report.follower.deployments_seen,
              (unsigned long long)report.follower.forwarded,
              report.follower.dedup_hit_rate(),
              (unsigned long long)report.ingest_lag_blocks,
              (unsigned long long)report.max_ingest_lag_blocks,
              (unsigned long long)report.follower.code_faults);
  std::printf("  traffic:  %llu submitted (%llu fresh, %llu requery, "
              "%llu burst)\n",
              (unsigned long long)report.submitted,
              (unsigned long long)report.fresh_submits,
              (unsigned long long)report.requery_submits,
              (unsigned long long)report.burst_arrivals);
  std::printf("  results:  %llu completed, %llu failed, %llu shed "
              "(%llu cache hits) -> %.0f rows/s sustained\n",
              (unsigned long long)report.completed,
              (unsigned long long)report.failed,
              (unsigned long long)report.shed,
              (unsigned long long)report.cache_hit_results,
              report.sustained_rows_per_s);
  std::printf("  accounting: submitted == completed + failed + shed: %s\n",
              report.accounting_ok() ? "OK" : "BROKEN");
  std::printf("  window:   %.0f req/s, p99 %.0f us, burn %.2f, "
              "shed pressure %.2f (last %.0fs; may have decayed post-drain)\n",
              report.window.rate_per_sec, report.window.p99_us,
              report.error_burn_rate, report.shed_pressure,
              report.window.window_seconds);

  if (metrics_path != nullptr) {
    std::ofstream out(metrics_path);
    coordinator.registry().write_prometheus(out);
    engine.dump_prometheus(out);
    std::printf("== metrics written to %s\n", metrics_path);
  }
  return report.accounting_ok() ? 0 : 1;
}

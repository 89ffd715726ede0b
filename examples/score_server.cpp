// score_server: the scoring pipeline behind a JSON-RPC socket front door.
//
// Stands up the full serving stack as a process a wallet backend could
// actually point at: a synthetic chain is pre-mined for contract supply, a
// two-stage model cascade (logreg stage 0, random-forest escalation inside
// the uncertainty band) is fitted on a synthetic labeled set, a
// ScoringEngine serves it, and serve::RpcFrontend exposes phook_score /
// phook_scoreBatch / phook_health over HTTP POST on loopback. A ScrapeServer on a second port
// serves /metrics with the engine's serve_* series and the front door's
// net_* series side by side.
//
//   ./score_server                       # ephemeral ports, 30s, then exit
//   ./score_server --port 9545 --seconds 120
//
// Prints, before serving: the RPC URL, the metrics URL, and a sample
// contract address guaranteed to exist on the synthetic chain — paste it
// into the curl from the README (the ci.sh smoke drives exactly that).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/model_registry.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/random_forest.hpp"
#include "net/scrape_server.hpp"
#include "serve/cascade.hpp"
#include "serve/rpc_frontend.hpp"
#include "serve/scoring_engine.hpp"
#include "stream/live_chain.hpp"
#include "synth/dataset_builder.hpp"

namespace {

using namespace phishinghook;

/// Two-stage cascade: a cheap logistic-regression stage 0 scores every
/// request; only probabilities inside `band` escalate to the random
/// forest. phook_health reports the per-stage row counts this produces.
std::unique_ptr<serve::CascadeScorer> fit_cascade(serve::CascadeConfig band) {
  synth::DatasetConfig dataset_config;
  dataset_config.target_size = 160;
  dataset_config.seed = 97;
  const synth::BuiltDataset built =
      synth::DatasetBuilder(dataset_config).build();
  std::vector<const evm::Bytecode*> codes;
  std::vector<int> labels;
  for (const synth::LabeledContract& sample : built.samples) {
    codes.push_back(&sample.code);
    labels.push_back(sample.phishing ? 1 : 0);
  }

  auto stage0 = std::make_unique<core::HistogramAdapter>(
      std::make_unique<ml::LogisticRegressionClassifier>(), "logreg");
  stage0->fit(codes, labels);
  ml::RandomForestConfig rf;
  rf.n_trees = 8;
  rf.max_depth = 6;
  auto heavy = std::make_unique<core::HistogramAdapter>(
      std::make_unique<ml::RandomForestClassifier>(rf), "random-forest");
  heavy->fit(codes, labels);

  std::vector<std::unique_ptr<ml::Scorer>> stages;
  stages.push_back(std::move(stage0));
  stages.push_back(std::move(heavy));
  return std::make_unique<serve::CascadeScorer>(std::move(stages), band);
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;          // 0 = kernel-assigned
  int metrics_port = 0;  // -1 disables the scrape endpoint
  double seconds = 30.0;
  serve::CascadeConfig band;  // [0.35, 0.65]; --band-lo 1 --band-hi 0 disables
  for (int i = 1; i < argc; ++i) {
    const auto next_int = [&](int fallback) {
      return i + 1 < argc ? std::atoi(argv[++i]) : fallback;
    };
    const auto next_double = [&](double fallback) {
      return i + 1 < argc ? std::atof(argv[++i]) : fallback;
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      port = next_int(port);
    } else if (std::strcmp(argv[i], "--metrics-port") == 0) {
      metrics_port = next_int(metrics_port);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = next_double(seconds);
    } else if (std::strcmp(argv[i], "--band-lo") == 0) {
      band.lo = next_double(band.lo);
    } else if (std::strcmp(argv[i], "--band-hi") == 0) {
      band.hi = next_double(band.hi);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--metrics-port N|-1] "
                   "[--seconds S] [--band-lo P] [--band-hi P]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("== fitting cascade + pre-mining chain\n");
  const std::unique_ptr<serve::CascadeScorer> detector = fit_cascade(band);
  stream::LiveChain live;
  for (int i = 0; i < 30; ++i) live.mine_next_block();
  const chain::ChainTail tail = live.explorer().crawl_after(0);
  if (tail.records.empty()) {
    std::fprintf(stderr, "pre-mine produced no contracts\n");
    return 1;
  }

  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  engine_config.max_queue = 256;
  serve::ScoringEngine engine(live.explorer(), *detector, engine_config);

  serve::RpcFrontend frontend(engine);
  frontend.start(static_cast<std::uint16_t>(port));

  net::ScrapeServer scrape;
  if (metrics_port >= 0) {
    scrape.add_registry(engine.prometheus_registry());
    scrape.add_registry(frontend.server().metrics_registry());
    scrape.add_pre_scrape_hook([&engine] { engine.export_pull_metrics(); });
    scrape.add_pre_scrape_hook(
        [&frontend] { frontend.server().export_metrics(); });
    scrape.set_health([&engine, &frontend] {
      std::ostringstream body;
      body << "{\"status\":\"ok\",\"requests_received\":"
           << frontend.server().requests_received()
           << ",\"requests_completed\":"
           << engine.metrics().requests_completed.value() << "}";
      return body.str();
    });
    scrape.start(static_cast<std::uint16_t>(metrics_port));
  }

  // The ci.sh smoke greps these three lines, then curls; they must hit the
  // pipe the moment the sockets are live.
  std::printf("== rpc: http://127.0.0.1:%u/\n", frontend.port());
  if (metrics_port >= 0) {
    std::printf("== metrics: http://127.0.0.1:%u/metrics (also /vars, "
                "/healthz)\n",
                scrape.port());
  }
  std::printf("== sample_address: %s\n", tail.records.front().address.to_hex().c_str());
  std::printf("== serving for %.0fs; score with\n"
              "   curl -s -X POST http://127.0.0.1:%u/ -d "
              "'{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"phook_score\","
              "\"params\":[\"%s\"]}'\n",
              seconds, frontend.port(),
              tail.records.front().address.to_hex().c_str());
  std::fflush(stdout);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  frontend.stop();
  if (metrics_port >= 0) scrape.stop();
  std::printf("== served %llu rpc requests, engine completed %llu\n",
              static_cast<unsigned long long>(
                  frontend.server().requests_received()),
              static_cast<unsigned long long>(
                  engine.metrics().requests_completed.value()));
  return 0;
}

// Streaming ingestion bench: the full miner → follower → open-loop load
// generator → ScoringEngine pipeline, run paced (honest wall-clock rates)
// under two arrival scenarios — steady Poisson traffic and periodic
// mempool bursts — and written as BENCH_stream.json next to the binary.
//
// Reported per scenario: sustained scored rows/s, shed and error rates,
// ingest lag in blocks, dedup/cache hit rates, the accounting identity
// (submitted == completed + failed + shed) that must hold after every
// drain, a mid-run sliding-window sample (rate, p99, SLO burn rate, shed
// pressure — the live view an operator would scrape), and per-stage
// latency attribution rows splitting each request's journey into
// queue-wait vs. service time (addr_queue / queue / extract / predict).
// The network mode (run last) drives the same open-loop LoadGenerator
// schedules through the JSON-RPC front door over real loopback sockets:
// client threads pace POST phook_score frames against serve::RpcFrontend,
// and the "network" JSON object attributes each request's journey across
// connect (client) / parse + handle (net layer) / queue +
// extract + predict (engine), alongside client-observed RTT, RPS and the
// shed ratio.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/model_registry.hpp"
#include "ml/random_forest.hpp"
#include "serve/rpc_frontend.hpp"
#include "serve/scoring_engine.hpp"
#include "stream/coordinator.hpp"
#include "stream/load_generator.hpp"
#include "synth/dataset_builder.hpp"

namespace {

using namespace phishinghook;

/// One per-stage latency-attribution row: where requests spent time.
struct StageRow {
  std::string stage;  ///< addr_queue | queue | extract | predict
  std::string kind;   ///< "wait" (parked) or "service" (being worked)
  std::uint64_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

struct ScenarioResult {
  std::string scenario;
  double elapsed_s = 0.0;
  std::uint64_t blocks = 0;
  std::uint64_t deployments = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  double sustained_rows_per_s = 0.0;
  double shed_rate = 0.0;
  double error_rate = 0.0;
  std::uint64_t ingest_lag_blocks = 0;
  std::uint64_t max_ingest_lag_blocks = 0;
  double dedup_hit_rate = 0.0;
  double cache_hit_rate = 0.0;
  bool accounting_ok = false;

  // Sliding-window sample taken mid-run, under load (not after drain,
  // when idle decay would have emptied the window).
  double window_rate_per_sec = 0.0;
  double window_p99_us = 0.0;
  double window_error_burn_rate = 0.0;
  double shed_pressure = 0.0;

  std::vector<StageRow> stages;
};

core::HistogramAdapter fit_detector(bool smoke) {
  synth::DatasetConfig dataset_config;
  dataset_config.target_size = smoke ? 160 : 320;
  dataset_config.seed = 97;
  const synth::BuiltDataset built =
      synth::DatasetBuilder(dataset_config).build();
  ml::RandomForestConfig rf;
  rf.n_trees = smoke ? 8 : 16;
  rf.max_depth = 6;
  core::HistogramAdapter adapter(
      std::make_unique<ml::RandomForestClassifier>(rf), "bench-stream");
  std::vector<const evm::Bytecode*> codes;
  std::vector<int> labels;
  for (const synth::LabeledContract& sample : built.samples) {
    codes.push_back(&sample.code);
    labels.push_back(sample.phishing ? 1 : 0);
  }
  adapter.fit(codes, labels);
  return adapter;
}

ScenarioResult run_scenario(const std::string& name,
                            stream::ArrivalConfig arrivals,
                            core::HistogramAdapter& detector,
                            double duration_s) {
  stream::LiveChain live;
  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  engine_config.max_queue = 256;  // admission control: overload becomes shed
  serve::ScoringEngine engine(live.explorer(), detector, engine_config);

  stream::StreamConfig config;
  config.arrivals = arrivals;
  config.paced = true;
  config.blocks_per_s = 50.0;
  config.max_blocks =
      static_cast<std::uint64_t>(std::ceil(config.blocks_per_s * duration_s));
  // Safety net well above what the schedule can produce in duration_s; the
  // timed drain below is the real stop condition.
  config.max_requests = static_cast<std::uint64_t>(
      (arrivals.rate_per_s + arrivals.burst_rate_per_s) * duration_s * 4.0);

  stream::StreamCoordinator coordinator(live, engine, config);
  coordinator.start();
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(duration_s);
  const auto sample_at =
      start + std::chrono::duration<double>(duration_s * 0.5);
  // The windowed sample must be taken while traffic is flowing — that is
  // the whole point of the window (an operator's live p99, not a
  // post-mortem aggregate).
  bool sampled = false;
  obs::SloEvaluator::Evaluation live_eval;
  while (!coordinator.finished() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (!sampled && std::chrono::steady_clock::now() >= sample_at) {
      live_eval = coordinator.evaluate_slo();
      sampled = true;
    }
  }
  if (!sampled) live_eval = coordinator.evaluate_slo();
  coordinator.drain();
  const stream::StreamReport report = coordinator.report();

  ScenarioResult result;
  result.scenario = name;
  result.elapsed_s = report.elapsed_s;
  result.blocks = report.miner.blocks_mined;
  result.deployments = report.miner.deployments;
  result.submitted = report.submitted;
  result.completed = report.completed;
  result.failed = report.failed;
  result.shed = report.shed;
  result.sustained_rows_per_s = report.sustained_rows_per_s;
  result.shed_rate = report.submitted == 0
                         ? 0.0
                         : static_cast<double>(report.shed) /
                               static_cast<double>(report.submitted);
  result.error_rate = report.submitted == 0
                          ? 0.0
                          : static_cast<double>(report.failed) /
                                static_cast<double>(report.submitted);
  result.ingest_lag_blocks = report.ingest_lag_blocks;
  result.max_ingest_lag_blocks = report.max_ingest_lag_blocks;
  result.dedup_hit_rate = report.follower.dedup_hit_rate();
  result.cache_hit_rate = report.completed == 0
                              ? 0.0
                              : static_cast<double>(report.cache_hit_results) /
                                    static_cast<double>(report.completed);
  result.accounting_ok = report.accounting_ok();
  result.window_rate_per_sec = live_eval.window.rate_per_sec;
  result.window_p99_us = live_eval.window.p99_us;
  result.window_error_burn_rate = live_eval.burn_rate;
  result.shed_pressure = live_eval.shed_pressure;

  const auto stage_row = [](const char* stage, const char* kind,
                            const obs::LatencyHistogram& h) {
    StageRow row;
    row.stage = stage;
    row.kind = kind;
    row.count = h.count();
    row.mean_us = h.mean();
    row.p50_us = h.quantile(0.50);
    row.p95_us = h.quantile(0.95);
    row.p99_us = h.quantile(0.99);
    row.max_us = h.max_value();
    return row;
  };
  const serve::ServiceMetrics& sm = engine.metrics();
  result.stages.push_back(stage_row(
      "addr_queue", "wait",
      coordinator.registry().histogram("stream_stage_wait_us",
                                       obs::label("stage", "addr_queue"))));
  result.stages.push_back(stage_row("queue", "wait", sm.stage_queue_wait));
  result.stages.push_back(stage_row("extract", "service", sm.stage_extract));
  result.stages.push_back(stage_row("predict", "service", sm.stage_predict));
  return result;
}

/// Result of the socket-path scenario: LoadGenerator arrivals POSTed as
/// JSON-RPC frames at the RpcFrontend by real client connections.
struct NetworkResult {
  std::string scenario;
  double elapsed_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;             ///< engine kShed results
  std::uint64_t transport_errors = 0; ///< connect/send/recv failures
  double rps = 0.0;
  double shed_rate = 0.0;
  std::vector<StageRow> stages;
};

/// One blocking HTTP/1.1 request (Connection: close) against 127.0.0.1.
/// Returns the full response, or empty on a transport failure.
std::string rpc_round_trip(std::uint16_t port, const std::string& body,
                           obs::LatencyHistogram& connect_us) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const auto connect_start = std::chrono::steady_clock::now();
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  connect_us.record(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - connect_start)
                        .count());
  std::string request =
      "POST / HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json"
      "\r\nContent-Length: " + std::to_string(body.size()) +
      "\r\nConnection: close\r\n\r\n" + body;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      return {};
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

NetworkResult run_network_scenario(const std::string& name,
                                   stream::ArrivalConfig arrivals,
                                   core::HistogramAdapter& detector,
                                   double duration_s) {
  // Address pool: pre-mine so every arrival has a real contract to score
  // (the socket path benches the serving stack, not the miner).
  stream::LiveChain live;
  for (int i = 0; i < 40; ++i) live.mine_next_block();
  const chain::ChainTail tail = live.explorer().crawl_after(0);
  std::vector<evm::Address> pool;
  pool.reserve(tail.records.size());
  for (const chain::ContractRecord& record : tail.records) {
    pool.push_back(record.address);
  }

  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  engine_config.max_queue = 256;
  serve::ScoringEngine engine(live.explorer(), detector, engine_config);

  serve::RpcFrontend frontend(engine);
  frontend.start(0);  // ephemeral loopback port
  const std::uint16_t port = frontend.port();

  obs::LatencyHistogram connect_hist;
  obs::LatencyHistogram rtt_hist;
  std::atomic<std::uint64_t> requests{0}, ok{0}, shed{0}, transport{0};

  // One shared open-loop schedule, paced against a common epoch; client
  // threads take arrivals off it under a mutex so the aggregate traffic
  // matches the configured Poisson process.
  stream::LoadGenerator generator(arrivals);
  std::mutex generator_mutex;
  const auto epoch = std::chrono::steady_clock::now();
  const auto deadline = epoch + std::chrono::duration<double>(duration_s);

  const auto client = [&] {
    while (true) {
      double arrival_s = 0.0;
      std::size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(generator_mutex);
        generator.next_arrival();
        arrival_s = generator.virtual_time_s();
        index = generator.draw_index(pool.size());
      }
      const auto when = epoch + std::chrono::duration<double>(arrival_s);
      if (when >= deadline) return;
      std::this_thread::sleep_until(when);
      const std::string body =
          "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"phook_score\","
          "\"params\":[\"" + pool[index].to_hex() + "\"]}";
      requests.fetch_add(1, std::memory_order_relaxed);
      const auto sent_at = std::chrono::steady_clock::now();
      const std::string response = rpc_round_trip(port, body, connect_hist);
      if (response.empty()) {
        transport.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      rtt_hist.record(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - sent_at)
                          .count());
      if (response.find("\"shed\"") != std::string::npos) {
        shed.fetch_add(1, std::memory_order_relaxed);
      } else if (response.find("\"result\"") != std::string::npos) {
        ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        transport.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - epoch)
                               .count();

  NetworkResult result;
  result.scenario = name;
  result.elapsed_s = elapsed_s;
  result.requests = requests.load();
  result.ok = ok.load();
  result.shed = shed.load();
  result.transport_errors = transport.load();
  result.rps = elapsed_s > 0.0
                   ? static_cast<double>(result.ok) / elapsed_s
                   : 0.0;
  result.shed_rate = result.requests == 0
                         ? 0.0
                         : static_cast<double>(result.shed) /
                               static_cast<double>(result.requests);

  const auto stage_row = [](const char* stage, const char* kind,
                            const obs::LatencyHistogram& h) {
    StageRow row;
    row.stage = stage;
    row.kind = kind;
    row.count = h.count();
    row.mean_us = h.mean();
    row.p50_us = h.quantile(0.50);
    row.p95_us = h.quantile(0.95);
    row.p99_us = h.quantile(0.99);
    row.max_us = h.max_value();
    return row;
  };
  obs::MetricsRegistry& net_registry = frontend.server().metrics_registry();
  const serve::ServiceMetrics& sm = engine.metrics();
  result.stages.push_back(stage_row("connect", "service", connect_hist));
  result.stages.push_back(stage_row("rtt", "service", rtt_hist));
  result.stages.push_back(stage_row(
      "parse", "service",
      net_registry.histogram("net_stage_service_us",
                             obs::label("stage", "parse"))));
  result.stages.push_back(stage_row(
      "handle", "service",
      net_registry.histogram("net_stage_service_us",
                             obs::label("stage", "handle"))));
  result.stages.push_back(stage_row(
      "encode", "service",
      net_registry.histogram("net_stage_service_us",
                             obs::label("stage", "encode"))));
  result.stages.push_back(stage_row("queue", "wait", sm.stage_queue_wait));
  result.stages.push_back(stage_row("extract", "service", sm.stage_extract));
  result.stages.push_back(stage_row("predict", "service", sm.stage_predict));
  frontend.stop();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const double duration_s = smoke ? 1.5 : 8.0;
  std::printf("bench_stream%s: %0.1fs per scenario\n",
              smoke ? " [smoke]" : "", duration_s);

  core::HistogramAdapter detector = fit_detector(smoke);

  stream::ArrivalConfig steady = stream::LoadGenerator::steady_scenario();
  steady.rate_per_s = smoke ? 800.0 : 2000.0;
  stream::ArrivalConfig burst = stream::LoadGenerator::mempool_burst_scenario();
  if (smoke) {
    burst.rate_per_s = 400.0;
    burst.burst_rate_per_s = 8000.0;
  }

  std::vector<ScenarioResult> results;
  results.push_back(run_scenario("steady", steady, detector, duration_s));
  results.push_back(
      run_scenario("mempool_burst", burst, detector, duration_s));

  // Socket path: the same arrival model, but every request crosses a real
  // loopback TCP connection into the JSON-RPC front door. Per-request
  // connects bound the sane rate well below the in-process scenarios'.
  stream::ArrivalConfig rpc_arrivals = stream::LoadGenerator::steady_scenario();
  rpc_arrivals.rate_per_s = smoke ? 300.0 : 800.0;
  const NetworkResult network =
      run_network_scenario("rpc_steady", rpc_arrivals, detector, duration_s);

  for (const ScenarioResult& r : results) {
    std::printf(
        "  %-14s %7.0f rows/s  shed=%.3f err=%.3f lag=%llu dedup=%.2f "
        "cache=%.2f %s\n",
        r.scenario.c_str(), r.sustained_rows_per_s, r.shed_rate,
        r.error_rate, static_cast<unsigned long long>(r.ingest_lag_blocks),
        r.dedup_hit_rate, r.cache_hit_rate,
        r.accounting_ok ? "accounting-ok" : "ACCOUNTING-BROKEN");
    std::printf(
        "  %-14s window: %.0f req/s p99=%.0fus burn=%.2f pressure=%.2f\n",
        "", r.window_rate_per_sec, r.window_p99_us,
        r.window_error_burn_rate, r.shed_pressure);
    for (const StageRow& s : r.stages) {
      std::printf("  %-14s stage %-10s %-7s n=%-7llu p50=%8.1fus "
                  "p99=%8.1fus\n",
                  "", s.stage.c_str(), s.kind.c_str(),
                  static_cast<unsigned long long>(s.count), s.p50_us,
                  s.p99_us);
    }
  }

  std::printf(
      "  %-14s %7.0f req/s  requests=%llu ok=%llu shed=%llu transport=%llu\n",
      network.scenario.c_str(), network.rps,
      static_cast<unsigned long long>(network.requests),
      static_cast<unsigned long long>(network.ok),
      static_cast<unsigned long long>(network.shed),
      static_cast<unsigned long long>(network.transport_errors));
  for (const StageRow& s : network.stages) {
    std::printf("  %-14s stage %-10s %-7s n=%-7llu p50=%8.1fus "
                "p99=%8.1fus\n",
                "", s.stage.c_str(), s.kind.c_str(),
                static_cast<unsigned long long>(s.count), s.p50_us, s.p99_us);
  }

  FILE* out = std::fopen("BENCH_stream.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_stream.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"stream\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"duration_s\": %g,\n", duration_s);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::fprintf(
        out,
        "    {\"scenario\": \"%s\", \"elapsed_s\": %.4f, \"blocks\": %llu, "
        "\"deployments\": %llu, \"submitted\": %llu, \"completed\": %llu, "
        "\"failed\": %llu, \"shed\": %llu, \"sustained_rows_per_s\": %.2f, "
        "\"shed_rate\": %.6f, \"error_rate\": %.6f, "
        "\"ingest_lag_blocks\": %llu, \"max_ingest_lag_blocks\": %llu, "
        "\"dedup_hit_rate\": %.6f, \"cache_hit_rate\": %.6f, "
        "\"accounting_ok\": %s,\n",
        r.scenario.c_str(), r.elapsed_s,
        static_cast<unsigned long long>(r.blocks),
        static_cast<unsigned long long>(r.deployments),
        static_cast<unsigned long long>(r.submitted),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.shed), r.sustained_rows_per_s,
        r.shed_rate, r.error_rate,
        static_cast<unsigned long long>(r.ingest_lag_blocks),
        static_cast<unsigned long long>(r.max_ingest_lag_blocks),
        r.dedup_hit_rate, r.cache_hit_rate,
        r.accounting_ok ? "true" : "false");
    std::fprintf(
        out,
        "     \"window_rate_per_sec\": %.2f, \"window_p99_us\": %.2f, "
        "\"window_error_burn_rate\": %.6f, \"shed_pressure\": %.6f,\n",
        r.window_rate_per_sec, r.window_p99_us, r.window_error_burn_rate,
        r.shed_pressure);
    std::fprintf(out, "     \"stages\": [\n");
    for (std::size_t s = 0; s < r.stages.size(); ++s) {
      const StageRow& row = r.stages[s];
      std::fprintf(
          out,
          "       {\"stage\": \"%s\", \"kind\": \"%s\", \"count\": %llu, "
          "\"mean_us\": %.2f, \"p50_us\": %.2f, \"p95_us\": %.2f, "
          "\"p99_us\": %.2f, \"max_us\": %.2f}%s\n",
          row.stage.c_str(), row.kind.c_str(),
          static_cast<unsigned long long>(row.count), row.mean_us,
          row.p50_us, row.p95_us, row.p99_us, row.max_us,
          s + 1 < r.stages.size() ? "," : "");
    }
    std::fprintf(out, "     ]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(
      out,
      "  \"network\": {\"scenario\": \"%s\", \"elapsed_s\": %.4f, "
      "\"requests\": %llu, \"ok\": %llu, \"shed\": %llu, "
      "\"transport_errors\": %llu, \"rps\": %.2f, \"shed_rate\": %.6f,\n",
      network.scenario.c_str(), network.elapsed_s,
      static_cast<unsigned long long>(network.requests),
      static_cast<unsigned long long>(network.ok),
      static_cast<unsigned long long>(network.shed),
      static_cast<unsigned long long>(network.transport_errors), network.rps,
      network.shed_rate);
  std::fprintf(out, "   \"stages\": [\n");
  for (std::size_t s = 0; s < network.stages.size(); ++s) {
    const StageRow& row = network.stages[s];
    std::fprintf(
        out,
        "     {\"stage\": \"%s\", \"kind\": \"%s\", \"count\": %llu, "
        "\"mean_us\": %.2f, \"p50_us\": %.2f, \"p95_us\": %.2f, "
        "\"p99_us\": %.2f, \"max_us\": %.2f}%s\n",
        row.stage.c_str(), row.kind.c_str(),
        static_cast<unsigned long long>(row.count), row.mean_us, row.p50_us,
        row.p95_us, row.p99_us, row.max_us,
        s + 1 < network.stages.size() ? "," : "");
  }
  std::fprintf(out, "   ]}\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_stream.json\n");

  bool ok = true;
  for (const ScenarioResult& r : results) ok = ok && r.accounting_ok;
  // The socket path must have moved real traffic: zero scored responses
  // means the front door (or the clients) silently broke.
  ok = ok && network.ok > 0;
  return ok ? 0 : 1;
}

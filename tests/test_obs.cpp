// Telemetry layer tests: metrics registry exactness under concurrency,
// pinned histogram quantiles (the bucket-edge fix), Prometheus/JSON
// exposition shape and conformance (HELP lines, name/label validation),
// tracer ring semantics plus the async/flow causal events, request-context
// lifecycle, the sliding-window aggregator + SLO evaluator (driven by an
// injected clock), the TCP scrape server (including concurrent
// scrape-vs-write, exercised by the TSan leg), and the serve-stack trace
// integration (spans from >= 3 subsystems in one engine run).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/errors.hpp"
#include "common/logging.hpp"
#include "core/model_registry.hpp"
#include "ml/random_forest.hpp"
#include "net/scrape_server.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "serve/scoring_engine.hpp"
#include "synth/dataset_builder.hpp"

namespace phishinghook {
namespace {

// --- histogram quantiles (satellite 1: bucket-edge interpolation) -----------

TEST(ObsHistogram, SingleSampleIsExactAtEveryQuantile) {
  obs::LatencyHistogram histogram;
  histogram.record(777.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), 777.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 777.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 777.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 777.0);
  EXPECT_DOUBLE_EQ(histogram.max_value(), 777.0);
}

TEST(ObsHistogram, SingleSmallSampleDoesNotReadBucketEdge) {
  // Pre-fix behavior returned the bucket's upper edge (2.0 for a 0-valued
  // sample); the interpolated quantile must report the sample itself.
  obs::LatencyHistogram histogram;
  histogram.record(0.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
  histogram.record(1.0);
  EXPECT_LE(histogram.quantile(1.0), 1.0);
}

TEST(ObsHistogram, UniformBucketInterpolatesWithinClampedEdges) {
  // Four identical samples of 100 land in bucket [64, 128); upper edge
  // clamps to the observed max (100). k = floor(q*4):
  //   q=0.5 -> k=2 -> 64 + (100-64) * 3/4 = 91.
  obs::LatencyHistogram histogram;
  for (int i = 0; i < 4; ++i) histogram.record(100.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 91.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 100.0);  // k=3 -> frac=1 -> max
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), 73.0);   // k=0 -> 64 + 36/4
}

TEST(ObsHistogram, QuantilesNeverExceedObservedMax) {
  obs::LatencyHistogram histogram;
  for (int i = 0; i < 99; ++i) histogram.record(100.0);
  histogram.record(100000.0);
  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_NEAR(histogram.mean(), 1099.0, 1.0);
  EXPECT_LE(histogram.quantile(0.50), 128.0);
  EXPECT_GE(histogram.quantile(0.995), 65536.0);
  EXPECT_LE(histogram.quantile(0.995), 100000.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 100000.0);
}

TEST(ObsHistogram, EmptyHistogramReportsZero) {
  obs::LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
}

// --- registry ----------------------------------------------------------------

TEST(ObsRegistry, ConcurrentIncrementsSumExactly) {
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.counter("hits_total");
  obs::LatencyHistogram& histogram = registry.histogram("lat_us");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &histogram] {
      // Handles re-fetched per thread: same (name, labels) -> same cell.
      obs::Counter mine = registry.counter("hits_total");
      for (int i = 0; i < kPerThread; ++i) {
        mine.inc();
        histogram.record(static_cast<double>(i % 512));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsRegistry, SameNameSameCellDifferentLabelsDifferentCells) {
  obs::MetricsRegistry registry;
  obs::Counter a = registry.counter("fit_total", obs::label("model", "RF"));
  obs::Counter a2 = registry.counter("fit_total", obs::label("model", "RF"));
  obs::Counter b = registry.counter("fit_total", obs::label("model", "SVM"));
  a.inc(3);
  a2.inc(2);
  b.inc(7);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 7u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(ObsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry registry;
  registry.counter("x_total");
  EXPECT_THROW(registry.gauge("x_total"), InvalidArgument);
  EXPECT_THROW(registry.histogram("x_total"), InvalidArgument);
}

TEST(ObsRegistry, DefaultConstructedHandlesAreSafeNoops) {
  obs::Counter counter;
  obs::Gauge gauge;
  counter.inc();
  gauge.set(4.0);
  EXPECT_GE(counter.value(), 1u);  // null cell, shared; just must not crash
}

TEST(ObsRegistry, PrometheusExpositionShape) {
  obs::MetricsRegistry registry;
  registry.counter("b_total", obs::label("model", "Random Forest")).inc(4);
  registry.gauge("a_depth").set(2.5);
  registry.histogram("c_ms").record(10.0);

  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE a_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("a_depth 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE b_total counter"), std::string::npos);
  EXPECT_NE(text.find("b_total{model=\"Random Forest\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE c_ms summary"), std::string::npos);
  EXPECT_NE(text.find("c_ms{quantile=\"0.5\"} 10"), std::string::npos);
  EXPECT_NE(text.find("c_ms_count 1"), std::string::npos);
  // Sorted by name: a before b before c.
  EXPECT_LT(text.find("a_depth"), text.find("b_total"));
  EXPECT_LT(text.find("b_total"), text.find("c_ms"));
}

TEST(ObsRegistry, JsonDumpParsesAndRoundTripsValues) {
  obs::MetricsRegistry registry;
  registry.counter("hits_total").inc(12);
  registry.gauge("depth").set(3.0);
  registry.histogram("lat_us").record(50.0);
  std::ostringstream out;
  registry.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\":[{\"name\":\"hits_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"value\":12"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":[{\"name\":\"lat_us\""),
            std::string::npos);
  EXPECT_NE(json.find("\"p50\":50"), std::string::npos);
}

TEST(ObsRegistry, LabelEscapesQuotesAndBackslashes) {
  EXPECT_EQ(obs::label("k", "a\"b\\c"), "k=\"a\\\"b\\\\c\"");
}

// --- exposition conformance --------------------------------------------------

TEST(ObsRegistry, HelpLinesPrecedeTypeAndDefaultWhenUnset) {
  obs::MetricsRegistry registry;
  registry.counter("documented_total").inc();
  registry.gauge("bare_depth").set(1.0);
  registry.set_help("documented_total", "Requests seen since boot");

  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string text = out.str();
  // Every name gets a HELP/TYPE pair, HELP first (the exposition format
  // requires the comments to precede the samples).
  EXPECT_NE(text.find("# HELP documented_total Requests seen since boot\n"
                      "# TYPE documented_total counter\n"),
            std::string::npos);
  // Unset help falls back to a self-describing default instead of a bare
  // TYPE line.
  EXPECT_NE(text.find("# HELP bare_depth phishinghook gauge\n"
                      "# TYPE bare_depth gauge\n"),
            std::string::npos);
}

TEST(ObsRegistry, HelpTextEscapesBackslashAndNewline) {
  obs::MetricsRegistry registry;
  registry.counter("tricky_total");
  registry.set_help("tricky_total", "line one\nback\\slash");
  std::ostringstream out;
  registry.write_prometheus(out);
  EXPECT_NE(out.str().find("# HELP tricky_total line one\\nback\\\\slash\n"),
            std::string::npos);
}

TEST(ObsRegistry, SetHelpBeforeRegistrationAppliesLater) {
  obs::MetricsRegistry registry;
  registry.set_help("late_total", "registered after the help text");
  registry.counter("late_total").inc(2);
  std::ostringstream out;
  registry.write_prometheus(out);
  EXPECT_NE(out.str().find("# HELP late_total registered after the help"),
            std::string::npos);
}

TEST(ObsRegistry, InvalidMetricNamesRejectedAtRegistration) {
  obs::MetricsRegistry registry;
  EXPECT_THROW(registry.counter("1starts_with_digit"), InvalidArgument);
  EXPECT_THROW(registry.gauge("has space"), InvalidArgument);
  EXPECT_THROW(registry.histogram("dash-ed"), InvalidArgument);
  EXPECT_THROW(registry.counter(""), InvalidArgument);
  // Colons and underscores are part of the grammar.
  registry.counter("ns:subsystem_total").inc();
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ObsRegistry, MalformedLabelFragmentsRejectedAtRegistration) {
  obs::MetricsRegistry registry;
  EXPECT_THROW(registry.counter("ok_total", "notapair"), InvalidArgument);
  EXPECT_THROW(registry.counter("ok_total", "bad-key=\"v\""), InvalidArgument);
  EXPECT_THROW(registry.counter("ok_total", "k=unquoted"), InvalidArgument);
  // The obs::label helper always produces a valid fragment, including for
  // values that need escaping.
  registry.counter("ok_total", obs::label("model", "a\"b\\c")).inc();
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ObsRegistry, ValidatorsMatchTheExpositionGrammar) {
  EXPECT_TRUE(obs::valid_metric_name("serve_stage_wait_us"));
  EXPECT_TRUE(obs::valid_metric_name("_leading_underscore"));
  EXPECT_TRUE(obs::valid_metric_name("with:colon"));
  EXPECT_FALSE(obs::valid_metric_name("9teen"));
  EXPECT_FALSE(obs::valid_metric_name("no-dash"));
  EXPECT_FALSE(obs::valid_metric_name(""));
  EXPECT_TRUE(obs::valid_label_fragment(""));
  EXPECT_TRUE(obs::valid_label_fragment("k=\"v\""));
  EXPECT_TRUE(obs::valid_label_fragment("a=\"1\",b=\"2\""));
  EXPECT_TRUE(obs::valid_label_fragment(obs::label("k", "quo\"te")));
  EXPECT_FALSE(obs::valid_label_fragment("k=\"v\",")); // trailing comma
  EXPECT_FALSE(obs::valid_label_fragment("k:colon=\"v\""));
}

TEST(ObsRegistry, KindMismatchErrorNamesBothKinds) {
  obs::MetricsRegistry registry;
  registry.counter("x_total");
  try {
    registry.gauge("x_total");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    // The message must name the existing kind and the conflicting one, so
    // the collision is debuggable from the exception alone.
    EXPECT_NE(what.find("x_total"), std::string::npos);
    EXPECT_NE(what.find("counter"), std::string::npos);
    EXPECT_NE(what.find("gauge"), std::string::npos);
  }
}

// --- sliding window + SLO ----------------------------------------------------

// All window tests drive an injected clock: `t` is the current time in
// seconds, advanced explicitly, so bucket wraparound and jump behavior are
// deterministic.

TEST(ObsWindow, SnapshotAggregatesRecentRecords) {
  double t = 0.0;
  obs::SlidingWindowAggregator window({.window_seconds = 10.0,
                                       .bucket_count = 10},
                                      [&t] { return t; });
  window.record_ok(100.0);
  window.record_ok(100.0);
  t = 3.0;
  window.record_error(400.0);
  t = 5.0;

  const auto snap = window.snapshot();
  EXPECT_EQ(snap.total, 3u);
  EXPECT_EQ(snap.errors, 1u);
  EXPECT_DOUBLE_EQ(snap.rate_per_sec, 0.3);  // 3 over a 10s window
  EXPECT_NEAR(snap.error_ratio, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(snap.max_us, 400.0);
  EXPECT_GE(snap.p99_us, snap.p50_us);
  EXPECT_LE(snap.p99_us, snap.max_us);
}

TEST(ObsWindow, SingleSampleQuantilesAreExact) {
  double t = 0.0;
  obs::SlidingWindowAggregator window({}, [&t] { return t; });
  window.record_ok(777.0);
  const auto snap = window.snapshot();
  // Same clamped-edge interpolation as LatencyHistogram: one sample reads
  // back exactly at every quantile.
  EXPECT_DOUBLE_EQ(snap.p50_us, 777.0);
  EXPECT_DOUBLE_EQ(snap.p99_us, 777.0);
  EXPECT_DOUBLE_EQ(snap.max_us, 777.0);
}

TEST(ObsWindow, BucketWraparoundEvictsExactlyTheAgedBuckets) {
  double t = 0.5;
  obs::SlidingWindowAggregator window({.window_seconds = 10.0,
                                       .bucket_count = 10},
                                      [&t] { return t; });
  window.record_ok(10.0);  // epoch 0
  t = 5.5;
  window.record_ok(20.0);  // epoch 5
  window.record_ok(30.0);

  t = 9.5;  // both buckets still inside (epoch 9 window covers 0..9)
  EXPECT_EQ(window.snapshot().total, 3u);

  t = 10.5;  // epoch 10: the epoch-0 bucket just aged out
  EXPECT_EQ(window.snapshot().total, 2u);

  // Writing at epoch 10 reuses the slot epoch 0 occupied (10 % 10) without
  // resurrecting its old contents.
  window.record_error(40.0);
  const auto snap = window.snapshot();
  EXPECT_EQ(snap.total, 3u);
  EXPECT_EQ(snap.errors, 1u);

  t = 15.6;  // epoch 15: the epoch-5 pair ages out, epoch 10 survives
  EXPECT_EQ(window.snapshot().total, 1u);
  EXPECT_EQ(window.snapshot().errors, 1u);
}

TEST(ObsWindow, IdleWindowDecaysToEmpty) {
  double t = 1.0;
  obs::SlidingWindowAggregator window({.window_seconds = 10.0,
                                       .bucket_count = 10},
                                      [&t] { return t; });
  for (int i = 0; i < 50; ++i) window.record_ok(100.0);
  window.record_error(200.0);
  ASSERT_EQ(window.snapshot().total, 51u);

  t = 11.5;  // a whole window of silence
  const auto snap = window.snapshot();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_DOUBLE_EQ(snap.rate_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(snap.error_ratio, 0.0);
  EXPECT_DOUBLE_EQ(snap.p99_us, 0.0);
  EXPECT_DOUBLE_EQ(snap.max_us, 0.0);
}

TEST(ObsWindow, ForwardJumpLargerThanWindowDropsEverything) {
  double t = 0.0;
  obs::SlidingWindowAggregator window({.window_seconds = 10.0,
                                       .bucket_count = 10},
                                      [&t] { return t; });
  for (int i = 0; i < 7; ++i) window.record_ok(50.0);
  t = 1.0e6;  // suspend/resume-sized jump, far past any slot's epoch
  EXPECT_EQ(window.snapshot().total, 0u);
  window.record_ok(60.0);
  const auto snap = window.snapshot();
  EXPECT_EQ(snap.total, 1u);
  EXPECT_DOUBLE_EQ(snap.max_us, 60.0);
}

TEST(ObsWindow, BackwardJumpClampsToFurthestEpoch) {
  double t = 5.0;
  obs::SlidingWindowAggregator window({.window_seconds = 10.0,
                                       .bucket_count = 10},
                                      [&t] { return t; });
  window.record_ok(100.0);
  t = 1.0;  // hostile clock: steps backwards by 4s
  window.record_ok(200.0);  // lands in the clamped (furthest) epoch
  const auto snap = window.snapshot();
  EXPECT_EQ(snap.total, 2u);
  EXPECT_DOUBLE_EQ(snap.max_us, 200.0);
  // Time resuming forward keeps both inside the same window.
  t = 6.0;
  EXPECT_EQ(window.snapshot().total, 2u);
}

TEST(ObsWindow, InvalidConfigThrows) {
  EXPECT_THROW(
      obs::SlidingWindowAggregator({.window_seconds = 0.0, .bucket_count = 4}),
      InvalidArgument);
  EXPECT_THROW(
      obs::SlidingWindowAggregator({.window_seconds = -1.0, .bucket_count = 4}),
      InvalidArgument);
  EXPECT_THROW(
      obs::SlidingWindowAggregator({.window_seconds = 5.0, .bucket_count = 0}),
      InvalidArgument);
}

TEST(ObsSlo, BurnRateAndShedPressureTrackTheErrorBudget) {
  double t = 0.0;
  obs::SlidingWindowAggregator window({.window_seconds = 10.0,
                                       .bucket_count = 10},
                                      [&t] { return t; });
  obs::SloConfig slo;
  slo.target_error_ratio = 0.10;
  slo.shed_pressure_burn = 2.0;
  obs::SloEvaluator evaluator(window, slo);

  // Idle: nothing burning.
  auto eval = evaluator.evaluate();
  EXPECT_DOUBLE_EQ(eval.burn_rate, 0.0);
  EXPECT_FALSE(eval.error_breach);
  EXPECT_DOUBLE_EQ(eval.shed_pressure, 0.0);

  // Exactly on budget: 1 error in 10 -> burn 1.0, not a breach, pressure
  // already at 1/shed_pressure_burn (headroom to shed *before* breaching).
  for (int i = 0; i < 9; ++i) window.record_ok(100.0);
  window.record_error(100.0);
  eval = evaluator.evaluate();
  EXPECT_DOUBLE_EQ(eval.burn_rate, 1.0);
  EXPECT_FALSE(eval.error_breach);
  EXPECT_DOUBLE_EQ(eval.shed_pressure, 0.5);

  // Blow the budget: breach, pressure saturates at 1.
  for (int i = 0; i < 30; ++i) window.record_error(100.0);
  eval = evaluator.evaluate();
  EXPECT_DOUBLE_EQ(eval.burn_rate, 7.75);  // 31/40 errors over a 10% target
  EXPECT_TRUE(eval.error_breach);
  EXPECT_DOUBLE_EQ(eval.shed_pressure, 1.0);
}

TEST(ObsSlo, LatencySloUsesItsOwnTarget) {
  double t = 0.0;
  obs::SlidingWindowAggregator window({}, [&t] { return t; });
  obs::SloConfig slo;
  slo.target_error_ratio = 0.5;
  slo.target_p99_us = 500.0;
  obs::SloEvaluator evaluator(window, slo);

  window.record_ok(100.0);
  EXPECT_FALSE(evaluator.evaluate().latency_breach);
  for (int i = 0; i < 200; ++i) window.record_ok(4000.0);
  const auto eval = evaluator.evaluate();
  EXPECT_TRUE(eval.latency_breach);
  EXPECT_FALSE(eval.error_breach);  // all requests succeeded
  EXPECT_GT(eval.shed_pressure, 0.0);
}

TEST(ObsSlo, BreachCountersAreEdgeTriggeredPerEpisode) {
  double t = 0.0;
  obs::SlidingWindowAggregator window({.window_seconds = 10.0,
                                       .bucket_count = 10},
                                      [&t] { return t; });
  obs::SloConfig slo;
  slo.name = "avail";
  slo.target_error_ratio = 0.10;
  obs::SloEvaluator evaluator(window, slo);
  obs::MetricsRegistry registry;
  obs::Counter breaches = registry.counter(
      "stream_slo_breach_total", obs::label("slo", "avail:errors"));

  // Episode 1: many exports while the breach lasts -> one increment.
  window.record_error(100.0);
  evaluator.export_to(registry, "stream");
  evaluator.export_to(registry, "stream");
  evaluator.export_to(registry, "stream");
  EXPECT_EQ(breaches.value(), 1u);

  // Recovery: the window decays clean; exporting while healthy does not
  // count and re-arms the edge.
  t = 20.0;
  evaluator.export_to(registry, "stream");
  EXPECT_EQ(breaches.value(), 1u);

  // Episode 2 begins: exactly one more increment.
  window.record_error(100.0);
  evaluator.export_to(registry, "stream");
  evaluator.export_to(registry, "stream");
  EXPECT_EQ(breaches.value(), 2u);
}

TEST(ObsSlo, ExportPublishesWindowGauges) {
  double t = 0.0;
  obs::SlidingWindowAggregator window({.window_seconds = 10.0,
                                       .bucket_count = 10},
                                      [&t] { return t; });
  obs::SloEvaluator evaluator(window, {});
  obs::MetricsRegistry registry;
  for (int i = 0; i < 20; ++i) window.record_ok(100.0);
  evaluator.export_to(registry, "stream");

  EXPECT_DOUBLE_EQ(registry.gauge("stream_window_rate_per_sec").value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.gauge("stream_window_error_ratio").value(), 0.0);
  EXPECT_GT(registry.gauge("stream_window_p99_us").value(), 0.0);
  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("stream_error_burn_rate"), std::string::npos);
  EXPECT_NE(text.find("stream_shed_pressure"), std::string::npos);
  EXPECT_NE(text.find("# HELP stream_error_burn_rate"), std::string::npos);
}

TEST(ObsSlo, InvalidTargetsThrow) {
  obs::SlidingWindowAggregator window;
  obs::SloConfig bad;
  bad.target_error_ratio = 0.0;
  EXPECT_THROW(obs::SloEvaluator(window, bad), InvalidArgument);
  bad.target_error_ratio = 0.01;
  bad.shed_pressure_burn = 0.0;
  EXPECT_THROW(obs::SloEvaluator(window, bad), InvalidArgument);
}

// --- scrape server -----------------------------------------------------------

/// One-shot HTTP/1.0 GET against the loopback scrape server; returns the
/// raw response (headers + body), or "" on connect failure.
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ObsScrape, ServesMetricsVarsHealthzAnd404) {
  obs::MetricsRegistry registry;
  registry.counter("scrape_test_total").inc(3);
  net::ScrapeServer server;
  server.add_registry(registry);
  server.start(0);  // ephemeral
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE scrape_test_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("scrape_test_total 3"), std::string::npos);

  const std::string vars = http_get(server.port(), "/vars");
  EXPECT_NE(vars.find("200 OK"), std::string::npos);
  EXPECT_NE(vars.find("\"registries\":["), std::string::npos);
  EXPECT_NE(vars.find("scrape_test_total"), std::string::npos);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("{\"status\":\"ok\"}"), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  EXPECT_EQ(server.requests_served(), 4u);
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(ObsScrape, HooksRunPerScrapeAndHealthOverrides) {
  obs::MetricsRegistry registry;
  std::atomic<int> hook_runs{0};
  net::ScrapeServer server;
  server.add_registry(registry);
  server.add_pre_scrape_hook([&registry, &hook_runs] {
    registry.gauge("synced_value").set(static_cast<double>(++hook_runs));
  });
  server.set_health([] { return std::string("{\"status\":\"draining\"}"); });
  server.start(0);

  // Hooks fire per metrics/vars scrape, so the exposition always carries
  // the freshly synced value; query strings are ignored for routing.
  EXPECT_NE(http_get(server.port(), "/metrics").find("synced_value 1"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/vars?verbose=1").find("synced_value"),
            std::string::npos);
  EXPECT_EQ(hook_runs.load(), 2);

  // /healthz serves the caller's JSON and skips the scrape hooks.
  EXPECT_NE(http_get(server.port(), "/healthz").find("\"draining\""),
            std::string::npos);
  EXPECT_EQ(hook_runs.load(), 2);
  server.stop();
}

TEST(ObsScrape, StartTwiceThrows) {
  net::ScrapeServer server;
  server.start(0);
  EXPECT_THROW(server.start(0), StateError);
  server.stop();
}

TEST(ObsScrape, ConcurrentScrapesSeeConsistentResponsesUnderWrites) {
  // The TSan leg runs this: scrapes walk the registry while hot-path
  // threads hammer the cells. Every response must be a complete 200 with
  // the full exposition shape — never torn, never an error.
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.counter("busy_total");
  obs::LatencyHistogram& histogram = registry.histogram("busy_us");
  net::ScrapeServer server;
  server.add_registry(registry);
  server.start(0);

  std::atomic<bool> stop_writing{false};
  std::thread writer([&] {
    while (!stop_writing.load(std::memory_order_relaxed)) {
      counter.inc();
      histogram.record(123.0);
    }
  });

  constexpr int kScrapers = 4;
  constexpr int kScrapesEach = 20;
  std::atomic<int> good{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&] {
      for (int i = 0; i < kScrapesEach; ++i) {
        const std::string response = http_get(server.port(), "/metrics");
        if (response.find("200 OK") != std::string::npos &&
            response.find("# TYPE busy_total counter") != std::string::npos &&
            response.find("busy_us_count") != std::string::npos) {
          good.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& scraper : scrapers) scraper.join();
  stop_writing.store(true, std::memory_order_relaxed);
  writer.join();
  server.stop();

  EXPECT_EQ(good.load(), kScrapers * kScrapesEach);
  EXPECT_GE(server.requests_served(),
            static_cast<std::uint64_t>(kScrapers * kScrapesEach));
  EXPECT_GT(counter.value(), 0u);
}

// --- tracer ------------------------------------------------------------------

/// Minimal parser for the writer's own output: extracts (name, ts, dur)
/// triples without a JSON dependency.
std::vector<std::pair<std::string, std::pair<double, double>>> parse_events(
    const std::string& json) {
  std::vector<std::pair<std::string, std::pair<double, double>>> out;
  std::size_t at = 0;
  while ((at = json.find("{\"name\":\"", at)) != std::string::npos) {
    const std::size_t name_begin = at + 9;
    const std::size_t name_end = json.find('"', name_begin);
    const std::size_t ts_at = json.find("\"ts\":", name_end) + 5;
    const std::size_t dur_at = json.find("\"dur\":", name_end) + 6;
    out.emplace_back(
        json.substr(name_begin, name_end - name_begin),
        std::make_pair(std::strtod(json.c_str() + ts_at, nullptr),
                       std::strtod(json.c_str() + dur_at, nullptr)));
    at = name_end;
  }
  return out;
}

TEST(ObsTracer, NestedSpansRecordContainment) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(256);
  {
    obs::ScopedSpan outer(tracer, "outer");
    { obs::ScopedSpan inner(tracer, "inner", "detail"); }
  }
  tracer.disable();

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const auto events = parse_events(out.str());
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first, so it sorts and nests inside outer.
  std::map<std::string, std::pair<double, double>> by_name(events.begin(),
                                                           events.end());
  ASSERT_TRUE(by_name.contains("outer"));
  ASSERT_TRUE(by_name.contains("inner:detail"));
  const auto [outer_ts, outer_dur] = by_name["outer"];
  const auto [inner_ts, inner_dur] = by_name["inner:detail"];
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur + 1e-6);
  tracer.clear();
}

TEST(ObsTracer, RingOverflowDropsOldestAndCounts) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(8);  // tiny ring
  for (int i = 0; i < 20; ++i) {
    obs::ScopedSpan span(tracer, i < 12 ? "old" : "new");
  }
  tracer.disable();
  EXPECT_EQ(tracer.events_buffered(), 8u);
  EXPECT_EQ(tracer.events_dropped(), 12u);
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const auto events = parse_events(out.str());
  ASSERT_EQ(events.size(), 8u);
  for (const auto& [name, tsdur] : events) {
    EXPECT_EQ(name, "new");  // the 8 newest survive; the oldest 12 dropped
  }
  tracer.clear();
}

TEST(ObsTracer, DisabledSpansRecordNothing) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(64);
  tracer.clear();
  tracer.disable();
  { obs::ScopedSpan span(tracer, "ghost"); }
  EXPECT_EQ(tracer.events_buffered(), 0u);
}

TEST(ObsTracer, LongNamesTruncateSafely) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(16);
  const std::string long_name(200, 'x');
  { obs::ScopedSpan span(tracer, long_name.c_str(), "detail"); }
  tracer.disable();
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const auto events = parse_events(out.str());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first.size(), obs::Tracer::kMaxNameLength);
  tracer.clear();
}

TEST(ObsTracer, ExplicitEndStopsTheClock) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(16);
  {
    obs::ScopedSpan span(tracer, "stage");
    span.end();
    span.end();  // idempotent
  }
  tracer.disable();
  EXPECT_EQ(tracer.events_buffered(), 1u);
  tracer.clear();
}

// --- causal events (async slices + flow arrows) ------------------------------

TEST(ObsTracer, AsyncSlicesAndFlowArrowsExportWithSharedId) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(256);
  obs::RequestContext ctx = obs::mint_request(tracer);
  const std::uint64_t id = ctx.trace_id;
  ASSERT_NE(id, 0u);
  const double stage_start = tracer.now_us();
  tracer.flow_step(id);
  obs::stage_slice(ctx, "req.test_stage", stage_start, tracer.now_us(),
                   tracer);
  obs::finish_request(ctx, tracer);
  EXPECT_EQ(ctx.trace_id, 0u);  // finished: identity consumed
  tracer.disable();

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string json = out.str();
  char id_hex[32];
  std::snprintf(id_hex, sizeof(id_hex), "\"id\":\"0x%llx\"",
                static_cast<unsigned long long>(id));

  // The umbrella slice and the stage slice pair b/e events on the
  // request's id under the async category...
  EXPECT_NE(json.find("\"name\":\"request\",\"cat\":\"phook.req\",\"ph\":"
                      "\"b\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request\",\"cat\":\"phook.req\",\"ph\":"
                      "\"e\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"req.test_stage\",\"cat\":\"phook.req\","
                      "\"ph\":\"b\""),
            std::string::npos);
  // ...the flow arrow walks s -> t -> f on the same id, with the finish
  // binding to the enclosing slice ("bp":"e")...
  EXPECT_NE(json.find("\"cat\":\"phook.flow\",\"ph\":\"s\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"phook.flow\",\"ph\":\"t\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  // ...and every causal event renders the id as the same hex string.
  std::size_t id_count = 0;
  for (std::size_t at = json.find(id_hex); at != std::string::npos;
       at = json.find(id_hex, at + 1)) {
    ++id_count;
  }
  EXPECT_EQ(id_count, 7u);  // request b/e, stage b/e, flow s/t/f
  tracer.clear();
}

TEST(ObsTracer, AsyncEventsTakeExplicitRetroactiveTimestamps) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(64);
  // A queue-wait stage is only known at pop time; the slice must still be
  // drawable where it began.
  tracer.async_begin("req.queue", 42, 10.0);
  tracer.async_end("req.queue", 42, 250.0);
  tracer.disable();
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"ph\":\"b\",\"id\":\"0x2a\",\"pid\":1,\"tid\":1,"
                      "\"ts\":10"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\",\"id\":\"0x2a\",\"pid\":1,\"tid\":1,"
                      "\"ts\":250"),
            std::string::npos);
  tracer.clear();
}

TEST(ObsTracer, CausalEventsAreNoopsWhileDisabled) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(64);
  tracer.clear();
  tracer.disable();
  tracer.async_begin("ghost", 7, 0.0);
  tracer.flow_start(7);
  obs::RequestContext ctx = obs::mint_request(tracer);
  EXPECT_NE(ctx.trace_id, 0u);  // identity still minted (histograms need it)
  obs::finish_request(ctx, tracer);
  EXPECT_EQ(tracer.events_buffered(), 0u);
}

TEST(ObsTracer, ExportMetricsPublishesRingHealthWithMonotoneDropCounter) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(8);
  for (int i = 0; i < 12; ++i) {
    obs::ScopedSpan span(tracer, "spin");
  }
  obs::MetricsRegistry registry;
  tracer.export_metrics(registry);
  EXPECT_DOUBLE_EQ(registry.gauge("trace_events_buffered").value(), 8.0);
  EXPECT_DOUBLE_EQ(registry.gauge("trace_enabled").value(), 1.0);
  EXPECT_EQ(registry.counter("trace_events_dropped_total").value(), 4u);

  // No new drops between scrapes: the counter must not re-add the total.
  tracer.export_metrics(registry);
  EXPECT_EQ(registry.counter("trace_events_dropped_total").value(), 4u);

  // Four more overflowing spans: the delta (and only the delta) lands.
  for (int i = 0; i < 4; ++i) {
    obs::ScopedSpan span(tracer, "spin");
  }
  tracer.export_metrics(registry);
  EXPECT_EQ(registry.counter("trace_events_dropped_total").value(), 8u);

  tracer.disable();
  tracer.export_metrics(registry);
  EXPECT_DOUBLE_EQ(registry.gauge("trace_enabled").value(), 0.0);
  tracer.clear();
}

// --- request context ---------------------------------------------------------

TEST(ObsRequestContext, MintsUniqueIdsAndClampsQueueWait) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.disable();  // stamps and ids work without tracing
  obs::RequestContext a = obs::mint_request(tracer);
  obs::RequestContext b = obs::mint_request(tracer);
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_GE(a.handoff_us, 0.0);
  EXPECT_DOUBLE_EQ(a.born_us, a.handoff_us);  // freshly minted: no hand-off

  a.handoff_us = 100.0;
  EXPECT_DOUBLE_EQ(a.wait_us(150.0), 50.0);
  EXPECT_DOUBLE_EQ(a.wait_us(40.0), 0.0);  // clock rebased: clamp, not negative

  obs::finish_request(a, tracer);
  EXPECT_FALSE(a.valid());
  obs::finish_request(a, tracer);  // second finish is a safe no-op
  EXPECT_FALSE(obs::RequestContext{}.valid());
}

// --- structured logging ------------------------------------------------------

std::vector<std::string>& captured_lines() {
  static std::vector<std::string> lines;
  return lines;
}

void capture_writer(const std::string& line) {
  captured_lines().push_back(line);
}

class ObsLoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    captured_lines().clear();
    common::set_log_writer(&capture_writer);
    common::set_log_level(common::LogLevel::kDebug);
  }
  void TearDown() override {
    common::set_log_writer(nullptr);
    common::set_log_format(common::LogFormat::kText);
    common::set_log_level(common::LogLevel::kInfo);
  }
};

TEST_F(ObsLoggingTest, JsonLinesHaveTimestampLevelThreadAndFields) {
  common::set_log_format(common::LogFormat::kJson);
  common::log_event(common::LogLevel::kInfo, "synth.build",
                    {{"rows", 1200}, {"balanced", true}, {"name", "fig2"}});
  ASSERT_EQ(captured_lines().size(), 1u);
  const std::string& line = captured_lines()[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"ts\":\""), std::string::npos);
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(line.find("\"thread\":"), std::string::npos);
  EXPECT_NE(line.find("\"event\":\"synth.build\""), std::string::npos);
  EXPECT_NE(line.find("\"rows\":1200"), std::string::npos);       // unquoted
  EXPECT_NE(line.find("\"balanced\":true"), std::string::npos);   // bare bool
  EXPECT_NE(line.find("\"name\":\"fig2\""), std::string::npos);   // quoted
}

TEST_F(ObsLoggingTest, JsonModeWrapsPlainMessages) {
  common::set_log_format(common::LogFormat::kJson);
  common::log_info("hello \"world\"");
  ASSERT_EQ(captured_lines().size(), 1u);
  EXPECT_NE(captured_lines()[0].find("\"msg\":\"hello \\\"world\\\"\""),
            std::string::npos);
}

TEST_F(ObsLoggingTest, TextModeRendersKeyValuePairs) {
  common::log_event(common::LogLevel::kWarn, "cache.evict",
                    {{"shard", 3}, {"entries", 128}});
  ASSERT_EQ(captured_lines().size(), 1u);
  EXPECT_EQ(captured_lines()[0],
            "[phook WARN ] cache.evict shard=3 entries=128");
}

TEST_F(ObsLoggingTest, EventsBelowLevelAreSuppressed) {
  common::set_log_level(common::LogLevel::kError);
  common::log_event(common::LogLevel::kInfo, "quiet", {});
  EXPECT_TRUE(captured_lines().empty());
}

TEST(ObsLoggingEnv, NewPrefixWinsOverLegacy) {
  setenv("PHOOK_LOG", "error", 1);
  setenv("PHISHINGHOOK_LOG", "debug", 1);
  common::refresh_log_from_env();
  EXPECT_EQ(common::log_level(), common::LogLevel::kDebug);

  unsetenv("PHISHINGHOOK_LOG");
  common::refresh_log_from_env();
  EXPECT_EQ(common::log_level(), common::LogLevel::kError);

  unsetenv("PHOOK_LOG");
  setenv("PHOOK_LOG_FORMAT", "json", 1);
  common::refresh_log_from_env();
  EXPECT_EQ(common::log_format(), common::LogFormat::kJson);
  unsetenv("PHOOK_LOG_FORMAT");
  common::refresh_log_from_env();
  EXPECT_EQ(common::log_level(), common::LogLevel::kInfo);
  EXPECT_EQ(common::log_format(), common::LogFormat::kText);
}

// --- serve-stack integration -------------------------------------------------

TEST(ObsIntegration, EngineRunProducesSpansFromThreeSubsystems) {
  synth::DatasetConfig config;
  config.target_size = 60;
  config.seed = 5;
  const synth::BuiltDataset data = synth::DatasetBuilder(config).build();

  std::vector<const evm::Bytecode*> codes;
  std::vector<int> labels;
  std::vector<evm::Address> addresses;
  for (const synth::LabeledContract& sample : data.samples) {
    codes.push_back(&sample.code);
    labels.push_back(sample.phishing ? 1 : 0);
    addresses.push_back(sample.address);
  }
  ml::RandomForestConfig forest;
  forest.n_trees = 5;
  forest.seed = 1;
  core::HistogramAdapter detector(
      std::make_unique<ml::RandomForestClassifier>(forest), "Random Forest");
  detector.fit(codes, labels);

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(4096);
  {
    serve::EngineConfig engine_config;
    engine_config.workers = 2;
    engine_config.max_batch = 8;
    serve::ScoringEngine engine(*data.explorer, detector, engine_config);
    engine.score_all(addresses);
  }  // destructor joins the workers: rings quiesced before export
  tracer.disable();

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const auto events = parse_events(out.str());
  ASSERT_FALSE(events.empty());
  std::map<std::string, int> span_counts;
  for (const auto& [name, tsdur] : events) {
    span_counts[name.substr(0, name.find(':'))] += 1;
  }
  EXPECT_GT(span_counts["serve.batch"], 0);            // serving layer
  EXPECT_GT(span_counts["serve.predict"], 0);
  EXPECT_GT(span_counts["features.transform_all"], 0);  // feature pipeline
  EXPECT_GT(span_counts["model.predict"], 0);           // model layer
  tracer.clear();
}

TEST(ObsIntegration, EnginePrometheusExpositionIncludesCacheCounters) {
  synth::DatasetConfig config;
  config.target_size = 40;
  config.seed = 6;
  const synth::BuiltDataset data = synth::DatasetBuilder(config).build();
  std::vector<const evm::Bytecode*> codes;
  std::vector<int> labels;
  std::vector<evm::Address> addresses;
  for (const synth::LabeledContract& sample : data.samples) {
    codes.push_back(&sample.code);
    labels.push_back(sample.phishing ? 1 : 0);
    addresses.push_back(sample.address);
  }
  ml::RandomForestConfig forest;
  forest.n_trees = 3;
  core::HistogramAdapter detector(
      std::make_unique<ml::RandomForestClassifier>(forest), "Random Forest");
  detector.fit(codes, labels);

  serve::EngineConfig engine_config;
  engine_config.workers = 1;
  serve::ScoringEngine engine(*data.explorer, detector, engine_config);
  engine.score_all(addresses);
  engine.score_all(addresses);  // warm pass: cache hits
  engine.shutdown();

  std::ostringstream out;
  engine.dump_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE serve_requests_completed counter"),
            std::string::npos);
  EXPECT_NE(text.find("serve_cache_hits "), std::string::npos);
  EXPECT_NE(text.find("serve_cache_hit_rate "), std::string::npos);
  EXPECT_NE(text.find("serve_request_latency_us{quantile=\"0.5\"}"),
            std::string::npos);
  // Two engines never share counts: a fresh engine's registry starts clean.
  serve::ScoringEngine fresh(*data.explorer, detector, engine_config);
  EXPECT_EQ(fresh.metrics().requests_completed.value(), 0u);
}

TEST(ObsIntegration, ResultsCarryTraceIdsAndStageAttribution) {
  synth::DatasetConfig config;
  config.target_size = 40;
  config.seed = 7;
  const synth::BuiltDataset data = synth::DatasetBuilder(config).build();
  std::vector<const evm::Bytecode*> codes;
  std::vector<int> labels;
  std::vector<evm::Address> addresses;
  for (const synth::LabeledContract& sample : data.samples) {
    codes.push_back(&sample.code);
    labels.push_back(sample.phishing ? 1 : 0);
    addresses.push_back(sample.address);
  }
  ml::RandomForestConfig forest;
  forest.n_trees = 3;
  core::HistogramAdapter detector(
      std::make_unique<ml::RandomForestClassifier>(forest), "Random Forest");
  detector.fit(codes, labels);

  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  serve::ScoringEngine engine(*data.explorer, detector, engine_config);
  const std::vector<serve::ScoreResult> results = engine.score_all(addresses);
  engine.shutdown();

  // Every result names its causal lane (ids are unique per request) and
  // reports how long it was parked before a worker picked it up.
  std::set<std::uint64_t> ids;
  for (const serve::ScoreResult& result : results) {
    EXPECT_NE(result.trace_id, 0u);
    ids.insert(result.trace_id);
    EXPECT_GE(result.queue_wait_us, 0.0);
    // The wait is a slice of the end-to-end latency; allow scheduler slack
    // between the hand-off stamp and the latency timer start.
    EXPECT_LE(result.queue_wait_us, result.latency_us + 1000.0);
  }
  EXPECT_EQ(ids.size(), results.size());

  // Latency attribution: queue-wait is recorded once per popped request,
  // extraction once per non-shed slot, inference for every slot that
  // actually needed the model.
  const serve::ServiceMetrics& metrics = engine.metrics();
  EXPECT_EQ(metrics.stage_queue_wait.count(), addresses.size());
  EXPECT_EQ(metrics.stage_extract.count(), addresses.size());
  EXPECT_GT(metrics.stage_predict.count(), 0u);
  EXPECT_LE(metrics.stage_predict.count(), addresses.size());

  // The per-stage series join the exposition, labeled by stage.
  std::ostringstream out;
  engine.dump_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("serve_stage_wait_us{stage=\"queue\""),
            std::string::npos);
  EXPECT_NE(text.find("serve_stage_service_us{stage=\"extract\""),
            std::string::npos);
  EXPECT_NE(text.find("serve_stage_service_us{stage=\"predict\""),
            std::string::npos);
}

}  // namespace
}  // namespace phishinghook

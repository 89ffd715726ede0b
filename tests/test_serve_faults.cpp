// Chaos suite for the fault-isolated serving path: deterministic fault
// injection at the explorer, per-slot error isolation in the scoring
// engine, retry of transient extract faults, admission control and
// deadline shedding — and the accounting invariant that every submission
// ends up in exactly one of completed / failed / shed.
//
// The TSan leg of ci.sh runs this whole file: workers, producers, the
// fault injector's attempt map, and the metrics cells all race here on
// purpose.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chain/fault_injection.hpp"
#include "common/retry.hpp"
#include "core/model_registry.hpp"
#include "ml/random_forest.hpp"
#include "serve/scoring_engine.hpp"
#include "synth/dataset_builder.hpp"

namespace phishinghook {
namespace {

// One small dataset shared by the whole suite (building it is the slow
// part; these tests only need addresses + codes + the chain).
const synth::BuiltDataset& dataset() {
  static const synth::BuiltDataset built = [] {
    synth::DatasetConfig config;
    config.target_size = 160;
    config.seed = 97;
    return synth::DatasetBuilder(config).build();
  }();
  return built;
}

core::HistogramAdapter fitted_adapter() {
  ml::RandomForestConfig config;
  config.n_trees = 8;
  config.max_depth = 6;
  core::HistogramAdapter adapter(
      std::make_unique<ml::RandomForestClassifier>(config), "test-detector");
  std::vector<const evm::Bytecode*> codes;
  std::vector<int> labels;
  for (const synth::LabeledContract& sample : dataset().samples) {
    codes.push_back(&sample.code);
    labels.push_back(sample.phishing ? 1 : 0);
  }
  adapter.fit(codes, labels);
  return adapter;
}

std::vector<evm::Address> all_addresses() {
  std::vector<evm::Address> out;
  for (const synth::LabeledContract& sample : dataset().samples) {
    out.push_back(sample.address);
  }
  return out;
}

/// Detector decorator whose predict_proba can be told to throw — the
/// "model backend fell over" half of the chaos matrix.
class FailingDetector final : public core::PhishingClassifier {
 public:
  explicit FailingDetector(core::PhishingClassifier& inner)
      : inner_(&inner) {}

  void fit(const std::vector<const evm::Bytecode*>& codes,
           const std::vector<int>& labels) override {
    inner_->fit(codes, labels);
  }
  std::vector<double> predict_proba(
      const std::vector<const evm::Bytecode*>& codes) override {
    if (fail.load()) throw Error("model backend exploded");
    return inner_->predict_proba(codes);
  }
  std::string name() const override { return "failing"; }
  core::ModelCategory category() const override {
    return inner_->category();
  }

  std::atomic<bool> fail{false};

 private:
  core::PhishingClassifier* inner_;
};

/// Sum of the three terminal counters; must equal submissions once the
/// engine has drained.
std::uint64_t terminal_total(const serve::ServiceMetrics& metrics) {
  return metrics.requests_completed.value() +
         metrics.requests_failed.value() + metrics.requests_shed.value();
}

/// Admits `wave` through the engine's callback primitive and waits for
/// every row; nullopt when the engine refused the wave.
std::optional<std::vector<serve::ScoreResult>> submit_wave(
    serve::ScoringEngine& engine, const std::vector<evm::Address>& wave) {
  struct Rows {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<serve::ScoreResult> results;
    std::size_t left = 0;
  };
  auto rows = std::make_shared<Rows>();
  rows->results.resize(wave.size());
  rows->left = wave.size();
  if (!engine.try_submit_many(
          wave, {}, [rows](std::size_t index, serve::ScoreResult result) {
            std::lock_guard<std::mutex> lock(rows->mutex);
            rows->results[index] = std::move(result);
            if (--rows->left == 0) rows->cv.notify_all();
          })) {
    return std::nullopt;
  }
  std::unique_lock<std::mutex> lock(rows->mutex);
  rows->cv.wait(lock, [&] { return rows->left == 0; });
  return std::move(rows->results);
}

// --- RetryPolicy -------------------------------------------------------------

TEST(RetryPolicy, BackoffIsDeterministicBoundedAndGrowing) {
  common::RetryPolicy policy;
  policy.base_delay_us = 100;
  policy.multiplier = 2.0;
  policy.max_delay_us = 10'000;
  policy.jitter = 0.5;
  policy.seed = 7;

  for (std::size_t retry = 1; retry <= 8; ++retry) {
    const std::uint64_t a = policy.delay_us(retry, 1234);
    const std::uint64_t b = policy.delay_us(retry, 1234);
    EXPECT_EQ(a, b) << "jitter must be a pure function, retry " << retry;
    const double raw =
        std::min(100.0 * std::pow(2.0, static_cast<double>(retry - 1)),
                 10'000.0);
    EXPECT_LE(static_cast<double>(a), raw);
    EXPECT_GE(static_cast<double>(a), raw * 0.5 - 1.0);
  }
  // Different salts decorrelate.
  std::set<std::uint64_t> delays;
  for (std::uint64_t salt = 0; salt < 16; ++salt) {
    delays.insert(policy.delay_us(3, salt));
  }
  EXPECT_GT(delays.size(), 8u);
}

TEST(RetryPolicy, RetriesTransientFaultsOnly) {
  common::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_delay_us = 1;  // keep the test fast
  policy.max_delay_us = 10;

  int calls = 0, retries = 0;
  const int result = policy.run(
      [&] {
        if (++calls < 3) throw TransientError("blip");
        return 42;
      },
      /*salt=*/1, [&] { ++retries; });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2);

  // Permanent faults propagate immediately, no retry.
  calls = retries = 0;
  EXPECT_THROW(policy.run(
                   [&]() -> int {
                     ++calls;
                     throw ParseError("corrupt");
                   },
                   1, [&] { ++retries; }),
               ParseError);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0);

  // Exhaustion rethrows the transient fault after max_attempts tries.
  calls = retries = 0;
  EXPECT_THROW(policy.run(
                   [&]() -> int {
                     ++calls;
                     throw TransientError("still down");
                   },
                   1, [&] { ++retries; }),
               TransientError);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(retries, 3);
}

// --- FaultInjectingExplorer --------------------------------------------------

TEST(FaultInjection, ScheduleIsSeededAndReplayable) {
  const std::vector<evm::Address> addresses = all_addresses();
  chain::FaultConfig config;
  config.throw_rate = 0.2;
  config.empty_rate = 0.1;
  config.seed = 11;

  // Two decorators with the same seed produce the same outcome at every
  // (address, attempt) — the property every determinism test builds on —
  // whichever code read (get_code or stored_code) spends the attempt.
  auto outcomes = [&](const chain::FaultInjectingExplorer& explorer,
                      bool stored) {
    std::string trace;
    for (int attempt = 0; attempt < 3; ++attempt) {
      for (const evm::Address& address : addresses) {
        try {
          const bool empty = stored ? explorer.stored_code(address)->code->empty()
                                    : explorer.get_code(address).empty();
          trace += empty ? 'e' : 'c';
        } catch (const TransientError&) {
          trace += 't';
        }
      }
    }
    return trace;
  };
  const chain::FaultInjectingExplorer a(*dataset().explorer, config);
  const chain::FaultInjectingExplorer b(*dataset().explorer, config);
  const chain::FaultInjectingExplorer b_stored(*dataset().explorer, config);
  const std::string trace_a = outcomes(a, false);
  EXPECT_EQ(trace_a, outcomes(b, false));
  EXPECT_EQ(trace_a, outcomes(b_stored, true));
  EXPECT_NE(trace_a.find('t'), std::string::npos);

  // A different seed gives a different schedule.
  config.seed = 12;
  const chain::FaultInjectingExplorer c(*dataset().explorer, config);
  EXPECT_NE(trace_a, outcomes(c, false));

  // Injected counts roughly match the configured mix over 480 calls.
  const chain::FaultStats stats = a.stats();
  EXPECT_EQ(stats.calls, addresses.size() * 3);
  EXPECT_GT(stats.throws, stats.calls / 10);
  EXPECT_LT(stats.throws, stats.calls / 3);
  EXPECT_GT(stats.empties, 0u);

  EXPECT_THROW(chain::FaultInjectingExplorer(
                   *dataset().explorer, {.throw_rate = 0.9, .empty_rate = 0.9}),
               InvalidArgument);
}

TEST(FaultInjection, TryReadReportsAnInjectedStallAsBusy) {
  chain::FaultConfig config;
  config.latency_rate = 1.0;
  config.latency_us = 1'000'000;  // a waiting read would take 1 s
  const chain::FaultInjectingExplorer stalled(*dataset().explorer, config);
  const evm::Address address = all_addresses().front();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(
      stalled.stored_code(address, chain::ReadMode::kTry).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500));
  EXPECT_EQ(stalled.stats().delays, 1u);
}

TEST(FaultInjection, LabelPathDelegatesUnfaulted) {
  chain::FaultConfig config;
  config.throw_rate = 1.0;  // code path always faults...
  const chain::FaultInjectingExplorer chaos(*dataset().explorer, config);
  // ...but labels and crawls pass straight through to the inner explorer.
  EXPECT_EQ(chaos.flagged_count(), dataset().explorer->flagged_count());
  for (const synth::LabeledContract& sample : dataset().samples) {
    EXPECT_EQ(chaos.is_flagged_phishing(sample.address),
              dataset().explorer->is_flagged_phishing(sample.address));
  }
}

// --- chaos through the scoring engine ---------------------------------------

TEST(ChaosEngine, ThrowingExplorerDoesNotKillWorkersOrTheBatch) {
  core::HistogramAdapter adapter = fitted_adapter();
  chain::FaultConfig faults;
  faults.throw_rate = 0.25;
  faults.seed = 5;
  const chain::FaultInjectingExplorer chaos(*dataset().explorer, faults);

  serve::EngineConfig config;
  config.workers = 4;
  config.max_batch = 8;
  config.extract_retry.max_attempts = 1;  // surface every injected fault
  serve::ScoringEngine engine(chaos, adapter, config);

  const std::vector<evm::Address> addresses = all_addresses();
  const std::vector<serve::ScoreResult> results = engine.score_all(addresses);

  ASSERT_EQ(results.size(), addresses.size());
  std::size_t ok = 0, failed = 0;
  for (const serve::ScoreResult& result : results) {
    switch (result.status) {
      case serve::ScoreStatus::kOk:
        ++ok;
        EXPECT_TRUE(result.error.empty());
        break;
      case serve::ScoreStatus::kExtractError:
        ++failed;
        EXPECT_NE(result.error.find("injected explorer fault"),
                  std::string::npos);
        EXPECT_EQ(result.probability, 0.0);
        break;
      case serve::ScoreStatus::kEmptyCode:
        break;
      default:
        FAIL() << "unexpected status " << serve::to_string(result.status);
    }
  }
  // ~25% of 160 extracts throw: both populations must be present, and the
  // workers must all still be alive to have produced them.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(engine.metrics().requests_failed.value(), failed);
  EXPECT_EQ(terminal_total(engine.metrics()),
            engine.metrics().requests_submitted.value());

  // The engine keeps serving after a fault storm.
  const std::vector<serve::ScoreResult> again = engine.score_all(addresses);
  EXPECT_EQ(again.size(), addresses.size());
}

TEST(ChaosEngine, RetryRecoversTransientExtractFaults) {
  core::HistogramAdapter adapter = fitted_adapter();
  const std::vector<evm::Address> addresses = all_addresses();

  auto failures_with_attempts = [&](std::size_t attempts) {
    chain::FaultConfig faults;
    faults.throw_rate = 0.25;
    faults.seed = 5;
    const chain::FaultInjectingExplorer chaos(*dataset().explorer, faults);
    serve::EngineConfig config;
    config.workers = 2;
    config.extract_retry.max_attempts = attempts;
    config.extract_retry.base_delay_us = 1;
    config.extract_retry.max_delay_us = 50;
    serve::ScoringEngine engine(chaos, adapter, config);
    std::size_t failed = 0;
    for (const serve::ScoreResult& r : engine.score_all(addresses)) {
      failed += r.status == serve::ScoreStatus::kExtractError;
    }
    if (attempts > 1) {
      EXPECT_GT(engine.metrics().retries.value(), 0u);
    }
    return failed;
  };

  const std::size_t without_retry = failures_with_attempts(1);
  const std::size_t with_retry = failures_with_attempts(3);
  EXPECT_GT(without_retry, 0u);
  // Three tries at p=0.25 fail together with p=~0.016: retries must
  // recover the overwhelming majority of transient faults.
  EXPECT_LT(with_retry, without_retry / 2);
}

TEST(ChaosEngine, CacheHitsAndEmptyCodeSurviveModelFailure) {
  core::HistogramAdapter adapter = fitted_adapter();
  FailingDetector detector(adapter);

  serve::EngineConfig config;
  config.workers = 1;
  config.max_batch = 8;
  serve::ScoringEngine engine(*dataset().explorer, detector, config);

  // Find two addresses with distinct code hashes.
  const std::vector<evm::Address> addresses = all_addresses();
  const evm::Address warm = addresses.front();
  evm::Address cold = addresses.front();
  const evm::Hash256 warm_hash =
      dataset().explorer->get_code(warm).code_hash();
  for (const evm::Address& candidate : addresses) {
    if (dataset().explorer->get_code(candidate).code_hash() != warm_hash) {
      cold = candidate;
      break;
    }
  }
  ASSERT_NE(dataset().explorer->get_code(cold).code_hash(), warm_hash);

  const serve::ScoreResult warmed = engine.submit(warm).get();
  ASSERT_EQ(warmed.status, serve::ScoreStatus::kOk);

  detector.fail = true;
  const serve::ScoreResult hit = engine.submit(warm).get();
  const serve::ScoreResult miss = engine.submit(cold).get();
  const serve::ScoreResult empty =
      engine.submit(evm::Address::from_hex(
                        "0x00000000000000000000000000000000000000ff"))
          .get();

  // The cache hit and the empty-code answer are valid results and must be
  // delivered even though predict_proba threw for the same traffic.
  EXPECT_EQ(hit.status, serve::ScoreStatus::kOk);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.probability, warmed.probability);
  EXPECT_EQ(miss.status, serve::ScoreStatus::kModelError);
  EXPECT_NE(miss.error.find("model backend exploded"), std::string::npos);
  EXPECT_EQ(empty.status, serve::ScoreStatus::kEmptyCode);

  // Failures are not cached: the model heals and the cold address scores.
  detector.fail = false;
  const serve::ScoreResult healed = engine.submit(cold).get();
  EXPECT_EQ(healed.status, serve::ScoreStatus::kOk);
  EXPECT_FALSE(healed.cache_hit);

  EXPECT_EQ(engine.metrics().requests_failed.value(), 1u);
  EXPECT_EQ(terminal_total(engine.metrics()),
            engine.metrics().requests_submitted.value());
}

TEST(ChaosEngine, FullQueueRejectsInsteadOfGrowing) {
  core::HistogramAdapter adapter = fitted_adapter();
  chain::FaultConfig faults;
  faults.latency_rate = 1.0;  // every extract stalls: the queue backs up
  faults.latency_us = 2000;
  const chain::FaultInjectingExplorer slow(*dataset().explorer, faults);

  serve::EngineConfig config;
  config.workers = 1;
  config.max_batch = 1;
  config.max_queue = 2;
  serve::ScoringEngine engine(slow, adapter, config);

  const std::vector<evm::Address> addresses = all_addresses();
  std::vector<std::future<serve::ScoreResult>> futures;
  for (std::size_t i = 0; i < 16; ++i) {
    futures.push_back(engine.submit(addresses[i]));
  }
  std::size_t shed = 0, served = 0;
  for (auto& future : futures) {
    const serve::ScoreResult result = future.get();  // all resolve
    if (result.status == serve::ScoreStatus::kShed) {
      ++shed;
      EXPECT_NE(result.error.find("queue full"), std::string::npos);
    } else {
      ++served;
    }
  }
  // 16 near-instant submissions against a 1-deep/2ms pipeline with a
  // 2-slot queue: most must be rejected, but whatever was admitted serves.
  EXPECT_GT(shed, 0u);
  EXPECT_GT(served, 0u);
  EXPECT_EQ(engine.metrics().requests_shed.value(), shed);
  EXPECT_EQ(terminal_total(engine.metrics()), 16u);
}

TEST(ChaosEngine, WaveAgainstFullQueueAdmitsExactlyTheRoom) {
  core::HistogramAdapter adapter = fitted_adapter();
  serve::EngineConfig config;
  config.workers = 1;
  config.max_queue = 4;
  serve::ScoringEngine engine(*dataset().explorer, adapter, config);

  const std::vector<evm::Address> addresses = all_addresses();
  const std::vector<evm::Address> wave(addresses.begin(),
                                       addresses.begin() + 16);
  const std::optional<std::vector<serve::ScoreResult>> results =
      submit_wave(engine, wave);
  ASSERT_TRUE(results.has_value());
  ASSERT_EQ(results->size(), 16u);
  // The wave is admitted under one lock into an idle engine: the first
  // four rows fill the queue, the other twelve are shed on the spot.
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const serve::ScoreResult& result = (*results)[i];
    EXPECT_EQ(result.address, wave[i]);
    if (i < 4) {
      EXPECT_TRUE(result.ok()) << "row " << i;
    } else {
      EXPECT_EQ(result.status, serve::ScoreStatus::kShed) << "row " << i;
      EXPECT_NE(result.error.find("queue full"), std::string::npos);
    }
  }
  EXPECT_EQ(engine.metrics().requests_shed.value(), 12u);
  EXPECT_EQ(engine.metrics().requests_submitted.value(), 16u);
  EXPECT_EQ(terminal_total(engine.metrics()),
            engine.metrics().requests_submitted.value());
}

TEST(ChaosEngine, WaveAfterShutdownIsRefusedAndCountsNothing) {
  core::HistogramAdapter adapter = fitted_adapter();
  serve::EngineConfig config;
  config.workers = 2;
  serve::ScoringEngine engine(*dataset().explorer, adapter, config);

  const std::vector<evm::Address> addresses = all_addresses();
  const std::vector<evm::Address> wave(addresses.begin(),
                                       addresses.begin() + 8);
  engine.score_all(wave);
  engine.shutdown();

  const serve::ServiceMetrics& m = engine.metrics();
  const std::uint64_t submitted = m.requests_submitted.value();
  const std::uint64_t terminal = terminal_total(m);
  EXPECT_FALSE(submit_wave(engine, wave).has_value());
  EXPECT_FALSE(engine.try_submit(wave.front()).has_value());
  EXPECT_THROW(engine.score_all(wave), StateError);
  EXPECT_EQ(m.requests_submitted.value(), submitted);
  EXPECT_EQ(terminal_total(m), terminal);
  EXPECT_EQ(submitted, terminal);
}

TEST(ChaosEngine, ExpiredDeadlinesAreShedBeforeScoring) {
  core::HistogramAdapter adapter = fitted_adapter();
  chain::FaultConfig faults;
  faults.latency_rate = 1.0;
  faults.latency_us = 5000;
  const chain::FaultInjectingExplorer slow(*dataset().explorer, faults);

  serve::EngineConfig config;
  config.workers = 1;
  config.max_batch = 1;
  config.deadline_us = 500;  // far below the 5ms injected stall
  serve::ScoringEngine engine(slow, adapter, config);

  const std::vector<evm::Address> addresses = all_addresses();
  std::vector<std::future<serve::ScoreResult>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    futures.push_back(engine.submit(addresses[i]));
  }
  std::size_t shed = 0;
  for (auto& future : futures) {
    const serve::ScoreResult result = future.get();
    if (result.status == serve::ScoreStatus::kShed) {
      ++shed;
      EXPECT_NE(result.error.find("deadline exceeded"), std::string::npos);
    }
  }
  // Request 1 occupies the worker for 5ms; the ones queued behind it blow
  // their 500us budget and must be shed without extract/model work.
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(engine.metrics().requests_shed.value(), shed);
  EXPECT_EQ(terminal_total(engine.metrics()), 8u);
}

TEST(ChaosEngine, OutcomeIsDeterministicAcrossThreadCounts) {
  core::HistogramAdapter adapter = fitted_adapter();
  const std::vector<evm::Address> addresses = all_addresses();

  // Same seed, same submission list, 1 worker vs 4: the per-(address,
  // attempt) fault schedule plus deterministic retry must produce the same
  // terminal status and probability for every request.
  auto run = [&](std::size_t workers) {
    chain::FaultConfig faults;
    faults.throw_rate = 0.3;
    faults.empty_rate = 0.1;
    faults.seed = 42;
    const chain::FaultInjectingExplorer chaos(*dataset().explorer, faults);
    serve::EngineConfig config;
    config.workers = workers;
    config.max_batch = 8;
    config.extract_retry.max_attempts = 2;
    config.extract_retry.base_delay_us = 1;
    config.extract_retry.max_delay_us = 50;
    serve::ScoringEngine engine(chaos, adapter, config);
    std::vector<std::pair<serve::ScoreStatus, double>> out;
    for (const serve::ScoreResult& r : engine.score_all(addresses)) {
      out.emplace_back(r.status, r.probability);
    }
    return out;
  };

  const auto single = run(1);
  const auto quad = run(4);
  ASSERT_EQ(single.size(), quad.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].first, quad[i].first) << "address " << i;
    EXPECT_EQ(single[i].second, quad[i].second) << "address " << i;
  }
}

TEST(ChaosEngine, TenPercentFaultRateOverThousandSubmissionsAccountsExactly) {
  // The acceptance scenario: 10% injected throw rate, 1,000 submissions
  // from concurrent producers, zero aborts, every future resolves with a
  // definite status, and completed + failed + shed == submitted.
  core::HistogramAdapter adapter = fitted_adapter();
  chain::FaultConfig faults;
  faults.throw_rate = 0.10;
  faults.seed = 2026;
  const chain::FaultInjectingExplorer chaos(*dataset().explorer, faults);

  serve::EngineConfig config;
  config.workers = 4;
  config.max_batch = 16;
  config.extract_retry.base_delay_us = 1;
  config.extract_retry.max_delay_us = 100;
  serve::ScoringEngine engine(chaos, adapter, config);

  const std::vector<evm::Address> addresses = all_addresses();
  constexpr std::size_t kSubmissions = 1000;
  constexpr std::size_t kProducers = 4;
  std::atomic<std::size_t> resolved{0};
  std::map<serve::ScoreStatus, std::size_t> by_status;
  std::mutex by_status_mutex;
  {
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::vector<std::future<serve::ScoreResult>> futures;
        for (std::size_t i = p; i < kSubmissions; i += kProducers) {
          futures.push_back(engine.submit(addresses[i % addresses.size()]));
        }
        std::map<serve::ScoreStatus, std::size_t> local;
        for (auto& future : futures) {
          ++local[future.get().status];
          resolved.fetch_add(1);
        }
        std::lock_guard<std::mutex> lock(by_status_mutex);
        for (const auto& [status, count] : local) by_status[status] += count;
      });
    }
    for (std::thread& producer : producers) producer.join();
  }

  EXPECT_EQ(resolved.load(), kSubmissions);
  const serve::ServiceMetrics& metrics = engine.metrics();
  EXPECT_EQ(metrics.requests_submitted.value(), kSubmissions);
  EXPECT_EQ(terminal_total(metrics), kSubmissions);
  std::size_t sum = 0;
  for (const auto& [status, count] : by_status) sum += count;
  EXPECT_EQ(sum, kSubmissions);
  // With default 3-attempt retry at p=0.1 almost everything completes, but
  // latency histograms must have seen every single request either way.
  EXPECT_EQ(metrics.request_latency.count(), kSubmissions);
  EXPECT_GT(by_status[serve::ScoreStatus::kOk], kSubmissions / 2);
}

}  // namespace
}  // namespace phishinghook

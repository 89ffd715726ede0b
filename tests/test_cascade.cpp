// Cost-aware cascade: band semantics (inclusive boundaries, disabled
// band), bit-identical determinism across engine worker counts, heavy-
// stage fault degradation (including the degraded-not-cached retry
// contract), cascade metrics, and the family-tagged artifact format.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "chain/fault_injection.hpp"
#include "common/binary_io.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/random_forest.hpp"
#include "obs/metrics.hpp"
#include "serve/artifact.hpp"
#include "serve/cascade.hpp"
#include "serve/scoring_engine.hpp"
#include "synth/dataset_builder.hpp"

namespace phishinghook {
namespace {

const synth::BuiltDataset& dataset() {
  static const synth::BuiltDataset built = [] {
    synth::DatasetConfig config;
    config.target_size = 160;
    config.seed = 97;
    return synth::DatasetBuilder(config).build();
  }();
  return built;
}

std::vector<const evm::Bytecode*> dataset_codes() {
  std::vector<const evm::Bytecode*> codes;
  for (const synth::LabeledContract& sample : dataset().samples) {
    codes.push_back(&sample.code);
  }
  return codes;
}

std::vector<int> dataset_labels() {
  std::vector<int> labels;
  for (const synth::LabeledContract& sample : dataset().samples) {
    labels.push_back(sample.phishing ? 1 : 0);
  }
  return labels;
}

std::unique_ptr<core::HistogramAdapter> fitted_adapter(
    std::unique_ptr<ml::TabularClassifier> model, std::string name) {
  auto adapter = std::make_unique<core::HistogramAdapter>(std::move(model),
                                                          std::move(name));
  adapter->fit(dataset_codes(), dataset_labels());
  return adapter;
}

/// Deterministic stub: probability = first byte / 100 (codes in these
/// tests keep their first byte <= 100).
class ByteProbScorer final : public ml::Scorer {
 public:
  void score_batch(const ml::BytecodeBatchView& view,
                   std::span<ml::ScoredRow> out) override {
    ASSERT_EQ(out.size(), view.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
      out[i] = ml::ScoredRow{static_cast<double>(view[i].bytes()[0]) / 100.0,
                             0, false};
    }
  }
  std::string name() const override { return "byte-prob"; }
};

/// Fixed-probability stub (the "heavy refinement" in band tests).
class ConstScorer final : public ml::Scorer {
 public:
  explicit ConstScorer(double p, std::string name = "const")
      : p_(p), name_(std::move(name)) {}
  void score_batch(const ml::BytecodeBatchView& view,
                   std::span<ml::ScoredRow> out) override {
    for (std::size_t i = 0; i < view.size(); ++i) {
      out[i] = ml::ScoredRow{p_, 0, false};
    }
    calls_.fetch_add(1);
  }
  std::string name() const override { return name_; }
  std::uint64_t calls() const { return calls_.load(); }

 private:
  double p_;
  std::string name_;
  std::atomic<std::uint64_t> calls_{0};
};

/// Throws for the first `failures` score_batch calls, then answers `p`.
class HealingScorer final : public ml::Scorer {
 public:
  HealingScorer(int failures, double p) : failures_(failures), p_(p) {}
  void score_batch(const ml::BytecodeBatchView& view,
                   std::span<ml::ScoredRow> out) override {
    if (failures_.fetch_sub(1) > 0) {
      throw TransientError("injected heavy-stage fault");
    }
    for (std::size_t i = 0; i < view.size(); ++i) {
      out[i] = ml::ScoredRow{p_, 0, false};
    }
  }
  std::string name() const override { return "healing"; }

 private:
  std::atomic<int> failures_;
  double p_;
};

/// Non-owning forwarder so one fitted model can sit in many cascades.
class BorrowedScorer final : public ml::Scorer {
 public:
  explicit BorrowedScorer(ml::Scorer& inner) : inner_(&inner) {}
  void score_batch(const ml::BytecodeBatchView& view,
                   std::span<ml::ScoredRow> out) override {
    inner_->score_batch(view, out);
  }
  std::string name() const override { return inner_->name(); }
  const ml::FlatTreeEnsemble* flat_ensemble() const override {
    return inner_->flat_ensemble();
  }

 private:
  ml::Scorer* inner_;
};

std::unique_ptr<serve::CascadeScorer> make_cascade(
    std::vector<std::unique_ptr<ml::Scorer>> stages,
    serve::CascadeConfig config) {
  return std::make_unique<serve::CascadeScorer>(std::move(stages), config);
}

evm::Bytecode code_with_first_byte(std::uint8_t b) {
  return evm::Bytecode({b, 0x60, 0x00, 0x60, 0x00});
}

// --- band semantics ----------------------------------------------------------

TEST(CascadeConfig, BandIsInclusiveAndLoAboveHiDisables) {
  serve::CascadeConfig band{0.4, 0.6};
  EXPECT_TRUE(band.enabled());
  EXPECT_TRUE(band.in_band(0.4));   // lower boundary escalates
  EXPECT_TRUE(band.in_band(0.6));   // upper boundary escalates
  EXPECT_TRUE(band.in_band(0.5));
  EXPECT_FALSE(band.in_band(0.39));
  EXPECT_FALSE(band.in_band(0.61));

  serve::CascadeConfig disabled{1.0, 0.0};
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.in_band(0.5));
}

TEST(Cascade, EscalatesExactlyTheRowsInsideTheBand) {
  // Stage-0 probabilities by first byte: 0.39, 0.40, 0.41, 0.60, 0.61.
  const std::vector<evm::Bytecode> codes = {
      code_with_first_byte(39), code_with_first_byte(40),
      code_with_first_byte(41), code_with_first_byte(60),
      code_with_first_byte(61)};
  std::vector<const evm::Bytecode*> ptrs;
  for (const evm::Bytecode& code : codes) ptrs.push_back(&code);

  std::vector<std::unique_ptr<ml::Scorer>> stages;
  stages.push_back(std::make_unique<ByteProbScorer>());
  stages.push_back(std::make_unique<ConstScorer>(0.99, "heavy"));
  serve::CascadeScorer cascade(std::move(stages),
                               serve::CascadeConfig{0.40, 0.60});

  std::vector<ml::ScoredRow> rows(ptrs.size());
  cascade.score_batch(ml::BytecodeBatchView(ptrs.data(), ptrs.size()), rows);

  // Outside the band: stage-0 score survives.
  EXPECT_EQ(rows[0].probability, 0.39);
  EXPECT_EQ(rows[0].stage, 0u);
  EXPECT_EQ(rows[4].probability, 0.61);
  EXPECT_EQ(rows[4].stage, 0u);
  // p == lo, inside, and p == hi all escalate (inclusive boundaries).
  for (const std::size_t i : {1, 2, 3}) {
    EXPECT_EQ(rows[i].probability, 0.99) << "row " << i;
    EXPECT_EQ(rows[i].stage, 1u) << "row " << i;
    EXPECT_FALSE(rows[i].degraded);
  }

  const serve::CascadeStats stats = cascade.stats();
  EXPECT_EQ(stats.rows_total, 5u);
  EXPECT_EQ(stats.escalations_total, 3u);
  EXPECT_EQ(stats.stages[0].rows, 5u);
  EXPECT_EQ(stats.stages[1].rows, 3u);
  EXPECT_EQ(stats.stages[1].escalations, 3u);
  EXPECT_DOUBLE_EQ(stats.escalation_rate(), 3.0 / 5.0);
  EXPECT_EQ(cascade.stage_model(0), "byte-prob");
  EXPECT_EQ(cascade.stage_model(1), "heavy");
  EXPECT_EQ(cascade.name(), "cascade(byte-prob -> heavy)");
}

TEST(Cascade, DisabledBandIsBitIdenticalToStageZeroAlone) {
  const std::unique_ptr<core::HistogramAdapter> adapter = fitted_adapter(
      std::make_unique<ml::LogisticRegressionClassifier>(), "lr");
  const std::vector<const evm::Bytecode*> codes = dataset_codes();
  const std::vector<double> direct = adapter->predict_proba(codes);

  std::vector<std::unique_ptr<ml::Scorer>> stages;
  stages.push_back(std::make_unique<BorrowedScorer>(*adapter));
  stages.push_back(std::make_unique<ConstScorer>(0.99, "heavy"));
  serve::CascadeScorer cascade(std::move(stages),
                               serve::CascadeConfig{1.0, 0.0});

  std::vector<ml::ScoredRow> rows(codes.size());
  cascade.score_batch(ml::BytecodeBatchView(codes.data(), codes.size()),
                      rows);
  ASSERT_EQ(rows.size(), direct.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].probability, direct[i]) << "row " << i;
    EXPECT_EQ(rows[i].stage, 0u);
  }
  EXPECT_EQ(cascade.stats().escalations_total, 0u);
}

TEST(Cascade, StageZeroFailurePropagates) {
  std::vector<std::unique_ptr<ml::Scorer>> stages;
  stages.push_back(std::make_unique<HealingScorer>(1000, 0.5));
  serve::CascadeScorer cascade(std::move(stages), serve::CascadeConfig{});
  const evm::Bytecode code = code_with_first_byte(10);
  const evm::Bytecode* ptr = &code;
  std::vector<ml::ScoredRow> rows(1);
  EXPECT_THROW(cascade.score_batch(ml::BytecodeBatchView(&ptr, 1), rows),
               TransientError);
}

TEST(Cascade, HeavyStageFaultDegradesRowsToStageZeroScore) {
  const std::vector<evm::Bytecode> codes = {code_with_first_byte(45),
                                            code_with_first_byte(55)};
  std::vector<const evm::Bytecode*> ptrs;
  for (const evm::Bytecode& code : codes) ptrs.push_back(&code);

  std::vector<std::unique_ptr<ml::Scorer>> stages;
  stages.push_back(std::make_unique<ByteProbScorer>());
  stages.push_back(std::make_unique<HealingScorer>(1000, 0.99));
  serve::CascadeScorer cascade(std::move(stages),
                               serve::CascadeConfig{0.0, 1.0});

  std::vector<ml::ScoredRow> rows(ptrs.size());
  cascade.score_batch(ml::BytecodeBatchView(ptrs.data(), ptrs.size()), rows);
  EXPECT_EQ(rows[0].probability, 0.45);
  EXPECT_EQ(rows[1].probability, 0.55);
  for (const ml::ScoredRow& row : rows) {
    EXPECT_TRUE(row.degraded);
    EXPECT_EQ(row.stage, 0u);  // the score is stage 0's
  }
  const serve::CascadeStats stats = cascade.stats();
  EXPECT_EQ(stats.degraded_total, 2u);
  EXPECT_EQ(stats.stages[1].faults, 1u);
  EXPECT_EQ(stats.stages[1].rows, 0u);  // the heavy stage never scored
  EXPECT_EQ(stats.stages[1].escalations, 2u);
}

TEST(Cascade, RejectsBadConstruction) {
  EXPECT_THROW(serve::CascadeScorer({}, serve::CascadeConfig{}),
               InvalidArgument);

  std::vector<std::unique_ptr<ml::Scorer>> with_null;
  with_null.push_back(std::make_unique<ByteProbScorer>());
  with_null.push_back(nullptr);
  EXPECT_THROW(
      serve::CascadeScorer(std::move(with_null), serve::CascadeConfig{}),
      InvalidArgument);

  std::vector<std::unique_ptr<ml::Scorer>> stages;
  stages.push_back(std::make_unique<ByteProbScorer>());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(serve::CascadeScorer(std::move(stages),
                                    serve::CascadeConfig{nan, 0.5}),
               InvalidArgument);

  std::vector<std::unique_ptr<ml::Scorer>> stages2;
  stages2.push_back(std::make_unique<ByteProbScorer>());
  EXPECT_THROW(serve::CascadeScorer(std::move(stages2),
                                    serve::CascadeConfig{-0.1, 0.5}),
               InvalidArgument);
}

TEST(Cascade, MetricsBindAndExport) {
  const std::vector<evm::Bytecode> codes = {code_with_first_byte(50),
                                            code_with_first_byte(90)};
  std::vector<const evm::Bytecode*> ptrs;
  for (const evm::Bytecode& code : codes) ptrs.push_back(&code);

  std::vector<std::unique_ptr<ml::Scorer>> stages;
  stages.push_back(std::make_unique<ByteProbScorer>());
  stages.push_back(std::make_unique<ConstScorer>(0.99, "heavy"));
  serve::CascadeScorer cascade(std::move(stages),
                               serve::CascadeConfig{0.4, 0.6});

  obs::MetricsRegistry registry;
  cascade.bind_metrics(registry);
  std::vector<ml::ScoredRow> rows(ptrs.size());
  cascade.score_batch(ml::BytecodeBatchView(ptrs.data(), ptrs.size()), rows);
  cascade.export_metrics(registry);

  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("serve_cascade_stage_rows"), std::string::npos);
  EXPECT_NE(text.find("serve_cascade_escalations"), std::string::npos);
  EXPECT_NE(text.find("serve_cascade_escalation_rate 0.5"),
            std::string::npos);
  EXPECT_NE(text.find("model=\"heavy\""), std::string::npos);
}

// --- through the scoring engine ---------------------------------------------

class CascadeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ml::RandomForestConfig forest;
    forest.n_trees = 8;
    forest.max_depth = 6;
    stage0_ = fitted_adapter(
        std::make_unique<ml::LogisticRegressionClassifier>(), "lr");
    heavy_ = fitted_adapter(
        std::make_unique<ml::RandomForestClassifier>(forest), "rf");
    for (const synth::LabeledContract& sample : dataset().samples) {
      addresses_.push_back(sample.address);
    }
  }

  /// Fresh cascade borrowing the shared fitted models (the engine wants
  /// its own Scorer instance per test, the models are the slow part).
  std::unique_ptr<serve::CascadeScorer> cascade(serve::CascadeConfig band) {
    std::vector<std::unique_ptr<ml::Scorer>> stages;
    stages.push_back(std::make_unique<BorrowedScorer>(*stage0_));
    stages.push_back(std::make_unique<BorrowedScorer>(*heavy_));
    return make_cascade(std::move(stages), band);
  }

  std::unique_ptr<core::HistogramAdapter> stage0_;
  std::unique_ptr<core::HistogramAdapter> heavy_;
  std::vector<evm::Address> addresses_;
};

TEST_F(CascadeEngineTest, WorkerCountsProduceBitIdenticalResults) {
  // A wide band forces real escalations; the escalation decision reads
  // only the row's own stage-0 probability, so 1 worker and 4 workers
  // must produce byte-for-byte the same scores, stages, and models.
  const serve::CascadeConfig band{0.05, 0.95};
  std::vector<std::vector<serve::ScoreResult>> by_workers;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const std::unique_ptr<serve::CascadeScorer> scorer = cascade(band);
    serve::EngineConfig config;
    config.workers = workers;
    config.max_batch = 8;
    serve::ScoringEngine engine(*dataset().explorer, *scorer, config);
    by_workers.push_back(engine.score_all(addresses_));
  }
  ASSERT_EQ(by_workers[0].size(), by_workers[1].size());
  std::size_t escalated = 0;
  for (std::size_t i = 0; i < by_workers[0].size(); ++i) {
    const serve::ScoreResult& one = by_workers[0][i];
    const serve::ScoreResult& four = by_workers[1][i];
    EXPECT_EQ(one.probability, four.probability) << "address " << i;
    EXPECT_EQ(one.stage, four.stage) << "address " << i;
    EXPECT_EQ(one.model, four.model) << "address " << i;
    EXPECT_EQ(one.status, four.status) << "address " << i;
    if (one.stage == 1) ++escalated;
  }
  EXPECT_GT(escalated, 0u) << "band [0.05, 0.95] never escalated — the "
                              "determinism check did not exercise stage 1";
}

TEST_F(CascadeEngineTest, EmptyBandMatchesSingleModelThroughEngine) {
  serve::EngineConfig config;
  config.workers = 2;
  config.max_batch = 8;

  const std::unique_ptr<serve::CascadeScorer> disabled =
      cascade(serve::CascadeConfig{1.0, 0.0});
  serve::ScoringEngine cascade_engine(*dataset().explorer, *disabled, config);
  const std::vector<serve::ScoreResult> via_cascade =
      cascade_engine.score_all(addresses_);

  serve::ScoringEngine single_engine(*dataset().explorer, *stage0_, config);
  const std::vector<serve::ScoreResult> via_single =
      single_engine.score_all(addresses_);

  ASSERT_EQ(via_cascade.size(), via_single.size());
  for (std::size_t i = 0; i < via_cascade.size(); ++i) {
    EXPECT_EQ(via_cascade[i].probability, via_single[i].probability)
        << "address " << i;
    EXPECT_EQ(via_cascade[i].stage, 0u);
  }
}

TEST_F(CascadeEngineTest, ResultCarriesStageAndModelThroughCache) {
  std::vector<std::unique_ptr<ml::Scorer>> stages;
  stages.push_back(std::make_unique<BorrowedScorer>(*stage0_));
  stages.push_back(std::make_unique<ConstScorer>(0.9, "heavy-model"));
  serve::CascadeScorer scorer(std::move(stages),
                              serve::CascadeConfig{0.0, 1.0});
  serve::EngineConfig config;
  config.workers = 1;
  serve::ScoringEngine engine(*dataset().explorer, scorer, config);

  const serve::ScoreResult first = engine.submit(addresses_.front()).get();
  EXPECT_EQ(first.status, serve::ScoreStatus::kOk);
  EXPECT_EQ(first.stage, 1u);
  EXPECT_EQ(first.model, "heavy-model");
  EXPECT_FALSE(first.cache_hit);

  // The cache remembers the stage, so a hit reports the same attribution.
  const serve::ScoreResult second = engine.submit(addresses_.front()).get();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.stage, 1u);
  EXPECT_EQ(second.model, "heavy-model");
  EXPECT_EQ(second.probability, first.probability);
}

TEST_F(CascadeEngineTest, HeavyFaultDegradesIsNotCachedAndHeals) {
  std::vector<std::unique_ptr<ml::Scorer>> stages;
  stages.push_back(std::make_unique<BorrowedScorer>(*stage0_));
  stages.push_back(std::make_unique<HealingScorer>(/*failures=*/1, 0.9));
  serve::CascadeScorer scorer(std::move(stages),
                              serve::CascadeConfig{0.0, 1.0});
  serve::EngineConfig config;
  config.workers = 1;
  config.max_batch = 1;
  serve::ScoringEngine engine(*dataset().explorer, scorer, config);

  const std::vector<double> direct =
      stage0_->predict_proba({&dataset().samples.front().code});

  // First request: the heavy stage throws, the row degrades to stage 0.
  const serve::ScoreResult degraded =
      engine.submit(addresses_.front()).get();
  EXPECT_EQ(degraded.status, serve::ScoreStatus::kDegraded);
  EXPECT_TRUE(degraded.ok());
  EXPECT_EQ(degraded.probability, direct.front());
  EXPECT_EQ(degraded.stage, 0u);
  EXPECT_EQ(engine.metrics().requests_degraded.value(), 1u);
  EXPECT_EQ(engine.metrics().requests_completed.value(), 1u);

  // Degraded scores are not cached: the same address retries the heavy
  // stage (now healed) instead of serving the fallback from the cache.
  const serve::ScoreResult healed = engine.submit(addresses_.front()).get();
  EXPECT_EQ(healed.status, serve::ScoreStatus::kOk);
  EXPECT_FALSE(healed.cache_hit);
  EXPECT_EQ(healed.stage, 1u);
  EXPECT_EQ(healed.probability, 0.9);

  // The healthy score does land in the cache.
  const serve::ScoreResult cached = engine.submit(addresses_.front()).get();
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.stage, 1u);
  EXPECT_EQ(cached.probability, 0.9);
}

TEST_F(CascadeEngineTest, ChaosAccountingHoldsWithFaultyHeavyStage) {
  // Hostile upstream AND a flaky heavy stage at once: every submission
  // still resolves to exactly one definite status, and degraded rows are
  // counted as completed.
  chain::FaultConfig faults;
  faults.throw_rate = 0.2;
  faults.empty_rate = 0.1;
  faults.seed = 7;
  chain::FaultInjectingExplorer chaos(*dataset().explorer, faults);

  std::vector<std::unique_ptr<ml::Scorer>> stages;
  stages.push_back(std::make_unique<BorrowedScorer>(*stage0_));
  stages.push_back(std::make_unique<HealingScorer>(/*failures=*/5, 0.9));
  serve::CascadeScorer scorer(std::move(stages),
                              serve::CascadeConfig{0.0, 1.0});

  serve::EngineConfig config;
  config.workers = 2;
  config.max_batch = 4;
  config.extract_retry.max_attempts = 2;
  config.extract_retry.base_delay_us = 10;
  serve::ScoringEngine engine(chaos, scorer, config);

  std::size_t degraded = 0;
  const std::vector<serve::ScoreResult> results =
      engine.score_all(addresses_);
  ASSERT_EQ(results.size(), addresses_.size());
  for (const serve::ScoreResult& result : results) {
    if (result.status == serve::ScoreStatus::kDegraded) {
      ++degraded;
      EXPECT_EQ(result.stage, 0u);
      EXPECT_TRUE(result.ok());
    }
  }
  const serve::ServiceMetrics& m = engine.metrics();
  EXPECT_EQ(m.requests_completed.value() + m.requests_failed.value() +
                m.requests_shed.value(),
            m.requests_submitted.value());
  EXPECT_EQ(m.requests_degraded.value(), degraded);
}

// --- artifacts ---------------------------------------------------------------

TEST(CascadeArtifact, RoundTripIsBitIdentical) {
  ml::RandomForestConfig forest;
  forest.n_trees = 8;
  forest.max_depth = 6;
  std::vector<std::unique_ptr<ml::Scorer>> stages;
  stages.push_back(fitted_adapter(
      std::make_unique<ml::LogisticRegressionClassifier>(), "lr"));
  stages.push_back(fitted_adapter(
      std::make_unique<ml::RandomForestClassifier>(forest), "rf"));
  serve::CascadeScorer cascade(std::move(stages),
                               serve::CascadeConfig{0.3, 0.7});

  std::stringstream buffer;
  serve::save_scorer_artifact(buffer, cascade);
  const std::unique_ptr<ml::Scorer> loaded =
      serve::load_scorer_artifact(buffer);

  auto* loaded_cascade = dynamic_cast<serve::CascadeScorer*>(loaded.get());
  ASSERT_NE(loaded_cascade, nullptr);
  EXPECT_EQ(loaded_cascade->config().lo, 0.3);
  EXPECT_EQ(loaded_cascade->config().hi, 0.7);
  EXPECT_EQ(loaded_cascade->stage_count(), 2u);
  EXPECT_EQ(loaded_cascade->name(), cascade.name());

  const std::vector<const evm::Bytecode*> codes = dataset_codes();
  std::vector<ml::ScoredRow> expected(codes.size()), actual(codes.size());
  const ml::BytecodeBatchView view(codes.data(), codes.size());
  cascade.score_batch(view, expected);
  loaded_cascade->score_batch(view, actual);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(expected[i].probability, actual[i].probability) << "row " << i;
    EXPECT_EQ(expected[i].stage, actual[i].stage) << "row " << i;
  }
}

TEST(CascadeArtifact, VersionOneArtifactStillLoads) {
  // A v1 artifact (pre-family layout) hand-assembled from the adapter's
  // parts must load through the family-agnostic reader.
  const std::unique_ptr<core::HistogramAdapter> adapter = fitted_adapter(
      std::make_unique<ml::LogisticRegressionClassifier>(), "legacy-lr");
  std::stringstream v1;
  v1.write(serve::kArtifactMagic, sizeof(serve::kArtifactMagic));
  common::write_u32(v1, 1);
  common::write_string(v1, adapter->name());
  const auto& mnemonics = adapter->vocabulary().mnemonics();
  common::write_u64(v1, mnemonics.size());
  for (const std::string& mnemonic : mnemonics) {
    common::write_string(v1, mnemonic);
  }
  adapter->model().save(v1);

  const std::unique_ptr<ml::Scorer> loaded = serve::load_scorer_artifact(v1);
  EXPECT_EQ(loaded->name(), "legacy-lr");
  const std::vector<const evm::Bytecode*> codes = dataset_codes();
  const std::vector<double> expected = adapter->predict_proba(codes);
  const std::vector<double> actual = loaded->score_probabilities(
      ml::BytecodeBatchView(codes.data(), codes.size()));
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "row " << i;
  }
}

TEST(CascadeArtifact, UnsupportedFamilyAndWrongLoaderAreRejected) {
  // A scorer family without a persistence format fails at save time.
  ConstScorer stub(0.5);
  std::stringstream buffer;
  EXPECT_THROW(serve::save_scorer_artifact(buffer, stub), StateError);

  // The typed histogram loader refuses a cascade artifact.
  std::vector<std::unique_ptr<ml::Scorer>> stages;
  stages.push_back(fitted_adapter(
      std::make_unique<ml::LogisticRegressionClassifier>(), "lr"));
  serve::CascadeScorer cascade(std::move(stages), serve::CascadeConfig{});
  std::stringstream saved;
  serve::save_scorer_artifact(saved, cascade);
  EXPECT_THROW(serve::load_artifact(saved), ParseError);

  // Unknown family tag and truncated cascade payloads are corruption.
  std::stringstream mystery;
  mystery.write(serve::kArtifactMagic, sizeof(serve::kArtifactMagic));
  common::write_u32(mystery, serve::kArtifactVersion);
  common::write_string(mystery, "mystery");
  EXPECT_THROW(serve::load_scorer_artifact(mystery), ParseError);

  std::stringstream full;
  serve::save_scorer_artifact(full, cascade);
  const std::string bytes = full.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(serve::load_scorer_artifact(truncated), ParseError);
}

}  // namespace
}  // namespace phishinghook

// Bit-exact determinism of the parallel training runtime: for every
// parallelized model, fitting and predicting at PHISHINGHOOK_THREADS=1 and
// =4 must produce *identical* results — same doubles, same serialized
// bytes — because randomness is pre-drawn serially and every reduction is
// index-ordered (the contract documented in common/thread_pool.hpp and
// DESIGN.md §8).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/features.hpp"
#include "ml/catboost.hpp"
#include "ml/cross_validation.hpp"
#include "ml/flat_tree.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/hyper_search.hpp"
#include "ml/knn.hpp"
#include "ml/lightgbm.hpp"
#include "ml/random_forest.hpp"
#include "obs/trace.hpp"
#include "synth/dataset_builder.hpp"

namespace phishinghook::ml {
namespace {

struct Dataset {
  Matrix x;
  std::vector<int> y;
};

/// Noisy linear-rule dataset: non-trivial splits at every depth.
Dataset make_dataset(std::size_t n, std::size_t d, std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset data;
  data.x = Matrix(n, d);
  data.y.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      data.x.at(r, c) = rng.uniform(-3.0, 3.0);
    }
    const double margin = data.x.at(r, 0) + 0.5 * data.x.at(r, 1) -
                          0.25 * data.x.at(r, 2) + rng.normal(0.0, 0.5);
    data.y.push_back(margin > 0.0 ? 1 : 0);
  }
  return data;
}

/// Restores the global pool to the environment default on scope exit, so
/// thread-count sweeps cannot leak into other tests.
class ParallelDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { common::ThreadPool::set_global_threads(0); }

  template <typename Fn>
  auto at_threads(std::size_t threads, Fn&& fn) {
    common::ThreadPool::set_global_threads(threads);
    return fn();
  }
};

template <typename Model, typename Config>
std::vector<double> fit_predict(Config config, const Dataset& data) {
  Model model(config);
  model.fit(data.x, data.y);
  return model.predict_proba(data.x);
}

void expect_identical(const std::vector<double>& serial,
                      const std::vector<double>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // EXPECT_EQ on doubles is exact — approximate equality would hide
    // reduction-order bugs, the whole point of this suite.
    ASSERT_EQ(serial[i], parallel[i]) << "row " << i;
  }
}

TEST_F(ParallelDeterminism, RandomForestFitAndProbaBitIdentical) {
  const Dataset data = make_dataset(240, 8, 101);
  RandomForestConfig config;
  config.n_trees = 16;
  config.max_depth = 8;
  config.seed = 7;

  const auto run = [&] {
    RandomForestClassifier model(config);
    model.fit(data.x, data.y);
    std::ostringstream bytes;
    model.save(bytes);
    return std::make_pair(model.predict_proba(data.x), bytes.str());
  };
  const auto serial = at_threads(1, run);
  const auto parallel = at_threads(4, run);
  expect_identical(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);  // fitted parameters, bytewise
}

TEST_F(ParallelDeterminism, TelemetryOnKeepsBitIdentical) {
  // Telemetry is observation only: with the tracer actively buffering
  // spans, fit + predict must stay bit-identical across thread counts.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(4096);
  const Dataset data = make_dataset(240, 8, 101);
  RandomForestConfig config;
  config.n_trees = 16;
  config.max_depth = 8;
  config.seed = 7;
  const auto run = [&] {
    RandomForestClassifier model(config);
    model.fit(data.x, data.y);
    std::ostringstream bytes;
    model.save(bytes);
    return std::make_pair(model.predict_proba(data.x), bytes.str());
  };
  const auto serial = at_threads(1, run);
  const auto parallel = at_threads(4, run);
  tracer.disable();
  tracer.clear();
  expect_identical(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
}

TEST_F(ParallelDeterminism, GradientBoostingBitIdentical) {
  const Dataset data = make_dataset(200, 6, 102);
  GradientBoostingConfig config;
  config.n_rounds = 12;
  config.max_depth = 4;
  config.subsample = 0.8;
  config.colsample = 0.8;
  const auto run = [&] {
    return fit_predict<GradientBoostingClassifier>(config, data);
  };
  expect_identical(at_threads(1, run), at_threads(4, run));
}

TEST_F(ParallelDeterminism, LightGbmBitIdentical) {
  const Dataset data = make_dataset(200, 6, 103);
  LightGbmConfig config;
  config.n_rounds = 12;
  const auto run = [&] { return fit_predict<LightGbmClassifier>(config, data); };
  expect_identical(at_threads(1, run), at_threads(4, run));
}

TEST_F(ParallelDeterminism, CatBoostBitIdentical) {
  const Dataset data = make_dataset(200, 6, 104);
  CatBoostConfig config;
  config.n_rounds = 10;
  const auto run = [&] { return fit_predict<CatBoostClassifier>(config, data); };
  expect_identical(at_threads(1, run), at_threads(4, run));
}

TEST_F(ParallelDeterminism, FlatEnsembleTraversalsBitIdenticalAcrossThreads) {
  // The serving-side flat predictor chunks rows across the pool with each
  // chunk's accumulation fully row-local, so 1 and 4 threads must produce
  // the same bytes on both tree kinds (binary and oblivious).
  const Dataset data = make_dataset(230, 6, 108);
  RandomForestConfig rf_config;
  rf_config.n_trees = 10;
  rf_config.max_depth = 8;
  RandomForestClassifier forest(rf_config);
  forest.fit(data.x, data.y);
  CatBoostConfig cb_config;
  cb_config.n_rounds = 8;
  CatBoostClassifier catboost(cb_config);
  catboost.fit(data.x, data.y);

  std::vector<FlatTreeEnsemble> flats;
  flats.push_back(FlatTreeEnsemble::from_forest(forest.trees()));
  flats.push_back(
      FlatTreeEnsemble::from_oblivious(catboost.trees(), catboost.base_score()));
  for (const FlatTreeEnsemble& flat : flats) {
    const auto run = [&] { return flat.predict_proba(data.x); };
    expect_identical(at_threads(1, run), at_threads(4, run));
  }
}

TEST_F(ParallelDeterminism, HistogramTransformAllBitIdentical) {
  // The row-parallel LUT feature extractor: each histogram row is written
  // by exactly one task, so the matrix must be bit-identical at any thread
  // count.
  synth::DatasetConfig config;
  config.target_size = 48;
  config.seed = 55;
  const synth::BuiltDataset dataset = synth::DatasetBuilder(config).build();
  std::vector<const core::Bytecode*> corpus;
  corpus.reserve(dataset.samples.size());
  for (const synth::LabeledContract& sample : dataset.samples) {
    corpus.push_back(&sample.code);
  }
  core::HistogramVocabulary vocab;
  vocab.fit(corpus);
  const auto run = [&] { return vocab.transform_all(corpus); };
  const Matrix serial = at_threads(1, run);
  const Matrix parallel = at_threads(4, run);
  ASSERT_EQ(serial.rows(), parallel.rows());
  ASSERT_EQ(serial.cols(), parallel.cols());
  for (std::size_t r = 0; r < serial.rows(); ++r) {
    for (std::size_t c = 0; c < serial.cols(); ++c) {
      ASSERT_EQ(serial.at(r, c), parallel.at(r, c))
          << "row " << r << " col " << c;
    }
  }
}

TEST_F(ParallelDeterminism, KnnBitIdentical) {
  const Dataset data = make_dataset(150, 5, 105);
  KnnConfig config;
  config.k = 7;
  config.distance_weighted = true;
  const auto run = [&] { return fit_predict<KnnClassifier>(config, data); };
  expect_identical(at_threads(1, run), at_threads(4, run));
}

TEST_F(ParallelDeterminism, CrossValidationFoldsBitIdentical) {
  const Dataset data = make_dataset(180, 5, 106);
  const auto run = [&] {
    common::Rng rng(9);
    const auto folds = stratified_kfold(data.y, 5, rng);
    return cross_validate_accuracy(
        [] {
          RandomForestConfig config;
          config.n_trees = 8;
          return std::make_unique<RandomForestClassifier>(config);
        },
        data.x, data.y, folds);
  };
  expect_identical(at_threads(1, run), at_threads(4, run));
}

TEST_F(ParallelDeterminism, HyperSearchGridBitIdentical) {
  const Dataset data = make_dataset(160, 5, 107);
  const ClassifierFactory factory = [](const ParamAssignment& params) {
    RandomForestConfig config;
    config.n_trees = static_cast<int>(params.at("n_trees"));
    config.max_depth = static_cast<int>(params.at("max_depth"));
    return std::unique_ptr<TabularClassifier>(
        std::make_unique<RandomForestClassifier>(config));
  };
  const std::map<std::string, std::vector<double>> space = {
      {"n_trees", {4.0, 8.0}}, {"max_depth", {3.0, 6.0}}};

  HyperSearchConfig search_config;
  search_config.folds = 3;
  const auto run = [&] {
    return HyperSearch(search_config).grid_search(factory, space, data.x,
                                                  data.y);
  };
  const Trial serial = at_threads(1, run);
  const Trial parallel = at_threads(4, run);
  EXPECT_EQ(serial.score, parallel.score);
  EXPECT_EQ(serial.params, parallel.params);
}

}  // namespace
}  // namespace phishinghook::ml

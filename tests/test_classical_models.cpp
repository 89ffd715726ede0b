// Classical (HSC) classifiers: every model must learn cleanly separable
// data, stay honest on noise, and behave deterministically. One
// parameterized suite runs all seven Table II HSC models.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "ml/catboost.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/knn.hpp"
#include "ml/lightgbm.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"

namespace phishinghook::ml {
namespace {

struct Blob {
  Matrix x;
  std::vector<int> y;
};

/// Two Gaussian blobs in d dimensions, `separation` apart.
Blob make_blobs(std::size_t n_per_class, std::size_t d, double separation,
                std::uint64_t seed) {
  common::Rng rng(seed);
  Blob blob;
  blob.x = Matrix(2 * n_per_class, d);
  for (std::size_t i = 0; i < 2 * n_per_class; ++i) {
    const int label = i < n_per_class ? 0 : 1;
    blob.y.push_back(label);
    for (std::size_t c = 0; c < d; ++c) {
      blob.x.at(i, c) = rng.normal() + (label == 1 ? separation : 0.0);
    }
  }
  return blob;
}

using Factory = std::function<std::unique_ptr<TabularClassifier>()>;

struct ModelCase {
  const char* name;
  Factory make;
};

class AllModels : public ::testing::TestWithParam<ModelCase> {};

TEST_P(AllModels, LearnsSeparableBlobs) {
  const Blob train = make_blobs(60, 6, 3.0, 11);
  const Blob test = make_blobs(40, 6, 3.0, 12);
  auto model = GetParam().make();
  model->fit(train.x, train.y);
  const Metrics m = compute_metrics(test.y, model->predict(test.x));
  EXPECT_GE(m.accuracy, 0.9) << GetParam().name;
}

TEST_P(AllModels, ProbabilitiesAreCalibratedToUnitInterval) {
  const Blob train = make_blobs(40, 4, 2.0, 21);
  auto model = GetParam().make();
  model->fit(train.x, train.y);
  for (double p : model->predict_proba(train.x)) {
    EXPECT_GE(p, 0.0) << GetParam().name;
    EXPECT_LE(p, 1.0) << GetParam().name;
  }
}

TEST_P(AllModels, PredictBeforeFitThrows) {
  auto model = GetParam().make();
  const Matrix x(1, 4);
  EXPECT_THROW((void)model->predict_proba(x), Error) << GetParam().name;
}

TEST_P(AllModels, FitSizeMismatchThrows) {
  auto model = GetParam().make();
  const Matrix x(4, 2);
  const std::vector<int> y = {0, 1};
  EXPECT_THROW(model->fit(x, y), InvalidArgument) << GetParam().name;
}

TEST_P(AllModels, DeterministicAcrossIdenticalRuns) {
  const Blob train = make_blobs(40, 4, 2.5, 31);
  const Blob test = make_blobs(20, 4, 2.5, 32);
  auto model_a = GetParam().make();
  auto model_b = GetParam().make();
  model_a->fit(train.x, train.y);
  model_b->fit(train.x, train.y);
  const auto pa = model_a->predict_proba(test.x);
  const auto pb = model_b->predict_proba(test.x);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa[i], pb[i]) << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table2Hscs, AllModels,
    ::testing::Values(
        ModelCase{"RandomForest",
                  [] {
                    RandomForestConfig config;
                    config.n_trees = 30;
                    return std::unique_ptr<TabularClassifier>(
                        std::make_unique<RandomForestClassifier>(config));
                  }},
        ModelCase{"kNN",
                  [] {
                    return std::unique_ptr<TabularClassifier>(
                        std::make_unique<KnnClassifier>());
                  }},
        ModelCase{"SVM",
                  [] {
                    return std::unique_ptr<TabularClassifier>(
                        std::make_unique<SvmClassifier>());
                  }},
        ModelCase{"LogisticRegression",
                  [] {
                    return std::unique_ptr<TabularClassifier>(
                        std::make_unique<LogisticRegressionClassifier>());
                  }},
        ModelCase{"XGBoost",
                  [] {
                    GradientBoostingConfig config;
                    config.n_rounds = 60;
                    return std::unique_ptr<TabularClassifier>(
                        std::make_unique<GradientBoostingClassifier>(config));
                  }},
        ModelCase{"LightGBM",
                  [] {
                    LightGbmConfig config;
                    config.n_rounds = 60;
                    return std::unique_ptr<TabularClassifier>(
                        std::make_unique<LightGbmClassifier>(config));
                  }},
        ModelCase{"CatBoost",
                  [] {
                    CatBoostConfig config;
                    config.n_rounds = 60;
                    config.depth = 4;
                    return std::unique_ptr<TabularClassifier>(
                        std::make_unique<CatBoostClassifier>(config));
                  }}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      return info.param.name;
    });

// --- model-specific behaviour -------------------------------------------------

TEST(DecisionTree, PureLeafStopsSplitting) {
  const Matrix x = Matrix::from_rows({{0.0}, {0.1}, {0.9}, {1.0}});
  const std::vector<int> y = {0, 0, 1, 1};
  DecisionTreeClassifier tree;
  tree.fit(x, y);
  // One split suffices.
  EXPECT_EQ(tree.nodes().size(), 3u);
  EXPECT_EQ(tree.predict_row(x.row(0)), 0.0);
  EXPECT_EQ(tree.predict_row(x.row(3)), 1.0);
}

TEST(DecisionTree, MaxDepthRespected) {
  const Blob blob = make_blobs(100, 3, 0.5, 3);
  DecisionTreeConfig config;
  config.max_depth = 2;
  DecisionTreeClassifier tree(config);
  tree.fit(blob.x, blob.y);
  // depth 2 => at most 7 nodes.
  EXPECT_LE(tree.nodes().size(), 7u);
}

TEST(DecisionTree, ImportancesSumToOne) {
  const Blob blob = make_blobs(50, 5, 2.0, 4);
  DecisionTreeClassifier tree;
  tree.fit(blob.x, blob.y);
  double total = 0.0;
  for (double v : tree.feature_importances()) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(DecisionTree, SharedPresortIsBitIdenticalToPerTreeSort) {
  // The forest shares one FeaturePresort across trees; each tree filters it
  // down to its bootstrap rows instead of sorting. That filter must
  // reproduce the sorted order exactly, including duplicate-value ties and
  // rows masked out by zero weights.
  const Blob blob = make_blobs(80, 4, 1.0, 9);
  Matrix x = blob.x;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    x.at(i, 1) = static_cast<double>(i % 3);  // heavy ties on feature 1
  }
  common::Rng rng(17);
  std::vector<double> weights(x.rows(), 0.0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    weights[rng.next_below(x.rows())] += 1.0;  // bootstrap: some rows drop out
  }
  const FeaturePresort presort = FeaturePresort::build(x);

  DecisionTreeConfig config;
  config.max_features = 2;
  config.seed = 23;
  DecisionTreeClassifier plain(config), shared(config);
  plain.fit_weighted(x, blob.y, weights);
  shared.fit_weighted(x, blob.y, weights, &presort);

  ASSERT_EQ(plain.nodes().size(), shared.nodes().size());
  for (std::size_t i = 0; i < plain.nodes().size(); ++i) {
    EXPECT_EQ(plain.nodes()[i].feature, shared.nodes()[i].feature);
    EXPECT_EQ(plain.nodes()[i].threshold, shared.nodes()[i].threshold);
    EXPECT_EQ(plain.nodes()[i].left, shared.nodes()[i].left);
    EXPECT_EQ(plain.nodes()[i].right, shared.nodes()[i].right);
    EXPECT_EQ(plain.nodes()[i].value, shared.nodes()[i].value);
    EXPECT_EQ(plain.nodes()[i].weight, shared.nodes()[i].weight);
  }
  EXPECT_EQ(plain.feature_importances(), shared.feature_importances());
}

TEST(RandomForest, ImportancesIdentifyInformativeFeature) {
  // Only feature 2 carries signal.
  common::Rng rng(5);
  Matrix x(200, 5);
  std::vector<int> y;
  for (std::size_t i = 0; i < 200; ++i) {
    const int label = i % 2;
    y.push_back(label);
    for (std::size_t c = 0; c < 5; ++c) {
      x.at(i, c) = rng.normal() + (c == 2 ? 4.0 * label : 0.0);
    }
  }
  RandomForestConfig config;
  config.n_trees = 30;
  RandomForestClassifier forest(config);
  forest.fit(x, y);
  const auto importances = forest.feature_importances();
  for (std::size_t c = 0; c < 5; ++c) {
    if (c != 2) {
      EXPECT_GT(importances[2], importances[c]);
    }
  }
}

TEST(Knn, ManhattanAndCosineMetrics) {
  const Blob blob = make_blobs(40, 4, 3.0, 6);
  for (KnnMetric metric :
       {KnnMetric::kEuclidean, KnnMetric::kManhattan, KnnMetric::kCosine}) {
    KnnConfig config;
    config.metric = metric;
    KnnClassifier knn(config);
    knn.fit(blob.x, blob.y);
    const Metrics m = compute_metrics(blob.y, knn.predict(blob.x));
    EXPECT_GE(m.accuracy, 0.9);
  }
  EXPECT_THROW(KnnClassifier(KnnConfig{.k = 0}), InvalidArgument);
}

TEST(Svm, LinearKernelOnLinearlySeparableData) {
  const Blob blob = make_blobs(60, 4, 3.0, 7);
  SvmConfig config;
  config.kernel = SvmKernel::kLinear;
  SvmClassifier svm(config);
  svm.fit(blob.x, blob.y);
  const Metrics m = compute_metrics(blob.y, svm.predict(blob.x));
  EXPECT_GE(m.accuracy, 0.95);
}

TEST(Svm, RbfSolvesXorLikeProblem) {
  // XOR: not linearly separable; RFF-approximated RBF must handle it.
  common::Rng rng(8);
  Matrix x(200, 2);
  std::vector<int> y;
  for (std::size_t i = 0; i < 200; ++i) {
    const double a = rng.bernoulli(0.5) ? 1.0 : -1.0;
    const double b = rng.bernoulli(0.5) ? 1.0 : -1.0;
    x.at(i, 0) = a + 0.15 * rng.normal();
    x.at(i, 1) = b + 0.15 * rng.normal();
    y.push_back(a * b > 0 ? 1 : 0);
  }
  SvmConfig config;
  config.kernel = SvmKernel::kRbf;
  config.gamma = 1.0;
  config.epochs = 80;
  SvmClassifier svm(config);
  svm.fit(x, y);
  const Metrics m = compute_metrics(y, svm.predict(x));
  EXPECT_GE(m.accuracy, 0.9);

  SvmConfig linear;
  linear.kernel = SvmKernel::kLinear;
  SvmClassifier linear_svm(linear);
  linear_svm.fit(x, y);
  const Metrics lm = compute_metrics(y, linear_svm.predict(x));
  // A linear boundary cannot solve XOR; the kernel must buy a clear margin.
  EXPECT_LT(lm.accuracy + 0.1, m.accuracy);
}

TEST(GradientBoosting, MoreRoundsFitTighter) {
  const Blob blob = make_blobs(80, 4, 1.0, 9);
  GradientBoostingConfig few;
  few.n_rounds = 3;
  GradientBoostingConfig many;
  many.n_rounds = 80;
  GradientBoostingClassifier a(few), b(many);
  a.fit(blob.x, blob.y);
  b.fit(blob.x, blob.y);
  const double acc_few =
      compute_metrics(blob.y, a.predict(blob.x)).accuracy;
  const double acc_many =
      compute_metrics(blob.y, b.predict(blob.x)).accuracy;
  EXPECT_GT(acc_many, acc_few);
}

TEST(LightGbm, RespectsLeafBudget) {
  const Blob blob = make_blobs(100, 4, 1.0, 10);
  LightGbmConfig config;
  config.num_leaves = 4;
  config.n_rounds = 5;
  LightGbmClassifier model(config);
  model.fit(blob.x, blob.y);
  for (const auto& tree : model.trees()) {
    std::size_t leaves = 0;
    for (const TreeNode& node : tree) {
      if (node.is_leaf()) ++leaves;
    }
    EXPECT_LE(leaves, 4u);
  }
}

TEST(CatBoost, TreesAreOblivious) {
  const Blob blob = make_blobs(80, 4, 2.0, 11);
  CatBoostConfig config;
  config.n_rounds = 5;
  config.depth = 3;
  CatBoostClassifier model(config);
  model.fit(blob.x, blob.y);
  for (const ObliviousTree& tree : model.trees()) {
    EXPECT_LE(tree.features.size(), 3u);
    EXPECT_EQ(tree.leaf_values.size(),
              std::size_t{1} << tree.features.size());
  }
}

}  // namespace
}  // namespace phishinghook::ml

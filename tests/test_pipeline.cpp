// Integration: the full PhishingHook pipeline — data gathering -> BEM ->
// BDM -> features -> MEM (cross-validated models) -> PAM — on a small
// synthetic corpus.
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>

#include "common/csv.hpp"
#include "common/errors.hpp"
#include "core/bdm.hpp"
#include "core/bem.hpp"
#include "core/experiment.hpp"
#include "core/pam.hpp"
#include "core/report.hpp"

namespace phishinghook::core {
namespace {

using synth::BuiltDataset;
using synth::DatasetBuilder;
using synth::DatasetConfig;

const BuiltDataset& shared_dataset() {
  static const BuiltDataset* dataset = [] {
    DatasetConfig config;
    config.target_size = 140;
    config.seed = 99;
    return new BuiltDataset(DatasetBuilder(config).build());
  }();
  return *dataset;
}

TEST(Bem, ExtractsLabeledBytecode) {
  const BuiltDataset& dataset = shared_dataset();
  const BytecodeExtractionModule bem(*dataset.explorer);
  const auto& sample = dataset.samples.front();
  const ExtractedContract extracted = bem.extract(sample.address);
  EXPECT_EQ(extracted.code.bytes(), sample.code.bytes());
  EXPECT_EQ(extracted.flagged_phishing, sample.phishing);
}

TEST(Bem, BatchSkipsEmptyAccounts) {
  const BuiltDataset& dataset = shared_dataset();
  const BytecodeExtractionModule bem(*dataset.explorer);
  std::vector<evm::Address> addresses = {dataset.samples[0].address,
                                         evm::Address()};  // EOA
  const auto extracted = bem.extract_all(addresses);
  EXPECT_EQ(extracted.size(), 1u);
}

TEST(Bdm, WritesCsvListing) {
  const BuiltDataset& dataset = shared_dataset();
  const BytecodeDisassemblerModule bdm;
  const auto path =
      std::filesystem::temp_directory_path() / "phook_test" / "listing.csv";
  const auto listing = bdm.disassemble_to_csv(dataset.samples[0].code, path);
  EXPECT_FALSE(listing.instructions.empty());
  ASSERT_TRUE(std::filesystem::exists(path));
  const auto table = common::read_csv_file(path);
  EXPECT_EQ(table.rows.size(), listing.instructions.size());
  EXPECT_EQ(table.header[2], "mnemonic");
  std::filesystem::remove_all(path.parent_path());
}

TEST(Registry, ContainsAll16Table2Models) {
  const auto specs = all_models(common::scale_params(common::Scale::kSmoke));
  EXPECT_EQ(specs.size(), 16u);
  int hsc = 0, vm = 0, lm = 0, vdm = 0;
  for (const ModelSpec& spec : specs) {
    switch (spec.category) {
      case ModelCategory::kHistogram: ++hsc; break;
      case ModelCategory::kVision: ++vm; break;
      case ModelCategory::kLanguage: ++lm; break;
      case ModelCategory::kVulnerability: ++vdm; break;
    }
  }
  EXPECT_EQ(hsc, 7);
  EXPECT_EQ(vm, 3);
  EXPECT_EQ(lm, 5);
  EXPECT_EQ(vdm, 1);
  EXPECT_EQ(find_model(specs, "Random Forest").category,
            ModelCategory::kHistogram);
  EXPECT_THROW(find_model(specs, "BERT"), NotFound);
}

TEST(Experiment, RandomForestBeatsChanceOnSyntheticCorpus) {
  const BuiltDataset& dataset = shared_dataset();
  const auto specs = all_models(common::scale_params(common::Scale::kSmoke));
  ExperimentConfig config;
  config.folds = 3;
  config.runs = 1;
  const ExperimentHarness harness(config);
  const ModelEvaluation eval =
      harness.evaluate(find_model(specs, "Random Forest"), dataset.samples);
  EXPECT_EQ(eval.trials.size(), 3u);
  EXPECT_GE(eval.mean().accuracy, 0.8);
  EXPECT_GT(eval.mean_train_seconds(), 0.0);
  // The metric series feed the PAM.
  EXPECT_EQ(eval.metric_series("accuracy").size(), 3u);
  EXPECT_THROW(eval.metric_series("auc"), InvalidArgument);
}

TEST(Experiment, TemporalEvaluationProtocol) {
  synth::DatasetConfig config;
  config.target_size = 140;
  config.seed = 7;
  config.match_benign_temporal = true;
  const BuiltDataset dataset = DatasetBuilder(config).build();
  const synth::TemporalSplit split = synth::temporal_split(dataset.samples);

  const auto specs = all_models(common::scale_params(common::Scale::kSmoke));
  const ExperimentHarness harness;
  std::vector<std::vector<const synth::LabeledContract*>> tests(
      split.monthly_tests.begin(), split.monthly_tests.end());
  const auto metrics = harness.evaluate_temporal(
      find_model(specs, "Random Forest"), split.train, tests);
  EXPECT_EQ(metrics.size(), 9u);
  double mean_acc = 0.0;
  for (const auto& m : metrics) mean_acc += m.accuracy;
  EXPECT_GE(mean_acc / 9.0, 0.6);
}

TEST(Pam, DetectsDifferencesBetweenRealAndChanceModels) {
  // Two strong models and one at chance: K-W must reject, Dunn must flag
  // cross-pair differences.
  ModelEvaluation strong_a, strong_b, chance;
  strong_a.model = "A";
  strong_a.category = ModelCategory::kHistogram;
  strong_b.model = "B";
  strong_b.category = ModelCategory::kHistogram;
  chance.model = "C";
  chance.category = ModelCategory::kVulnerability;
  common::Rng rng(3);
  for (int t = 0; t < 15; ++t) {
    auto trial = [&](double base) {
      TrialResult result;
      result.metrics.accuracy = base + 0.02 * rng.normal();
      result.metrics.f1 = base + 0.02 * rng.normal();
      result.metrics.precision = base + 0.02 * rng.normal();
      result.metrics.recall = base + 0.02 * rng.normal();
      return result;
    };
    strong_a.trials.push_back(trial(0.93));
    strong_b.trials.push_back(trial(0.91));
    chance.trials.push_back(trial(0.55));
  }

  const PostHocReport report =
      post_hoc_analysis({strong_a, strong_b, chance});
  ASSERT_EQ(report.kruskal_wallis.size(), 4u);
  for (const auto& row : report.kruskal_wallis) {
    EXPECT_LT(row.p_adjusted, 0.05) << row.metric;
  }
  ASSERT_EQ(report.dunn.size(), 4u);
  for (const auto& dunn : report.dunn) {
    // A-C and B-C significant; A-B likely too close -> cross-category
    // fraction must exceed within-category fraction.
    EXPECT_GE(dunn.cross_category_fraction, dunn.within_category_fraction);
    EXPECT_GT(dunn.significant_fraction, 0.0);
  }
  EXPECT_EQ(report.normality.size(), 12u);
}

TEST(Pam, HandlesConstantMetricSeries) {
  ModelEvaluation perfect, noisy;
  perfect.model = "perfect";
  noisy.model = "noisy";
  noisy.category = ModelCategory::kVision;
  common::Rng rng(4);
  for (int t = 0; t < 10; ++t) {
    TrialResult a;
    a.metrics = {1.0, 1.0, 1.0, 1.0};  // constant: S-W undefined
    perfect.trials.push_back(a);
    TrialResult b;
    b.metrics.accuracy = 0.8 + 0.05 * rng.normal();
    b.metrics.f1 = 0.8 + 0.05 * rng.normal();
    b.metrics.precision = 0.8;
    b.metrics.recall = 0.8;
    noisy.trials.push_back(b);
  }
  const PostHocReport report = post_hoc_analysis({perfect, noisy});
  for (const auto& entry : report.normality) {
    if (entry.model == "perfect") {
      EXPECT_TRUE(entry.normal);
      EXPECT_EQ(entry.w, 1.0);
    }
  }
}

TEST(Report, TextTableAlignsAndExportsCsv) {
  TextTable table({"Model", "Accuracy (%)"});
  table.add_row({"Random Forest", percent(0.9363)});
  table.add_row({"k-NN", percent(0.9060)});
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("Random Forest  93.63"), std::string::npos);
  EXPECT_NE(rendered.find("k-NN"), std::string::npos);
  EXPECT_THROW(table.add_row({"too", "many", "cols"}), InvalidArgument);

  const auto path =
      std::filesystem::temp_directory_path() / "phook_test_table.csv";
  table.write_csv(path);
  const auto parsed = common::read_csv_file(path);
  EXPECT_EQ(parsed.rows.size(), 2u);
  std::filesystem::remove(path);
}

TEST(EndToEnd, EscortStaysNearChanceWhileRandomForestDetects) {
  // The paper's negative result (Table II): the vulnerability detector's
  // frozen transfer features do not carry phishing intent, while the HSC
  // separates cleanly on the same corpus.
  const BuiltDataset& dataset = shared_dataset();
  const auto specs = all_models(common::scale_params(common::Scale::kSmoke));
  ExperimentConfig config;
  config.folds = 3;
  config.runs = 1;
  const ExperimentHarness harness(config);
  const double rf_acc =
      harness.evaluate(find_model(specs, "Random Forest"), dataset.samples)
          .mean()
          .accuracy;
  const double escort_acc =
      harness.evaluate(find_model(specs, "ESCORT"), dataset.samples)
          .mean()
          .accuracy;
  EXPECT_GE(rf_acc, 0.80);
  EXPECT_LE(escort_acc, 0.72);
  EXPECT_GT(rf_acc - escort_acc, 0.15);
}

TEST(EndToEnd, EverySixteenModelFitsAndPredictsAtSmokeScale) {
  // The full registry must at least train and emit valid probabilities on a
  // small split (accuracy claims are the benches' job), and every model
  // keeps the ml::Scorer contract: single-stage rows, each a function of
  // its own code only, and a wrong-sized out span rejected.
  const BuiltDataset& dataset = shared_dataset();
  std::vector<const Bytecode*> codes = codes_of(dataset.samples);
  std::vector<int> labels = labels_of(dataset.samples);
  // 40 train / 12 test samples keep the neural models fast here.
  std::vector<const Bytecode*> train(codes.begin(), codes.begin() + 40);
  std::vector<int> train_y(labels.begin(), labels.begin() + 40);
  std::vector<const Bytecode*> test(codes.begin() + 40, codes.begin() + 52);

  common::ScaleParams params = common::scale_params(common::Scale::kSmoke);
  params.nn_epochs = 1;
  params.image_side = 8;
  params.max_sequence = 48;
  for (const ModelSpec& spec : all_models(params)) {
    auto model = spec.make(7);
    model->fit(train, train_y);
    std::vector<ml::ScoredRow> rows(test.size());
    model->score_batch(test, rows);
    for (std::size_t i = 0; i < test.size(); ++i) {
      EXPECT_GE(rows[i].probability, 0.0) << spec.name;
      EXPECT_LE(rows[i].probability, 1.0) << spec.name;
      EXPECT_EQ(rows[i].stage, 0u) << spec.name;
      EXPECT_FALSE(rows[i].degraded) << spec.name;
      const double alone = model->score_probabilities({&test[i], 1}).front();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(alone),
                std::bit_cast<std::uint64_t>(rows[i].probability))
          << spec.name << " row " << i << " scored alone";
    }
    std::vector<ml::ScoredRow> short_out(test.size() - 1);
    EXPECT_THROW(model->score_batch(test, short_out), InvalidArgument)
        << spec.name;
  }
}

}  // namespace
}  // namespace phishinghook::core

#include "bench_common.hpp"

#include <cstdio>

#include "common/csv.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "ml/cross_validation.hpp"

namespace phishinghook::bench {

using common::ScaleParams;

void print_banner(const std::string& title, const std::string& paper_ref) {
  const auto params = common::current_scale_params();
  std::printf("=== PhishingHook reproduction: %s ===\n", title.c_str());
  std::printf("paper artifact: %s\n", paper_ref.c_str());
  std::printf(
      "scale: %s (corpus %zu, %d folds x %d runs, %d NN epochs, image %zux%zu,"
      " seq cap %zu) — set PHOOK_SCALE=smoke|small|medium|full\n\n",
      common::scale_name(common::experiment_scale()).c_str(),
      params.corpus_size, params.folds, params.runs, params.nn_epochs,
      params.image_side, params.image_side, params.max_sequence);
}

BuiltDataset build_bench_dataset(bool temporal) {
  const auto params = common::current_scale_params();
  synth::DatasetConfig config;
  config.target_size = params.corpus_size;
  config.seed = 42;
  config.match_benign_temporal = temporal;
  return synth::DatasetBuilder(config).build();
}

std::filesystem::path bench_output_dir(const char* argv0) {
  const std::filesystem::path self(argv0);
  if (self.has_parent_path()) return self.parent_path();
  return std::filesystem::current_path();
}

namespace {

std::filesystem::path trials_cache_path(const std::filesystem::path& dir) {
  return dir / ("table2_trials_" +
                common::scale_name(common::experiment_scale()) + ".csv");
}

std::filesystem::path scalability_cache_path(
    const std::filesystem::path& dir) {
  return dir / ("scalability_" +
                common::scale_name(common::experiment_scale()) + ".csv");
}

core::ModelCategory category_from(const std::string& label) {
  if (label == "Histogram") return core::ModelCategory::kHistogram;
  if (label == "Vision") return core::ModelCategory::kVision;
  if (label == "Language") return core::ModelCategory::kLanguage;
  return core::ModelCategory::kVulnerability;
}

std::optional<std::vector<ModelEvaluation>> load_trials(
    const std::filesystem::path& path) {
  if (!std::filesystem::exists(path)) return std::nullopt;
  const auto table = common::read_csv_file(path);
  std::vector<ModelEvaluation> out;
  for (const auto& row : table.rows) {
    const std::string& model = row[0];
    if (out.empty() || out.back().model != model) {
      ModelEvaluation evaluation;
      evaluation.model = model;
      evaluation.category = category_from(row[1]);
      out.push_back(std::move(evaluation));
    }
    core::TrialResult trial;
    trial.run = std::stoi(row[2]);
    trial.fold = std::stoi(row[3]);
    trial.metrics.accuracy = std::stod(row[4]);
    trial.metrics.f1 = std::stod(row[5]);
    trial.metrics.precision = std::stod(row[6]);
    trial.metrics.recall = std::stod(row[7]);
    trial.train_seconds = std::stod(row[8]);
    trial.inference_seconds = std::stod(row[9]);
    out.back().trials.push_back(trial);
  }
  return out.empty() ? std::nullopt : std::optional(std::move(out));
}

void save_trials(const std::filesystem::path& path,
                 const std::vector<ModelEvaluation>& evaluations) {
  common::CsvWriter writer(path);
  writer.write_row({"model", "category", "run", "fold", "accuracy", "f1",
                    "precision", "recall", "train_s", "inference_s"});
  for (const ModelEvaluation& evaluation : evaluations) {
    for (const core::TrialResult& trial : evaluation.trials) {
      writer.write_row(
          {evaluation.model, std::string(category_label(evaluation.category)),
           std::to_string(trial.run), std::to_string(trial.fold),
           std::to_string(trial.metrics.accuracy),
           std::to_string(trial.metrics.f1),
           std::to_string(trial.metrics.precision),
           std::to_string(trial.metrics.recall),
           std::to_string(trial.train_seconds),
           std::to_string(trial.inference_seconds)});
    }
  }
}

}  // namespace

std::vector<ModelEvaluation> table2_trials(
    const std::filesystem::path& cache_dir) {
  const auto cache = trials_cache_path(cache_dir);
  if (auto loaded = load_trials(cache)) {
    std::printf("[using cached trials: %s]\n\n", cache.string().c_str());
    return *loaded;
  }

  const auto params = common::current_scale_params();
  const BuiltDataset dataset = build_bench_dataset();
  const auto specs = core::all_models(params);
  core::ExperimentConfig config;
  config.folds = params.folds;
  config.runs = params.runs;
  config.seed = 1234;
  const core::ExperimentHarness harness(config);

  std::vector<ModelEvaluation> out;
  for (const core::ModelSpec& spec : specs) {
    common::Timer timer;
    out.push_back(harness.evaluate(spec, dataset.samples));
    std::fprintf(stderr, "[trials] %-20s mean acc %.4f (%.1fs)\n",
                 spec.name.c_str(), out.back().mean().accuracy,
                 timer.seconds());
  }
  save_trials(cache, out);
  return out;
}

std::vector<ScalabilityCell> scalability_runs(
    const std::filesystem::path& cache_dir) {
  const auto cache = scalability_cache_path(cache_dir);
  if (std::filesystem::exists(cache)) {
    std::printf("[using cached scalability runs: %s]\n\n",
                cache.string().c_str());
    const auto table = common::read_csv_file(cache);
    std::vector<ScalabilityCell> out;
    for (const auto& row : table.rows) {
      ScalabilityCell cell;
      cell.model = row[0];
      cell.split = std::stoi(row[1]);
      cell.metrics.accuracy = std::stod(row[2]);
      cell.metrics.f1 = std::stod(row[3]);
      cell.metrics.precision = std::stod(row[4]);
      cell.metrics.recall = std::stod(row[5]);
      cell.train_seconds = std::stod(row[6]);
      cell.inference_seconds = std::stod(row[7]);
      out.push_back(std::move(cell));
    }
    return out;
  }

  const auto params = common::current_scale_params();
  const BuiltDataset dataset = build_bench_dataset();
  const auto specs = core::all_models(params);
  // Per-category champions (paper §IV-F): HSC / VM / LM best performers.
  const std::vector<std::string> champions = {"Random Forest",
                                              "ECA+EfficientNet", "SCSGuard"};
  std::vector<ScalabilityCell> out;
  for (int split = 1; split <= 3; ++split) {
    // Nested splits: 1/3 <= 2/3 <= 3/3 of the shuffled corpus.
    const std::size_t count = dataset.samples.size() * static_cast<std::size_t>(split) / 3;
    std::vector<synth::LabeledContract> subset(
        dataset.samples.begin(),
        dataset.samples.begin() + static_cast<std::ptrdiff_t>(count));
    std::vector<int> labels = core::labels_of(subset);
    common::Rng rng(17);
    const ml::Fold holdout = ml::stratified_holdout(labels, 0.2, rng);

    std::vector<const evm::Bytecode*> codes = core::codes_of(subset);
    std::vector<const evm::Bytecode*> train_codes, test_codes;
    std::vector<int> train_y, test_y;
    for (std::size_t i : holdout.train_indices) {
      train_codes.push_back(codes[i]);
      train_y.push_back(labels[i]);
    }
    for (std::size_t i : holdout.test_indices) {
      test_codes.push_back(codes[i]);
      test_y.push_back(labels[i]);
    }

    for (const std::string& name : champions) {
      auto model = core::find_model(specs, name).make(91 + static_cast<std::uint64_t>(split));
      common::Timer train_timer;
      model->fit(train_codes, train_y);
      ScalabilityCell cell;
      cell.model = name;
      cell.split = split;
      cell.train_seconds = train_timer.seconds();
      common::Timer inference_timer;
      const auto predictions =
          ml::threshold_predictions(model->score_probabilities(test_codes));
      cell.inference_seconds = inference_timer.seconds();
      cell.metrics = ml::compute_metrics(test_y, predictions);
      out.push_back(std::move(cell));
      std::fprintf(stderr, "[scalability] %-18s split %d/3 acc %.4f\n",
                   name.c_str(), split, out.back().metrics.accuracy);
    }
  }

  common::CsvWriter writer(cache);
  writer.write_row({"model", "split", "accuracy", "f1", "precision", "recall",
                    "train_s", "inference_s"});
  for (const ScalabilityCell& cell : out) {
    writer.write_row({cell.model, std::to_string(cell.split),
                      std::to_string(cell.metrics.accuracy),
                      std::to_string(cell.metrics.f1),
                      std::to_string(cell.metrics.precision),
                      std::to_string(cell.metrics.recall),
                      std::to_string(cell.train_seconds),
                      std::to_string(cell.inference_seconds)});
  }
  return out;
}

std::vector<ModelEvaluation> post_hoc_subset(
    const std::vector<ModelEvaluation>& all) {
  std::vector<ModelEvaluation> out;
  for (const ModelEvaluation& evaluation : all) {
    if (evaluation.model == "ESCORT" || evaluation.model == "GPT-2 (beta)" ||
        evaluation.model == "T5 (beta)") {
      continue;
    }
    out.push_back(evaluation);
  }
  return out;
}

}  // namespace phishinghook::bench

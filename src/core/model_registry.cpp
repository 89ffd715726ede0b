#include "core/model_registry.hpp"

#include "common/errors.hpp"
#include "ml/catboost.hpp"
#include "obs/trace.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/knn.hpp"
#include "ml/lightgbm.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/models/eca_efficientnet.hpp"
#include "ml/models/escort.hpp"
#include "ml/models/scsguard.hpp"
#include "ml/models/transformer_classifier.hpp"
#include "ml/models/vit.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"

namespace phishinghook::core {

std::string_view category_label(ModelCategory category) {
  switch (category) {
    case ModelCategory::kHistogram: return "Histogram";
    case ModelCategory::kVision: return "Vision";
    case ModelCategory::kLanguage: return "Language";
    case ModelCategory::kVulnerability: return "Vulnerability";
  }
  return "?";
}

// --- PhishingClassifier ----------------------------------------------------

void PhishingClassifier::check_out_size(ml::BytecodeBatchView view,
                                        std::span<const ml::ScoredRow> out) {
  if (out.size() != view.size()) {
    throw InvalidArgument("score_batch: out span size " +
                          std::to_string(out.size()) + " != view size " +
                          std::to_string(view.size()));
  }
}

namespace {

/// Writes the inner model's per-code probabilities as stage-0 rows.
void write_rows(const std::vector<double>& probabilities,
                std::span<ml::ScoredRow> out) {
  if (probabilities.size() != out.size()) {
    throw StateError("inner model returned " +
                     std::to_string(probabilities.size()) + " rows for " +
                     std::to_string(out.size()) + " codes");
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = ml::ScoredRow{probabilities[i], /*stage=*/0, /*degraded=*/false};
  }
}

}  // namespace

// --- HistogramAdapter -------------------------------------------------------

HistogramAdapter::HistogramAdapter(std::unique_ptr<ml::TabularClassifier> model,
                                   std::string name)
    : model_(std::move(model)), name_(std::move(name)) {}

HistogramAdapter::HistogramAdapter(std::unique_ptr<ml::TabularClassifier> model,
                                   std::string name,
                                   HistogramVocabulary vocabulary)
    : model_(std::move(model)),
      name_(std::move(name)),
      vocabulary_(std::move(vocabulary)) {}

void HistogramAdapter::fit(const std::vector<const Bytecode*>& codes,
                           const std::vector<int>& labels) {
  obs::ScopedSpan span("model.fit", name_.c_str());
  vocabulary_.fit(codes);
  model_->fit(vocabulary_.transform_all(codes), labels);
}

void HistogramAdapter::score_batch(const ml::BytecodeBatchView& view,
                                   std::span<ml::ScoredRow> out) {
  check_out_size(view, out);
  if (view.empty()) return;
  obs::ScopedSpan span("model.predict", name_.c_str());
  write_rows(model_->predict_proba(vocabulary_.transform_all(view)), out);
}

// --- VisionAdapter -----------------------------------------------------------

VisionAdapter::VisionAdapter(
    std::unique_ptr<ml::models::ImageClassifierModel> model, std::string name,
    ImageEncoding encoding, std::size_t side)
    : model_(std::move(model)),
      name_(std::move(name)),
      encoding_(encoding),
      side_(side) {}

std::vector<ml::nn::Tensor> VisionAdapter::encode(
    ml::BytecodeBatchView codes) const {
  std::vector<ml::nn::Tensor> out;
  out.reserve(codes.size());
  for (const Bytecode* code : codes) {
    out.push_back(encoding_ == ImageEncoding::kR2D2
                      ? r2d2_image(*code, side_)
                      : frequency_encoder_.transform(*code, side_));
  }
  return out;
}

void VisionAdapter::fit(const std::vector<const Bytecode*>& codes,
                        const std::vector<int>& labels) {
  obs::ScopedSpan span("model.fit", name_.c_str());
  if (encoding_ == ImageEncoding::kFrequency) frequency_encoder_.fit(codes);
  model_->fit(encode(codes), labels);
}

void VisionAdapter::score_batch(const ml::BytecodeBatchView& view,
                                std::span<ml::ScoredRow> out) {
  check_out_size(view, out);
  if (view.empty()) return;
  obs::ScopedSpan span("model.predict", name_.c_str());
  write_rows(model_->predict_proba(encode(view)), out);
}

// --- SequenceAdapter -----------------------------------------------------------

SequenceAdapter::SequenceAdapter(
    std::unique_ptr<ml::models::SequenceClassifierModel> model,
    std::string name, Tokenization tokenization, ModelCategory category,
    std::size_t ngram_vocab)
    : model_(std::move(model)),
      name_(std::move(name)),
      tokenization_(tokenization),
      category_(category),
      ngram_tokenizer_(ngram_vocab) {}

std::vector<TokenSequence> SequenceAdapter::tokenize(
    ml::BytecodeBatchView codes) const {
  std::vector<TokenSequence> out;
  out.reserve(codes.size());
  for (const Bytecode* code : codes) {
    out.push_back(tokenization_ == Tokenization::kNgram
                      ? ngram_tokenizer_.transform(*code)
                      : byte_tokens(*code));
  }
  return out;
}

void SequenceAdapter::fit(const std::vector<const Bytecode*>& codes,
                          const std::vector<int>& labels) {
  obs::ScopedSpan span("model.fit", name_.c_str());
  if (tokenization_ == Tokenization::kNgram) ngram_tokenizer_.fit(codes);
  model_->fit(tokenize(codes), labels);
}

void SequenceAdapter::score_batch(const ml::BytecodeBatchView& view,
                                  std::span<ml::ScoredRow> out) {
  check_out_size(view, out);
  if (view.empty()) return;
  obs::ScopedSpan span("model.predict", name_.c_str());
  write_rows(model_->predict_proba(tokenize(view)), out);
}

// --- registry ---------------------------------------------------------------------

namespace {

ml::models::SequenceModelConfig language_base(const common::ScaleParams& params,
                                              std::uint64_t seed) {
  ml::models::SequenceModelConfig base;
  base.vocab = kByteVocab;
  base.dim = 32;
  base.heads = 4;
  base.layers = 2;
  base.max_len = params.max_sequence;
  base.epochs = params.nn_epochs;
  base.seed = seed;
  return base;
}

}  // namespace

std::vector<ModelSpec> all_models(const common::ScaleParams& params) {
  std::vector<ModelSpec> specs;

  // --- HSCs (Table II order) ------------------------------------------------
  specs.push_back({"Random Forest", ModelCategory::kHistogram,
                   [](std::uint64_t seed) {
                     ml::RandomForestConfig config;
                     config.seed = seed;
                     return std::make_unique<HistogramAdapter>(
                         std::make_unique<ml::RandomForestClassifier>(config),
                         "Random Forest");
                   }});
  specs.push_back({"k-NN", ModelCategory::kHistogram, [](std::uint64_t) {
                     return std::make_unique<HistogramAdapter>(
                         std::make_unique<ml::KnnClassifier>(), "k-NN");
                   }});
  specs.push_back({"SVM", ModelCategory::kHistogram, [](std::uint64_t seed) {
                     ml::SvmConfig config;
                     config.seed = seed;
                     return std::make_unique<HistogramAdapter>(
                         std::make_unique<ml::SvmClassifier>(config), "SVM");
                   }});
  specs.push_back(
      {"Logistic Regression", ModelCategory::kHistogram, [](std::uint64_t seed) {
         ml::LogisticRegressionConfig config;
         config.seed = seed;
         return std::make_unique<HistogramAdapter>(
             std::make_unique<ml::LogisticRegressionClassifier>(config),
             "Logistic Regression");
       }});
  specs.push_back({"XGBoost", ModelCategory::kHistogram, [](std::uint64_t seed) {
                     ml::GradientBoostingConfig config;
                     config.seed = seed;
                     return std::make_unique<HistogramAdapter>(
                         std::make_unique<ml::GradientBoostingClassifier>(config),
                         "XGBoost");
                   }});
  specs.push_back({"LightGBM", ModelCategory::kHistogram, [](std::uint64_t seed) {
                     ml::LightGbmConfig config;
                     config.seed = seed;
                     return std::make_unique<HistogramAdapter>(
                         std::make_unique<ml::LightGbmClassifier>(config),
                         "LightGBM");
                   }});
  specs.push_back({"CatBoost", ModelCategory::kHistogram, [](std::uint64_t seed) {
                     ml::CatBoostConfig config;
                     config.seed = seed;
                     return std::make_unique<HistogramAdapter>(
                         std::make_unique<ml::CatBoostClassifier>(config),
                         "CatBoost");
                   }});

  // --- Vision models -----------------------------------------------------------
  // Vision forward passes are an order of magnitude cheaper than the
  // language models' at these sides, so they train 4x the epochs within the
  // same budget (the paper trained all deep models to convergence on GPUs).
  const int vision_epochs = 4 * params.nn_epochs;
  specs.push_back(
      {"ECA+EfficientNet", ModelCategory::kVision,
       [params, vision_epochs](std::uint64_t seed) {
         ml::models::EcaEfficientNetConfig config;
         config.base.image_side = params.image_side;
         config.base.epochs = vision_epochs;
         config.base.seed = seed;
         return std::make_unique<VisionAdapter>(
             std::make_unique<ml::models::EcaEfficientNetModel>(config),
             "ECA+EfficientNet", ImageEncoding::kR2D2, params.image_side);
       }});
  specs.push_back({"ViT+R2D2", ModelCategory::kVision,
                   [params, vision_epochs](std::uint64_t seed) {
                     ml::models::VitConfig config;
                     config.base.image_side = params.image_side;
                     config.base.epochs = vision_epochs;
                     config.base.seed = seed;
                     return std::make_unique<VisionAdapter>(
                         std::make_unique<ml::models::VitModel>(config),
                         "ViT+R2D2", ImageEncoding::kR2D2, params.image_side);
                   }});
  specs.push_back({"ViT+Freq", ModelCategory::kVision,
                   [params, vision_epochs](std::uint64_t seed) {
                     ml::models::VitConfig config;
                     config.base.image_side = params.image_side;
                     config.base.epochs = vision_epochs;
                     config.base.seed = seed;
                     return std::make_unique<VisionAdapter>(
                         std::make_unique<ml::models::VitModel>(config),
                         "ViT+Freq", ImageEncoding::kFrequency,
                         params.image_side);
                   }});

  // --- Language models ------------------------------------------------------------
  specs.push_back(
      {"SCSGuard", ModelCategory::kLanguage, [params](std::uint64_t seed) {
         ml::models::SequenceModelConfig config = language_base(params, seed);
         config.vocab = 4096;
         return std::make_unique<SequenceAdapter>(
             std::make_unique<ml::models::ScsGuardModel>(config), "SCSGuard",
             Tokenization::kNgram, ModelCategory::kLanguage, config.vocab);
       }});
  specs.push_back(
      {"GPT-2 (alpha)", ModelCategory::kLanguage, [params](std::uint64_t seed) {
         const auto config =
             ml::models::gpt2_config(language_base(params, seed), false);
         return std::make_unique<SequenceAdapter>(
             std::make_unique<ml::models::TransformerClassifier>(config,
                                                                 "GPT-2 (alpha)"),
             "GPT-2 (alpha)", Tokenization::kBytes, ModelCategory::kLanguage);
       }});
  specs.push_back(
      {"T5 (alpha)", ModelCategory::kLanguage, [params](std::uint64_t seed) {
         const auto config =
             ml::models::t5_config(language_base(params, seed), false);
         return std::make_unique<SequenceAdapter>(
             std::make_unique<ml::models::TransformerClassifier>(config,
                                                                 "T5 (alpha)"),
             "T5 (alpha)", Tokenization::kBytes, ModelCategory::kLanguage);
       }});
  specs.push_back(
      {"GPT-2 (beta)", ModelCategory::kLanguage, [params](std::uint64_t seed) {
         const auto config =
             ml::models::gpt2_config(language_base(params, seed), true);
         return std::make_unique<SequenceAdapter>(
             std::make_unique<ml::models::TransformerClassifier>(config,
                                                                 "GPT-2 (beta)"),
             "GPT-2 (beta)", Tokenization::kBytes, ModelCategory::kLanguage);
       }});
  specs.push_back(
      {"T5 (beta)", ModelCategory::kLanguage, [params](std::uint64_t seed) {
         const auto config =
             ml::models::t5_config(language_base(params, seed), true);
         return std::make_unique<SequenceAdapter>(
             std::make_unique<ml::models::TransformerClassifier>(config,
                                                                 "T5 (beta)"),
             "T5 (beta)", Tokenization::kBytes, ModelCategory::kLanguage);
       }});

  // --- Vulnerability detection model -------------------------------------------------
  specs.push_back(
      {"ESCORT", ModelCategory::kVulnerability, [params](std::uint64_t seed) {
         ml::models::EscortConfig config;
         config.max_len = params.max_sequence;
         config.pretrain_epochs = std::max(2, params.nn_epochs / 2);
         config.transfer_epochs = params.nn_epochs;
         config.seed = seed;
         return std::make_unique<SequenceAdapter>(
             std::make_unique<ml::models::EscortModel>(config), "ESCORT",
             Tokenization::kBytes, ModelCategory::kVulnerability);
       }});

  return specs;
}

const ModelSpec& find_model(const std::vector<ModelSpec>& specs,
                            std::string_view name) {
  for (const ModelSpec& spec : specs) {
    if (spec.name == name) return spec;
  }
  throw NotFound("model '" + std::string(name) + "'");
}

}  // namespace phishinghook::core

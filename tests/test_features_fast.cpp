// Equivalence suite for the fast paths (DESIGN.md §10): the LUT-compiled
// feature transforms and the flattened tree ensembles must be
// *bit-identical* to the legacy Disassembly/string and node-walk oracles —
// EXPECT_EQ on doubles throughout, approximate equality would hide exactly
// the reordering bugs this suite exists to catch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/features.hpp"
#include "ml/catboost.hpp"
#include "ml/flat_tree.hpp"
#include "ml/gbdt_common.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/lightgbm.hpp"
#include "ml/random_forest.hpp"
#include "synth/dataset_builder.hpp"

namespace phishinghook::core {
namespace {

using ml::models::TokenSequence;

/// Adversarial bytecodes for the single-pass byte scanner: truncated PUSH
/// immediates at the end of the code, undefined opcode bytes (UNKNOWN_0xXX),
/// PUSH0, and the empty code.
std::vector<Bytecode> edge_codes() {
  return {
      Bytecode::from_hex("0x"),          // empty
      Bytecode::from_hex("0x61ff"),      // PUSH2, one of two immediate bytes
      Bytecode::from_hex("0x7f"),        // bare PUSH32, no immediate bytes
      Bytecode::from_hex("0x5f"),        // PUSH0 (no immediate)
      Bytecode::from_hex("0x0c21a5ee"),  // undefined bytes only
      // Mixed: real prologue, INVALID, undefined, truncated PUSH3.
      Bytecode::from_hex("0x6080604052fe0c62aabb"),
  };
}

/// Small synthesized corpus (deterministic): realistic opcode mix including
/// duplicated campaign bytecodes (exercises the FrequencyEncoder fit cache).
std::vector<Bytecode> synth_corpus() {
  synth::DatasetConfig config;
  config.target_size = 60;
  config.seed = 77;
  const synth::BuiltDataset dataset = synth::DatasetBuilder(config).build();
  std::vector<Bytecode> corpus;
  corpus.reserve(dataset.samples.size());
  for (const synth::LabeledContract& sample : dataset.samples) {
    corpus.push_back(sample.code);
  }
  return corpus;
}

std::vector<const Bytecode*> pointers(const std::vector<Bytecode>& codes) {
  std::vector<const Bytecode*> out;
  out.reserve(codes.size());
  for (const Bytecode& code : codes) out.push_back(&code);
  return out;
}

// --- HistogramVocabulary ------------------------------------------------------

TEST(HistogramFast, TransformMatchesLegacyOnCorpus) {
  const std::vector<Bytecode> corpus = synth_corpus();
  HistogramVocabulary vocab;
  vocab.fit(pointers(corpus));
  ASSERT_GT(vocab.size(), 0u);
  for (const Bytecode& code : corpus) {
    const std::vector<double> fast = vocab.transform(code);
    const std::vector<double> legacy = vocab.transform_legacy(code);
    ASSERT_EQ(fast.size(), legacy.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i], legacy[i]) << "column " << i;
    }
  }
}

TEST(HistogramFast, TransformMatchesLegacyOnEdgeCases) {
  // Fit on the edge codes themselves so UNKNOWN_0xXX and the truncated
  // PUSHes are *in* vocabulary, then also transform out-of-vocabulary
  // corpus codes through the edge vocabulary.
  const std::vector<Bytecode> edges = edge_codes();
  HistogramVocabulary vocab;
  vocab.fit(pointers(edges));
  const std::vector<Bytecode> corpus = synth_corpus();
  for (const std::vector<Bytecode>* set : {&edges, &corpus}) {
    for (const Bytecode& code : *set) {
      ASSERT_EQ(vocab.transform(code), vocab.transform_legacy(code));
    }
  }
}

TEST(HistogramFast, EdgeVocabularyContainsUnknownAndTruncatedPush) {
  const std::vector<Bytecode> edges = edge_codes();
  HistogramVocabulary vocab;
  vocab.fit(pointers(edges));
  const auto& names = vocab.mnemonics();
  const auto has = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("PUSH2"));          // truncated PUSH still counts
  EXPECT_TRUE(has("PUSH32"));         // bare trailing PUSH32
  EXPECT_TRUE(has("PUSH0"));
  EXPECT_TRUE(has("UNKNOWN_0x0c"));   // undefined byte
  EXPECT_TRUE(has("INVALID"));        // 0xfe is a *defined* opcode
}

TEST(HistogramFast, TransformIntoReusesOneBuffer) {
  const std::vector<Bytecode> corpus = synth_corpus();
  HistogramVocabulary vocab;
  vocab.fit(pointers(corpus));
  std::vector<double> buffer(vocab.size(), -1.0);  // dirty: call must zero it
  for (const Bytecode& code : corpus) {
    vocab.transform_into(code, buffer);
    ASSERT_EQ(buffer, vocab.transform_legacy(code));
  }
}

TEST(HistogramFast, TransformIntoRejectsWrongSize) {
  const Bytecode code = Bytecode::from_hex("0x6080604052");
  HistogramVocabulary vocab;
  vocab.fit({&code});
  std::vector<double> wrong(vocab.size() + 1, 0.0);
  EXPECT_THROW(vocab.transform_into(code, wrong), InvalidArgument);
}

TEST(HistogramFast, FromMnemonicsRebuildsTheLut) {
  const std::vector<Bytecode> corpus = synth_corpus();
  HistogramVocabulary fitted;
  fitted.fit(pointers(corpus));
  const HistogramVocabulary restored =
      HistogramVocabulary::from_mnemonics(fitted.mnemonics());
  for (const Bytecode& code : corpus) {
    ASSERT_EQ(restored.transform(code), fitted.transform_legacy(code));
  }
}

TEST(HistogramFast, TransformAllMatchesPerRowLegacy) {
  const std::vector<Bytecode> corpus = synth_corpus();
  HistogramVocabulary vocab;
  vocab.fit(pointers(corpus));
  const ml::Matrix m = vocab.transform_all(pointers(corpus));
  ASSERT_EQ(m.rows(), corpus.size());
  ASSERT_EQ(m.cols(), vocab.size());
  for (std::size_t r = 0; r < corpus.size(); ++r) {
    const std::vector<double> legacy = vocab.transform_legacy(corpus[r]);
    const auto row = m.row(r);
    for (std::size_t c = 0; c < legacy.size(); ++c) {
      ASSERT_EQ(row[c], legacy[c]) << "row " << r << " col " << c;
    }
  }
}

TEST(HistogramFast, BankedHistogramMatchesLegacyAcrossSizeThreshold) {
  // transform_into switches to the 4-bank u32 histogram at
  // kBankedHistogramBytes; codes straddling the threshold must agree with
  // the legacy scan on both sides of the switch. Random bytes land on PUSH
  // opcodes often enough to exercise the arithmetic immediate skip,
  // including a truncated trailing PUSH.
  common::Rng rng(911);
  const std::size_t kb = HistogramVocabulary::kBankedHistogramBytes;
  std::vector<Bytecode> codes;
  for (const std::size_t n : {kb - 1, kb, kb + 1, 2 * kb + 33}) {
    std::vector<std::uint8_t> bytes(n);
    for (std::uint8_t& b : bytes) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    codes.emplace_back(std::move(bytes));
  }
  // A small code rides along so the direct-scatter path shares the vocab.
  codes.push_back(Bytecode::from_hex("0x6080604052fe"));
  HistogramVocabulary vocab;
  vocab.fit(pointers(codes));
  for (const Bytecode& code : codes) {
    ASSERT_EQ(vocab.transform(code), vocab.transform_legacy(code));
  }
}

// --- FrequencyEncoder ---------------------------------------------------------

void expect_tensors_identical(const ml::nn::Tensor& fast,
                              const ml::nn::Tensor& legacy) {
  ASSERT_EQ(fast.shape(), legacy.shape());
  const auto shape = fast.shape();
  for (std::size_t c = 0; c < shape[0]; ++c) {
    for (std::size_t h = 0; h < shape[1]; ++h) {
      for (std::size_t w = 0; w < shape[2]; ++w) {
        ASSERT_EQ(fast.at3(c, h, w), legacy.at3(c, h, w))
            << "pixel (" << c << "," << h << "," << w << ")";
      }
    }
  }
}

TEST(FrequencyFast, TransformMatchesLegacyOnFittedCorpus) {
  // Fitted codes hit the interned pixel cache — still must equal the
  // full legacy recomputation.
  const std::vector<Bytecode> corpus = synth_corpus();
  FrequencyEncoder encoder;
  encoder.fit(pointers(corpus));
  for (const Bytecode& code : corpus) {
    expect_tensors_identical(encoder.transform(code, 16),
                             encoder.transform_legacy(code, 16));
  }
}

TEST(FrequencyFast, TransformMatchesLegacyOnHeldOutEdgeCases) {
  // Held-out codes miss the cache and run the LUT scan, including
  // truncated PUSH operands and UNKNOWN mnemonics.
  const std::vector<Bytecode> corpus = synth_corpus();
  FrequencyEncoder encoder;
  encoder.fit(pointers(corpus));
  for (const Bytecode& code : edge_codes()) {
    expect_tensors_identical(encoder.transform(code, 8),
                             encoder.transform_legacy(code, 8));
  }
}

TEST(FrequencyFast, EdgeCorpusFitMatchesLegacy) {
  // Fit *on* the adversarial codes: operand table keyed by truncated
  // (zero-extended) immediates, gas table with UNKNOWN gas-NaN rows.
  const std::vector<Bytecode> edges = edge_codes();
  FrequencyEncoder encoder;
  encoder.fit(pointers(edges));
  for (const Bytecode& code : edges) {
    expect_tensors_identical(encoder.transform(code, 8),
                             encoder.transform_legacy(code, 8));
  }
}

// --- NgramTokenizer -----------------------------------------------------------

/// The pre-optimization fit verbatim (ordered map + reverse sort), as the
/// oracle that the unordered_map + explicit-comparator rewrite must match
/// id-for-id.
class LegacyNgramOracle {
 public:
  explicit LegacyNgramOracle(std::size_t vocab_size)
      : vocab_size_(vocab_size) {}

  void fit(const std::vector<const Bytecode*>& corpus) {
    std::map<std::uint32_t, std::size_t> counts;
    for (const Bytecode* code : corpus) {
      for (std::size_t offset = 0; offset < code->size(); offset += 3) {
        ++counts[gram_at(*code, offset)];
      }
    }
    std::vector<std::pair<std::size_t, std::uint32_t>> ranked;
    ranked.reserve(counts.size());
    for (const auto& [gram, count] : counts) ranked.emplace_back(count, gram);
    std::sort(ranked.rbegin(), ranked.rend());
    gram_ids_.clear();
    const std::size_t keep = std::min(ranked.size(), vocab_size_ - 1);
    for (std::size_t i = 0; i < keep; ++i) {
      gram_ids_.emplace(ranked[i].second, i + 1);
    }
  }

  TokenSequence transform(const Bytecode& code) const {
    TokenSequence out;
    for (std::size_t offset = 0; offset < code.size(); offset += 3) {
      const auto it = gram_ids_.find(gram_at(code, offset));
      out.push_back(it == gram_ids_.end() ? 0 : it->second);
    }
    if (out.empty()) out.push_back(0);
    return out;
  }

 private:
  static std::uint32_t gram_at(const Bytecode& code, std::size_t offset) {
    std::uint32_t gram = 0;
    for (std::size_t b = 0; b < 3; ++b) {
      gram = (gram << 8) |
             (offset + b < code.size() ? code.bytes()[offset + b] : 0u);
    }
    return gram;
  }

  std::size_t vocab_size_;
  std::map<std::uint32_t, std::size_t> gram_ids_;
};

TEST(NgramFast, VocabularyAndIdsMatchLegacyOracle) {
  const std::vector<Bytecode> corpus = synth_corpus();
  // A small vocab forces the frequency cutoff (and its tie-breaking) to
  // actually bite.
  for (const std::size_t vocab_size : {8u, 64u, 4096u}) {
    NgramTokenizer tokenizer(vocab_size);
    LegacyNgramOracle oracle(vocab_size);
    tokenizer.fit(pointers(corpus));
    oracle.fit(pointers(corpus));
    for (const Bytecode& code : corpus) {
      ASSERT_EQ(tokenizer.transform(code), oracle.transform(code));
    }
    for (const Bytecode& code : edge_codes()) {
      ASSERT_EQ(tokenizer.transform(code), oracle.transform(code));
    }
  }
}

// --- Flattened tree ensembles -------------------------------------------------

struct Dataset {
  ml::Matrix x;
  std::vector<int> y;
};

Dataset make_dataset(std::size_t n, std::size_t d, std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset data;
  data.x = ml::Matrix(n, d);
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

/// Fit, then assert flat == node-walk on train and held-out rows, then
/// assert a save/load round trip reproduces the flat predictions.
template <typename Model>
void expect_flat_matches_nodewalk(Model& model, const Dataset& train,
                                  const Dataset& test) {
  model.fit(train.x, train.y);
  for (const Dataset* data : {&train, &test}) {
    const std::vector<double> flat = model.predict_proba(data->x);
    const std::vector<double> walked = model.predict_proba_nodewalk(data->x);
    ASSERT_EQ(flat.size(), walked.size());
    for (std::size_t i = 0; i < flat.size(); ++i) {
      ASSERT_EQ(flat[i], walked[i]) << "row " << i;
    }
  }
  std::stringstream bytes;
  model.save(bytes);
  const std::unique_ptr<ml::TabularClassifier> loaded =
      ml::TabularClassifier::load(bytes);
  ASSERT_EQ(loaded->predict_proba(test.x), model.predict_proba(test.x));
}

TEST(FlatEnsemble, RandomForestMatchesNodewalk) {
  const Dataset train = make_dataset(200, 7, 301);
  const Dataset test = make_dataset(97, 7, 302);  // odd size: partial block
  ml::RandomForestConfig config;
  config.n_trees = 24;
  config.max_depth = 9;
  ml::RandomForestClassifier model(config);
  expect_flat_matches_nodewalk(model, train, test);
}

TEST(FlatEnsemble, GradientBoostingMatchesNodewalk) {
  const Dataset train = make_dataset(180, 6, 303);
  const Dataset test = make_dataset(65, 6, 304);
  ml::GradientBoostingConfig config;
  config.n_rounds = 15;
  config.max_depth = 4;
  config.subsample = 0.8;
  config.colsample = 0.8;
  ml::GradientBoostingClassifier model(config);
  expect_flat_matches_nodewalk(model, train, test);
}

TEST(FlatEnsemble, LightGbmMatchesNodewalk) {
  const Dataset train = make_dataset(180, 6, 305);
  const Dataset test = make_dataset(63, 6, 306);
  ml::LightGbmConfig config;
  config.n_rounds = 12;
  ml::LightGbmClassifier model(config);
  expect_flat_matches_nodewalk(model, train, test);
}

TEST(FlatEnsemble, CatBoostMatchesNodewalk) {
  const Dataset train = make_dataset(180, 6, 307);
  const Dataset test = make_dataset(70, 6, 308);
  ml::CatBoostConfig config;
  config.n_rounds = 10;
  config.depth = 5;
  ml::CatBoostClassifier model(config);
  expect_flat_matches_nodewalk(model, train, test);
}

// --- Partial-block sweep -----------------------------------------------------
//
// The compiled ensemble must reproduce the node-walk oracle bit-for-bit on
// row counts that straddle row-block and four-row interleave boundaries.

template <typename Model>
void expect_sweep_matches_nodewalk(const ml::FlatTreeEnsemble& flat,
                                   const Model& model,
                                   std::size_t n_features) {
  for (const std::size_t rows :
       {std::size_t{63}, std::size_t{65}, std::size_t{97}}) {
    const Dataset probe = make_dataset(rows, n_features, 500 + rows);
    const std::vector<double> walked = model.predict_proba_nodewalk(probe.x);
    const std::vector<double> fast = flat.predict_proba(probe.x);
    ASSERT_EQ(fast.size(), walked.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i], walked[i]) << "rows " << rows << " row " << i;
    }
  }
}

TEST(FlatEnsembleSweep, RandomForestAllTraversalsAllBlocks) {
  const Dataset train = make_dataset(220, 7, 401);
  ml::RandomForestConfig config;
  config.n_trees = 12;
  config.max_depth = 9;
  ml::RandomForestClassifier model(config);
  model.fit(train.x, train.y);
  expect_sweep_matches_nodewalk(
      ml::FlatTreeEnsemble::from_forest(model.trees()), model, 7);
}

TEST(FlatEnsembleSweep, GradientBoostingAllTraversalsAllBlocks) {
  const Dataset train = make_dataset(200, 6, 402);
  ml::GradientBoostingConfig config;
  config.n_rounds = 14;
  config.max_depth = 4;
  ml::GradientBoostingClassifier model(config);
  model.fit(train.x, train.y);
  expect_sweep_matches_nodewalk(
      ml::FlatTreeEnsemble::from_boosted(model.trees(), model.base_score()),
      model, 6);
}

TEST(FlatEnsembleSweep, LightGbmAllTraversalsAllBlocks) {
  const Dataset train = make_dataset(200, 6, 403);
  ml::LightGbmConfig config;
  config.n_rounds = 12;
  ml::LightGbmClassifier model(config);
  model.fit(train.x, train.y);
  expect_sweep_matches_nodewalk(
      ml::FlatTreeEnsemble::from_boosted(model.trees(), model.base_score()),
      model, 6);
}

TEST(FlatEnsembleSweep, CatBoostAllTraversalsAllBlocks) {
  const Dataset train = make_dataset(200, 6, 404);
  ml::CatBoostConfig config;
  config.n_rounds = 10;
  config.depth = 6;
  ml::CatBoostClassifier model(config);
  model.fit(train.x, train.y);
  expect_sweep_matches_nodewalk(
      ml::FlatTreeEnsemble::from_oblivious(model.trees(), model.base_score()),
      model, 6);
}

TEST(FlatEnsembleSweep, DenormalThresholdsStayBitIdentical) {
  // Thresholds at denormal spacing around zero: interning must keep each
  // distinct double distinct, and the compiled walk must agree with the
  // scalar oracle exactly at the boundary values themselves.
  const double denorm = std::numeric_limits<double>::denorm_min();
  ml::ObliviousTree tree;
  tree.features = {0, 1, 0};
  tree.thresholds = {0.0, denorm, -denorm};
  tree.leaf_values.resize(8);
  for (std::size_t i = 0; i < 8; ++i) {
    tree.leaf_values[i] = 0.125 * static_cast<double>(i) - 0.5;
  }
  const std::vector<ml::ObliviousTree> trees = {tree};
  const double base_score = 0.25;

  const std::vector<double> grid = {-2.0 * denorm, -denorm, -0.0, 0.0,
                                    denorm,        2.0 * denorm, 1.0};
  ml::Matrix x(grid.size() * grid.size(), 2);
  std::size_t r = 0;
  for (const double a : grid) {
    for (const double b : grid) {
      x.at(r, 0) = a;
      x.at(r, 1) = b;
      ++r;
    }
  }

  const std::vector<double> got =
      ml::FlatTreeEnsemble::from_oblivious(trees, base_score).predict_proba(x);
  ASSERT_EQ(got.size(), x.rows());
  for (std::size_t row = 0; row < x.rows(); ++row) {
    std::size_t leaf = 0;
    for (std::size_t level = 0; level < tree.features.size(); ++level) {
      const std::size_t feature =
          static_cast<std::size_t>(tree.features[level]);
      leaf = (leaf << 1) |
             (x.at(row, feature) > tree.thresholds[level] ? 1u : 0u);
    }
    const double want = ml::gbdt::sigmoid(base_score + tree.leaf_values[leaf]);
    ASSERT_EQ(got[row], want) << "row " << row;
  }
}

TEST(FlatEnsemble, PredictBeforeFitThrows) {
  const Dataset data = make_dataset(10, 4, 309);
  EXPECT_THROW(ml::RandomForestClassifier().predict_proba(data.x), StateError);
  EXPECT_THROW(ml::GradientBoostingClassifier().predict_proba(data.x),
               StateError);
  EXPECT_THROW(ml::LightGbmClassifier().predict_proba(data.x), StateError);
  EXPECT_THROW(ml::CatBoostClassifier().predict_proba(data.x), StateError);
}

}  // namespace
}  // namespace phishinghook::core

#include "stack.hpp"

#include <bit>
#include <stdexcept>

#include "core/model_registry.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/random_forest.hpp"
#include "synth/dataset_builder.hpp"

namespace perfbench {

namespace core = phishinghook::core;
namespace synth = phishinghook::synth;

void LayerProbes::reset() {
  spans.clear();
  cascade.reset();
  stage0.reset();
  stage1.reset();
  fetch.reset();
}

std::unique_ptr<serve::CascadeScorer> fit_cascade(LayerProbes* probes) {
  synth::DatasetConfig dataset_config;
  dataset_config.target_size = 160;
  dataset_config.seed = 97;
  const synth::BuiltDataset built =
      synth::DatasetBuilder(dataset_config).build();
  std::vector<const evm::Bytecode*> codes;
  std::vector<int> labels;
  for (const synth::LabeledContract& sample : built.samples) {
    codes.push_back(&sample.code);
    labels.push_back(sample.phishing ? 1 : 0);
  }

  auto stage0 = std::make_unique<core::HistogramAdapter>(
      std::make_unique<ml::LogisticRegressionClassifier>(), "logreg");
  stage0->fit(codes, labels);
  ml::RandomForestConfig rf;
  rf.n_trees = 8;
  rf.max_depth = 6;
  auto heavy = std::make_unique<core::HistogramAdapter>(
      std::make_unique<ml::RandomForestClassifier>(rf), "random-forest");
  heavy->fit(codes, labels);

  std::vector<std::unique_ptr<ml::Scorer>> stages;
  if (probes != nullptr) {
    stages.push_back(std::make_unique<TimedScorer>(
        std::move(stage0), "ml.stage0", probes->stage0, probes->spans));
    stages.push_back(std::make_unique<TimedScorer>(
        std::move(heavy), "ml.stage1", probes->stage1, probes->spans));
  } else {
    stages.push_back(std::move(stage0));
    stages.push_back(std::move(heavy));
  }
  return std::make_unique<serve::CascadeScorer>(std::move(stages),
                                                serve::CascadeConfig{});
}

ServingStack::ServingStack(const StackSpec& spec, LayerProbes* probes)
    : cascade_(fit_cascade(probes)),
      chain_(std::make_unique<stream::LiveChain>(spec.miner)) {
  // Quiesced set-up: no reader runs yet, so the raw chain is safe to write.
  if (spec.contracts != nullptr) {
    const evm::Address deployer =
        evm::Address::from_hex("0x00000000000000000000000000000000000be7c0");
    deployed_.reserve(spec.contracts->size());
    for (const evm::Bytecode& code : *spec.contracts) {
      deployed_.push_back(
          chain_->raw_chain().register_contract(deployer, code).address);
    }
  }
  for (std::size_t i = 0; i < spec.premine_blocks; ++i) {
    chain_->mine_next_block();
  }

  const phishinghook::chain::Explorer* explorer = &chain_->explorer();
  ml::Scorer* detector = cascade_.get();
  if (probes != nullptr) {
    timed_explorer_ =
        std::make_unique<TimedExplorer>(*explorer, probes->fetch, probes->spans);
    explorer = timed_explorer_.get();
    timed_cascade_ = std::make_unique<TimedScorer>(
        *cascade_, "ml.cascade", probes->cascade, probes->spans);
    detector = timed_cascade_.get();
  }

  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  engine_config.max_queue = 256;
  engine_config.cache_capacity = spec.cache_capacity;
  engine_ = std::make_unique<serve::ScoringEngine>(*explorer, *detector,
                                                   engine_config);
  if (spec.rpc) {
    frontend_ = std::make_unique<serve::RpcFrontend>(*engine_);
    frontend_->start(0);
  }
}

ServingStack::~ServingStack() {
  if (frontend_) frontend_->stop();
  frontend_.reset();
  engine_.reset();
}

void Oracle::add(ml::Scorer& scorer, const std::vector<evm::Address>& addresses,
                 const std::vector<const evm::Bytecode*>& codes) {
  if (addresses.size() != codes.size()) {
    throw std::invalid_argument("Oracle::add: addresses and codes differ");
  }
  // The engine answers an account without code with status empty_code and
  // probability 0 without asking the model; everything else is scored.
  std::vector<const evm::Bytecode*> scored;
  std::vector<evm::Address> scored_addresses;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (codes[i]->empty()) {
      reference_[addresses[i]] = 0.0;
    } else {
      scored.push_back(codes[i]);
      scored_addresses.push_back(addresses[i]);
    }
  }
  std::vector<ml::ScoredRow> rows(scored.size());
  scorer.score_batch(ml::BytecodeBatchView(scored), rows);
  for (std::size_t i = 0; i < scored.size(); ++i) {
    reference_[scored_addresses[i]] = rows[i].probability;
  }
}

bool Oracle::matches(const evm::Address& address, double probability) const {
  const auto it = reference_.find(address);
  return it != reference_.end() &&
         std::bit_cast<std::uint64_t>(it->second) ==
             std::bit_cast<std::uint64_t>(probability);
}

}  // namespace perfbench

// The served stack, assembled from public APIs exactly as
// examples/score_server assembles it: a two-stage serve::CascadeScorer
// (logreg behind core::HistogramAdapter, then a random forest; band
// [0.35, 0.65]) behind serve::ScoringEngine (workers=2, max_queue=256) and,
// for the RPC workloads, serve::RpcFrontend on loopback with a default
// net::RpcConfig.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "layers.hpp"
#include "serve/cascade.hpp"
#include "serve/rpc_frontend.hpp"
#include "serve/scoring_engine.hpp"
#include "stream/live_chain.hpp"

namespace perfbench {

namespace serve = phishinghook::serve;
namespace stream = phishinghook::stream;

/// The decorators' probes and spans; present only in the traced run.
struct LayerProbes {
  SpanLog spans;
  ScorerProbe cascade;
  ScorerProbe stage0;
  ScorerProbe stage1;
  FetchProbe fetch;

  /// Starts a fresh measurement window (drops warm-up observations).
  void reset();
};

/// Fits the two-stage cascade. With `probes`, each stage is wrapped in a
/// TimedScorer before the cascade takes ownership of it.
std::unique_ptr<serve::CascadeScorer> fit_cascade(LayerProbes* probes);

struct StackSpec {
  /// Runtime codes deployed with ChainStore::register_contract, in order.
  const std::vector<evm::Bytecode>* contracts = nullptr;
  /// Miner for the live chain; blocks mined before serving starts.
  phishinghook::synth::MinerConfig miner;
  std::size_t premine_blocks = 0;
  std::size_t cache_capacity = serve::EngineConfig{}.cache_capacity;
  bool rpc = true;
};

class ServingStack {
 public:
  /// Fit, chain, engine and (when spec.rpc) the bound front end.
  ServingStack(const StackSpec& spec, LayerProbes* probes);
  /// Stops the front end, then drains and joins the engine.
  ~ServingStack();

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  stream::LiveChain& chain() { return *chain_; }
  serve::ScoringEngine& engine() { return *engine_; }
  serve::CascadeScorer& cascade() { return *cascade_; }
  serve::RpcFrontend* frontend() { return frontend_.get(); }
  std::uint16_t port() const { return frontend_ ? frontend_->port() : 0; }

  /// Address each of spec.contracts was deployed at, in the same order.
  const std::vector<evm::Address>& deployed() const { return deployed_; }

 private:
  std::unique_ptr<serve::CascadeScorer> cascade_;
  std::unique_ptr<TimedScorer> timed_cascade_;
  std::unique_ptr<stream::LiveChain> chain_;
  std::unique_ptr<TimedExplorer> timed_explorer_;
  std::unique_ptr<serve::ScoringEngine> engine_;
  std::unique_ptr<serve::RpcFrontend> frontend_;
  std::vector<evm::Address> deployed_;
};

/// Reference probabilities, computed by calling the detector's score_batch
/// directly, that every served answer must match bit for bit.
class Oracle {
 public:
  /// Scores `codes` through `scorer` and records them under `addresses`.
  void add(ml::Scorer& scorer, const std::vector<evm::Address>& addresses,
           const std::vector<const evm::Bytecode*>& codes);
  /// True when `probability` is bit-identical to the reference for
  /// `address`; an address without a reference never matches.
  bool matches(const evm::Address& address, double probability) const;
  std::size_t size() const { return reference_.size(); }

 private:
  std::unordered_map<evm::Address, double> reference_;
};

}  // namespace perfbench

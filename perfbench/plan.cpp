#include "plan.hpp"

#include <array>
#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "synth/contract_synthesizer.hpp"

namespace perfbench {

using phishinghook::common::Rng;

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "rpc_single") return Workload::kRpcSingle;
  if (name == "rpc_batch_cold") return Workload::kRpcBatchCold;
  if (name == "stream_follow") return Workload::kStreamFollow;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kRpcSingle: return "rpc_single";
    case Workload::kRpcBatchCold: return "rpc_batch_cold";
    case Workload::kStreamFollow: return "stream_follow";
  }
  return "unknown";
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  return phishinghook::common::splitmix64(state);
}

std::vector<evm::Bytecode> synthesize_unique(std::size_t count,
                                             std::uint64_t seed) {
  const phishinghook::synth::ContractSynthesizer synth;
  Rng rng(seed);
  std::set<evm::Hash256> seen;
  std::vector<evm::Bytecode> out;
  out.reserve(count);
  while (out.size() < count) {
    const phishinghook::chain::Month month{
        static_cast<int>(rng.next_below(phishinghook::chain::Month::kCount))};
    phishinghook::synth::SynthContract contract;
    if (rng.bernoulli(0.35)) {
      std::array<std::uint8_t, 20> owner{};
      for (std::uint8_t& byte : owner) {
        byte = static_cast<std::uint8_t>(rng.next_below(256));
      }
      contract = synth.phishing(month, rng, evm::Address::from_bytes(owner));
    } else {
      contract = synth.benign(month, rng);
    }
    if (contract.runtime.empty()) continue;
    if (!seen.insert(contract.runtime.code_hash()).second) continue;
    out.push_back(std::move(contract.runtime));
  }
  return out;
}

std::vector<SingleArrival> plan_single(const SingleConfig& config,
                                       std::uint64_t seed, double horizon_s) {
  Rng rng(seed);
  std::vector<SingleArrival> arrivals;
  arrivals.reserve(static_cast<std::size_t>(config.rate_per_s * horizon_s * 1.2));
  std::uint32_t next_fresh = 0;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.next_double()) / config.rate_per_s;
    if (t >= horizon_s) break;
    SingleArrival arrival;
    arrival.at_s = t;
    arrival.fresh = !rng.bernoulli(config.hot_share);
    arrival.index =
        arrival.fresh ? next_fresh++
                      : static_cast<std::uint32_t>(rng.next_below(config.hot_set));
    arrivals.push_back(arrival);
  }
  return arrivals;
}

std::size_t fresh_needed(const std::vector<SingleArrival>& arrivals) {
  std::size_t n = 0;
  for (const SingleArrival& arrival : arrivals) n += arrival.fresh ? 1 : 0;
  return n;
}

std::vector<std::uint32_t> plan_batch_order(const BatchConfig& config,
                                            std::uint64_t seed) {
  std::vector<std::uint32_t> order(config.pool);
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  Rng rng(seed);
  rng.shuffle(order);
  return order;
}

StreamPlan plan_stream(std::uint64_t seed) {
  StreamPlan plan;
  plan.miner.seed = derive_seed(seed, 10);
  // The shipped burst scenario's shape (1000/s base, a 50 ms burst every
  // 500 ms) with the burst peak lowered from 20000/s to 6000/s: a burst
  // still queues hundreds of requests, but a stall of the host has to last
  // over 40 ms before the engine's max_queue of 256 sheds one.
  plan.arrivals = phishinghook::stream::LoadGenerator::mempool_burst_scenario();
  plan.arrivals.burst_rate_per_s = 6000.0;
  plan.arrivals.seed = derive_seed(seed, 11);
  return plan;
}

std::vector<ProbeArrival> plan_probes(const StreamPlan& plan,
                                      std::uint64_t seed, double horizon_s) {
  Rng rng(seed);
  std::vector<ProbeArrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.next_double()) / plan.probe_rate_per_s;
    if (t >= horizon_s) break;
    out.push_back(ProbeArrival{t, rng.next_u64()});
  }
  return out;
}

}  // namespace perfbench

// Workload inputs, each a pure function of the benchmark seed.
//
// The program under test only ever sees what these functions generate:
// synthesized contracts (deployed onto its chain), the addresses those
// deployments received, and the order and timing in which the client asks
// for them. Same seed, same inputs; the tests pin that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "evm/bytecode.hpp"
#include "stream/load_generator.hpp"
#include "synth/chain_miner.hpp"

namespace perfbench {

namespace evm = phishinghook::evm;

enum class Workload { kRpcSingle, kRpcBatchCold, kStreamFollow };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

/// Independent sub-seed `stream` of `seed` (splitmix64 of the pair).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// `count` synthesized runtime codes with pairwise distinct code hashes,
/// about a third of them phishing, spread over the study window.
std::vector<evm::Bytecode> synthesize_unique(std::size_t count,
                                             std::uint64_t seed);

// ---- rpc_single: open-loop Poisson phook_score ---------------------------

struct SingleConfig {
  double rate_per_s = 800.0;
  std::size_t hot_set = 256;       ///< re-queried contracts; fit the cache
  double hot_share = 0.9;          ///< share of arrivals that re-query
  std::size_t connections = 4;     ///< keep-alive connections = threads
};

struct SingleArrival {
  double at_s = 0.0;        ///< scheduled send, seconds after the epoch
  bool fresh = false;       ///< never-seen contract vs hot-set re-query
  std::uint32_t index = 0;  ///< into the hot set or the fresh pool
};

/// The arrival schedule over [0, horizon_s). Fresh arrivals index the fresh
/// pool in order, so no fresh contract is asked for twice.
std::vector<SingleArrival> plan_single(const SingleConfig& config,
                                       std::uint64_t seed, double horizon_s);

/// Number of fresh contracts `arrivals` asks for.
std::size_t fresh_needed(const std::vector<SingleArrival>& arrivals);

// ---- rpc_batch_cold: closed-loop phook_scoreBatch ------------------------

struct BatchConfig {
  std::size_t rows_per_call = 64;
  std::size_t connections = 2;
  /// Engine score-cache entries; the pool below is four times larger, so a
  /// pool that cycles in a fixed order evicts every entry before reuse.
  std::size_t cache_capacity = 1024;
  std::size_t pool = 4096;
};

/// Pool indices in the order the calls ask for them: call k sends the
/// slice [k * rows, (k + 1) * rows) of this permutation, modulo the pool.
std::vector<std::uint32_t> plan_batch_order(const BatchConfig& config,
                                            std::uint64_t seed);

// ---- stream_follow: the in-process monitor pipeline ----------------------

struct StreamPlan {
  phishinghook::synth::MinerConfig miner;
  phishinghook::stream::ArrivalConfig arrivals;
  double blocks_per_s = 50.0;
  std::size_t premine_blocks = 30;
  /// Sparse probe requests the benchmark submits beside the stream to
  /// sample exact per-request latency; they re-query pre-mined contracts.
  /// Percentiles are medians over blocks of 1000 samples from the quiet
  /// segments, at least a quarter of the window: at 1100/s a 30 s run fills
  /// at least eight blocks.
  double probe_rate_per_s = 1100.0;
};

StreamPlan plan_stream(std::uint64_t seed);

/// Probe schedule over [0, horizon_s): (scheduled time, draw) pairs; the
/// draw picks a pre-mined contract as draw % premined_count.
struct ProbeArrival {
  double at_s = 0.0;
  std::uint64_t draw = 0;
};
std::vector<ProbeArrival> plan_probes(const StreamPlan& plan,
                                      std::uint64_t seed, double horizon_s);

}  // namespace perfbench

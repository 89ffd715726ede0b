// Sharded LRU score cache keyed on code hash.
//
// On-chain contracts are heavily duplicated (Fig. 2: ~5x raw:unique via
// minimal-proxy armies and campaign redeploys), and the detector is a pure
// function of the bytecode — so the Keccak code hash is a perfect cache
// key and hits are the *common* case on live traffic. The cache is N-way
// sharded by hash so concurrent engine workers rarely contend on the same
// mutex; each shard is an intrusive-list LRU with its own lock.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "evm/keccak.hpp"
#include "obs/metrics.hpp"

namespace phishinghook::serve {

/// What the cache remembers per code hash: the probability plus which
/// cascade stage produced it, so a cache hit can report the same
/// stage/model attribution as the original score. Degraded (fallback)
/// scores are never cached — the engine retries the heavy stage instead.
struct CachedScore {
  double probability = 0.0;
  std::uint32_t stage = 0;

  friend bool operator==(const CachedScore&, const CachedScore&) = default;
};

/// Aggregated counters across shards (see ShardedScoreCache::stats).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class ShardedScoreCache {
 public:
  /// The shard count the scoring engine's cache uses.
  static constexpr std::size_t kDefaultShards = 16;

  /// `capacity` is the total entry budget. `shards` is rounded up to a
  /// power of two so shard selection is a mask — and rounded back *down*
  /// (still a power of two) when it exceeds `capacity`, so no shard ends
  /// up with zero entries. The budget is split as evenly as the shard
  /// count allows, with the remainder distributed one entry at a time;
  /// the per-shard capacities always sum to exactly `capacity` (i.e.
  /// capacity() reports the requested budget, never a floored
  /// approximation of it).
  explicit ShardedScoreCache(std::size_t capacity,
                             std::size_t shards = kDefaultShards);

  ShardedScoreCache(const ShardedScoreCache&) = delete;
  ShardedScoreCache& operator=(const ShardedScoreCache&) = delete;

  /// Score previously stored for `code_hash`, refreshing its LRU
  /// position; nullopt on miss. Counts a hit, and a miss unless
  /// `count_miss` is false: a caller that will look a missed hash up again
  /// (and count that lookup) passes false, so each request counts once.
  std::optional<CachedScore> get(const evm::Hash256& code_hash,
                                 bool count_miss = true);

  /// Inserts (or refreshes) a score, evicting the shard's least recently
  /// used entry when the shard is full.
  void put(const evm::Hash256& code_hash, CachedScore score);
  void put(const evm::Hash256& code_hash, double probability) {
    put(code_hash, CachedScore{probability, 0});
  }

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t capacity() const;

  /// Counters summed over shards. Taken shard-by-shard (not atomically
  /// across the whole cache), which is exact once traffic has quiesced.
  CacheStats stats() const;

  /// Which shard a hash maps to (exposed for the sharding tests).
  std::size_t shard_index(const evm::Hash256& code_hash) const;

  /// Publishes the stats() snapshot as serve_cache_* gauges on `registry`
  /// (hits/misses/evictions/entries/hit_rate), for the engine's
  /// Prometheus exposition.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  struct Entry {
    evm::Hash256 key;
    CachedScore score;
  };
  using LruList = std::list<Entry>;

  struct Shard {
    mutable std::mutex mutex;
    LruList lru;  // front = most recent
    // Keyed on the digest's leading bytes; shard selection uses
    // *different* bytes (see shard_index).
    std::unordered_map<evm::Hash256, LruList::iterator, evm::DigestHash>
        index;
    std::size_t capacity = 0;  ///< this shard's slice of the entry budget
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  std::vector<Shard> shards_;
  std::size_t capacity_;
  std::size_t shard_mask_;
};

}  // namespace phishinghook::serve

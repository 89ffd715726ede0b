#include "serve/score_cache.hpp"

#include <algorithm>
#include <bit>

#include "common/errors.hpp"

namespace phishinghook::serve {

ShardedScoreCache::ShardedScoreCache(std::size_t capacity, std::size_t shards) {
  if (capacity == 0) throw InvalidArgument("score cache capacity must be > 0");
  if (shards == 0) throw InvalidArgument("score cache needs >= 1 shard");
  std::size_t n = std::bit_ceil(shards);
  // Fewer entries than shards: shrink the shard count (still a power of
  // two) so every shard holds at least one entry and none holds zero.
  if (n > capacity) n = std::bit_floor(capacity);
  shards_ = std::vector<Shard>(n);
  shard_mask_ = n - 1;
  // Floor division alone under-provisions (capacity=100 over 8 shards would
  // give 96 entries); hand the remainder out one entry at a time so the
  // shard capacities sum to exactly the requested budget.
  const std::size_t base = capacity / n;
  const std::size_t remainder = capacity % n;
  for (std::size_t i = 0; i < n; ++i) {
    shards_[i].capacity = base + (i < remainder ? 1 : 0);
  }
  capacity_ = capacity;
}

std::size_t ShardedScoreCache::capacity() const { return capacity_; }

std::size_t ShardedScoreCache::shard_index(
    const evm::Hash256& code_hash) const {
  // Bytes 8..15: disjoint from the bytes the per-shard map hashes with, so
  // confining keys to one shard does not also confine them to few buckets.
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(code_hash[8 + i]) << (8 * i);
  }
  return static_cast<std::size_t>(v) & shard_mask_;
}

std::optional<CachedScore> ShardedScoreCache::get(
    const evm::Hash256& code_hash, bool count_miss) {
  Shard& shard = shards_[shard_index(code_hash)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(code_hash);
  if (it == shard.index.end()) {
    if (count_miss) ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->score;
}

void ShardedScoreCache::put(const evm::Hash256& code_hash, CachedScore score) {
  Shard& shard = shards_[shard_index(code_hash)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(code_hash);
  if (it != shard.index.end()) {
    it->second->score = score;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard.capacity) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(Entry{code_hash, score});
  shard.index.emplace(code_hash, shard.lru.begin());
}

CacheStats ShardedScoreCache::stats() const {
  CacheStats out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.evictions += shard.evictions;
    out.entries += shard.lru.size();
  }
  return out;
}

void ShardedScoreCache::export_metrics(obs::MetricsRegistry& registry) const {
  const CacheStats snapshot = stats();
  registry.gauge("serve_cache_hits").set(static_cast<double>(snapshot.hits));
  registry.gauge("serve_cache_misses")
      .set(static_cast<double>(snapshot.misses));
  registry.gauge("serve_cache_evictions")
      .set(static_cast<double>(snapshot.evictions));
  registry.gauge("serve_cache_entries")
      .set(static_cast<double>(snapshot.entries));
  registry.gauge("serve_cache_hit_rate").set(snapshot.hit_rate());
}

}  // namespace phishinghook::serve

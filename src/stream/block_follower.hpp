// BlockFollower: incremental chain tail with code-hash deduplication.
//
// Tails an Explorer from a cursor block, surfacing each new deployment
// exactly once. Every poll snapshots (new records, head block) atomically
// via Explorer::crawl_after, so "how far behind the head am I" — the
// ingest-lag metric — is measured against the head the records came from,
// not a head that moved mid-read.
//
// Dedup is by the code hash *fetched* with the code (Explorer::stored_code),
// not the journal's recorded one: the follower reads each account through
// the explorer's (possibly fault-injected) read path exactly as a
// production follower would hit a
// node, so chaos decorators exercise the streaming path for free. By
// default duplicates are still forwarded — dedup here is accounting (the
// hit rate the paper's Fig. 2 duplication predicts), while the engine's
// sharded score cache does the actual work of making them cheap.
// `drop_duplicates` turns the follower into a hard unique-code filter.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "chain/explorer.hpp"
#include "evm/keccak.hpp"

namespace phishinghook::stream {

struct FollowerConfig {
  /// Suppress deployments whose runtime hash was already seen instead of
  /// forwarding them. Off by default: duplicate traffic is exactly what
  /// the score cache is for, and dropping it would hide that behaviour.
  bool drop_duplicates = false;
  /// First block NOT yet ingested. The default sentinel means "attach at
  /// the current head" (tail only new deployments); pass 0 to ingest the
  /// whole chain from genesis.
  std::uint64_t start_block = kAttachAtHead;

  static constexpr std::uint64_t kAttachAtHead = ~0ull;
};

struct FollowerStats {
  std::uint64_t polls = 0;
  std::uint64_t deployments_seen = 0;
  std::uint64_t dedup_unique = 0;  ///< first sighting of a code hash
  std::uint64_t dedup_hits = 0;    ///< repeat sightings
  std::uint64_t code_faults = 0;   ///< TransientError from the code read
  std::uint64_t empty_code = 0;    ///< deployments with no runtime code
  std::uint64_t forwarded = 0;     ///< records returned to the caller
  std::uint64_t dropped = 0;       ///< suppressed by drop_duplicates
  std::uint64_t last_lag_blocks = 0;
  std::uint64_t max_lag_blocks = 0;

  double dedup_hit_rate() const {
    const std::uint64_t total = dedup_unique + dedup_hits;
    return total == 0 ? 0.0
                      : static_cast<double>(dedup_hits) /
                            static_cast<double>(total);
  }
};

class BlockFollower {
 public:
  /// Borrows `explorer` (must outlive the follower). Hand it a
  /// synchronized view (LiveChain::explorer()) when the chain is being
  /// mined concurrently, and/or a chaos decorator over that view.
  explicit BlockFollower(const chain::Explorer& explorer,
                         FollowerConfig config = {});

  /// Ingests everything deployed since the last poll, in chain order.
  /// Returns the records to forward downstream (all of them, or only
  /// first-sighted code under drop_duplicates). A fetch fault or empty
  /// code still forwards the record — classifying it is the scoring
  /// engine's job (it retries and statuses per request).
  std::vector<chain::ContractRecord> poll();

  std::uint64_t cursor() const { return cursor_; }
  const FollowerStats& stats() const { return stats_; }

 private:
  const chain::Explorer* explorer_;
  FollowerConfig config_;
  std::uint64_t cursor_ = 0;
  FollowerStats stats_;
  std::unordered_set<evm::Hash256, evm::DigestHash> seen_;
};

}  // namespace phishinghook::stream

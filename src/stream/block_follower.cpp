#include "stream/block_follower.hpp"

#include <algorithm>

#include "common/errors.hpp"
#include "obs/trace.hpp"

namespace phishinghook::stream {

BlockFollower::BlockFollower(const chain::Explorer& explorer,
                             FollowerConfig config)
    : explorer_(&explorer), config_(config) {
  cursor_ = config.start_block == FollowerConfig::kAttachAtHead
                ? explorer_->head_block()
                : config.start_block;
}

std::vector<chain::ContractRecord> BlockFollower::poll() {
  obs::ScopedSpan span("stream.poll");
  obs::ScopedSpan crawl_span("stream.crawl");
  const chain::ChainTail tail = explorer_->crawl_after(cursor_);
  crawl_span.end();
  stats_.polls += 1;
  // Lag is measured against the cursor *before* this poll consumes the
  // tail: "when we looked, how many blocks had we not yet ingested".
  const std::uint64_t lag =
      tail.head_block > cursor_ ? tail.head_block - cursor_ : 0;
  stats_.last_lag_blocks = lag;
  stats_.max_lag_blocks = std::max(stats_.max_lag_blocks, lag);

  std::vector<chain::ContractRecord> out;
  out.reserve(tail.records.size());
  obs::ScopedSpan fetch_span("stream.fetch_dedup");
  for (const chain::ContractRecord& record : tail.records) {
    stats_.deployments_seen += 1;
    bool duplicate = false;
    bool hashed = false;
    try {
      // The stored hash comes with the code: no copy, no Keccak.
      const chain::StoredCode stored =
          explorer_->stored_code(record.address).value();
      if (stored.code->empty()) {
        stats_.empty_code += 1;
      } else {
        duplicate = !seen_.insert(stored.hash).second;
        hashed = true;
      }
    } catch (const TransientError&) {
      // The read path faulted (chaos decorator / flaky upstream). Forward
      // anyway: the engine's retry policy owns fetch-level recovery, and
      // its result status is the source of truth for this address.
      stats_.code_faults += 1;
    }
    if (hashed) {
      if (duplicate) {
        stats_.dedup_hits += 1;
      } else {
        stats_.dedup_unique += 1;
      }
    }
    if (duplicate && config_.drop_duplicates) {
      stats_.dropped += 1;
      continue;
    }
    stats_.forwarded += 1;
    out.push_back(record);
  }
  fetch_span.end();
  cursor_ = std::max(cursor_, tail.head_block);
  return out;
}

}  // namespace phishinghook::stream

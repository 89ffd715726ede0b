// FaultInjectingExplorer: a deterministic chaos decorator for the explorer.
//
// Live serving talks to an upstream node that fails in three observable
// ways: requests error out (rate limits, timeouts), return "0x" for
// contracts that do exist (lagging replicas), or simply stall. This
// decorator injects all three on a *seeded, replayable* schedule so the
// chaos test suite and the bench fault-mix mode can drive the scoring
// engine through hostile conditions and still assert exact outcomes.
//
// Determinism model: every code fetch for address A increments A's private
// attempt counter, and the fault decision is a pure splitmix64 draw over
// (seed, A, attempt). The schedule therefore does not depend on thread
// interleaving — submitting the same address list through 1 worker or 4
// yields the same per-address fault sequence, which is what lets
// test_serve_faults compare engine outputs across thread counts.
//
// Only the code-fetch path (eth_get_code / get_code / stored_code) is
// faulted, and a stored_code try-read draws from the same schedule; label
// reads and crawls delegate untouched, mirroring how etherscan's label
// pages and a JSON-RPC endpoint fail independently in practice.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "chain/explorer.hpp"

namespace phishinghook::chain {

/// Fault mix. Rates are probabilities per code fetch and are applied in
/// order (throw, then empty, then delay), so their sum must be <= 1.
struct FaultConfig {
  double throw_rate = 0.0;    ///< common::TransientError from the fetch
  double empty_rate = 0.0;    ///< "0x" as if the account held no code
  double latency_rate = 0.0;  ///< stall for latency_us, then answer
  std::uint64_t latency_us = 1000;
  std::uint64_t seed = 1;
};

/// Counters of what was actually injected (reads are monotonic snapshots).
struct FaultStats {
  std::uint64_t calls = 0;
  std::uint64_t throws = 0;
  std::uint64_t empties = 0;
  std::uint64_t delays = 0;
};

class FaultInjectingExplorer final : public Explorer {
 public:
  /// Wraps `inner`, which must outlive the decorator.
  FaultInjectingExplorer(const Explorer& inner, FaultConfig config);

  std::string eth_get_code(const Address& address) const override;
  Bytecode get_code(const Address& address) const override;
  /// An injected stall makes a ReadMode::kTry read report busy instead of
  /// sleeping: the caller asked not to be blocked.
  std::optional<StoredCode> stored_code(
      const Address& address, ReadMode mode = ReadMode::kWait) const override;

  ContractFlag flag_of(const Address& address) const override {
    return inner_->flag_of(address);
  }
  std::vector<Address> crawl(Month from, Month to) const override {
    return inner_->crawl(from, to);
  }
  // The incremental crawl is journal metadata, exactly like the batch
  // crawl: it delegates untouched, so a streaming BlockFollower reading
  // through this decorator sees the real deployment sequence while its
  // per-deployment code fetches hit the seeded fault schedule above.
  ChainTail crawl_after(std::uint64_t after_block) const override {
    return inner_->crawl_after(after_block);
  }
  std::uint64_t head_block() const override { return inner_->head_block(); }
  std::size_t flagged_count() const override {
    return inner_->flagged_count();
  }

  FaultStats stats() const;

 private:
  enum class Fault { kNone, kThrow, kEmpty, kDelay };

  /// Draws the fault for this fetch and advances the address's attempt
  /// counter. Throws TransientError itself on kThrow (the message carries
  /// address + attempt, so retries are distinguishable in logs).
  Fault next_fault(const Address& address) const;

  const Explorer* inner_;
  FaultConfig config_;

  mutable std::mutex mutex_;
  mutable std::unordered_map<Address, std::uint64_t> attempts_;

  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> throws_{0};
  mutable std::atomic<std::uint64_t> empties_{0};
  mutable std::atomic<std::uint64_t> delays_{0};
};

}  // namespace phishinghook::chain

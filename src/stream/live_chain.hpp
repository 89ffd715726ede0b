// LiveChain: a synthetic chain being mined and read concurrently.
//
// ChainStore and Explorer are single-threaded by design — the batch
// train→scan pipeline never needed more. The streaming subsystem runs a
// producer (the miner thread) against concurrent readers: the follower
// thread tailing new deployments plus every scoring-engine worker pulling
// bytecode through the BEM. LiveChain is the ownership-and-locking shell
// that makes that safe: one reader-writer lock, taken exclusively only by
// mine_next_block() and shared by every read of an Explorer decorator
// whose entire virtual read path goes through it. Readers never wait for
// each other (the engine's submission probe, its workers and the follower
// all read at once); a read waits only while a block is being mined, and
// a ReadMode::kTry read reports busy only then.
//
// Decorator order mirrors production: chaos decorators
// (chain::FaultInjectingExplorer) wrap the *synchronized* view, so
// injected latency stalls the calling worker — never the chain lock — the
// same way a slow upstream node stalls one RPC client, not the chain.
#pragma once

#include <cstdint>
#include <shared_mutex>

#include "chain/chain_store.hpp"
#include "chain/explorer.hpp"
#include "synth/chain_miner.hpp"

namespace phishinghook::stream {

class LiveChain {
 public:
  explicit LiveChain(synth::MinerConfig config = {});

  /// Mines one block plus its deployments under the exclusive lock, so no
  /// read sees a half-mined block. Returns the new head block.
  std::uint64_t mine_next_block();

  std::uint64_t head_block() const;
  synth::MinerStats miner_stats() const;

  /// Thread-safe explorer view over the chain (every read takes the chain
  /// lock shared). Hand this to the ScoringEngine and the BlockFollower, or
  /// wrap it in a FaultInjectingExplorer for chaos runs.
  const chain::Explorer& explorer() const { return synced_; }

  /// The raw chain + label write path, for quiesced inspection (tests,
  /// end-of-run summaries). Not synchronized — use only while no miner
  /// thread is running.
  chain::ChainStore& raw_chain() { return chain_; }
  chain::Explorer& raw_explorer() { return explorer_; }

 private:
  /// Locking decorator: each virtual read takes the chain lock shared and
  /// delegates, making reads atomic against the miner while readers run
  /// side by side (the reads are const walks of state only the miner
  /// writes). crawl_after in particular snapshots (records, head) under
  /// one lock hold — that pairing is what makes the follower's ingest-lag
  /// number honest.
  class SyncedExplorer final : public chain::Explorer {
   public:
    using Lock = std::shared_lock<std::shared_mutex>;

    SyncedExplorer(const chain::Explorer& inner, std::shared_mutex& mutex)
        : chain::Explorer(inner.chain()), inner_(&inner), mutex_(&mutex) {}

    std::string eth_get_code(const evm::Address& address) const override {
      Lock lock(*mutex_);
      return inner_->eth_get_code(address);
    }
    evm::Bytecode get_code(const evm::Address& address) const override {
      Lock lock(*mutex_);
      return inner_->get_code(address);
    }
    /// A try-read gives up at once only while the miner writes (holds the
    /// lock exclusively); other readers never make it busy.
    std::optional<chain::StoredCode> stored_code(
        const evm::Address& address,
        chain::ReadMode mode = chain::ReadMode::kWait) const override {
      Lock lock(*mutex_, std::defer_lock);
      if (mode == chain::ReadMode::kTry) {
        if (!lock.try_lock()) return std::nullopt;
      } else {
        lock.lock();
      }
      return inner_->stored_code(address, mode);
    }
    chain::ContractFlag flag_of(const evm::Address& address) const override {
      Lock lock(*mutex_);
      return inner_->flag_of(address);
    }
    std::vector<evm::Address> crawl(chain::Month from,
                                    chain::Month to) const override {
      Lock lock(*mutex_);
      return inner_->crawl(from, to);
    }
    chain::ChainTail crawl_after(std::uint64_t after_block) const override {
      Lock lock(*mutex_);
      return inner_->crawl_after(after_block);
    }
    std::uint64_t head_block() const override {
      Lock lock(*mutex_);
      return inner_->head_block();
    }
    std::size_t flagged_count() const override {
      Lock lock(*mutex_);
      return inner_->flagged_count();
    }

   private:
    const chain::Explorer* inner_;
    std::shared_mutex* mutex_;
  };

  mutable std::shared_mutex mutex_;
  chain::ChainStore chain_;
  chain::Explorer explorer_;
  synth::ChainMiner miner_;
  SyncedExplorer synced_;
};

}  // namespace phishinghook::stream

#include "stream/live_chain.hpp"

#include <mutex>

namespace phishinghook::stream {

LiveChain::LiveChain(synth::MinerConfig config)
    : chain_(),
      explorer_(chain_),
      miner_(chain_, explorer_, config),
      synced_(explorer_, mutex_) {}

std::uint64_t LiveChain::mine_next_block() {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  return miner_.mine_next_block();
}

std::uint64_t LiveChain::head_block() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return chain_.head_block();
}

synth::MinerStats LiveChain::miner_stats() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return miner_.stats();
}

}  // namespace phishinghook::stream

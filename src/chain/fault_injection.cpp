#include "chain/fault_injection.hpp"

#include <chrono>
#include <thread>

#include "common/errors.hpp"
#include "common/rng.hpp"

namespace phishinghook::chain {

FaultInjectingExplorer::FaultInjectingExplorer(const Explorer& inner,
                                               FaultConfig config)
    : Explorer(inner.chain()), inner_(&inner), config_(config) {
  const double total =
      config_.throw_rate + config_.empty_rate + config_.latency_rate;
  if (config_.throw_rate < 0.0 || config_.empty_rate < 0.0 ||
      config_.latency_rate < 0.0 || total > 1.0) {
    throw InvalidArgument("fault rates must be >= 0 and sum to <= 1");
  }
}

FaultInjectingExplorer::Fault FaultInjectingExplorer::next_fault(
    const Address& address) const {
  std::uint64_t attempt;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    attempt = attempts_[address]++;
  }
  calls_.fetch_add(1, std::memory_order_relaxed);

  // Pure function of (seed, address, attempt): the schedule replays
  // identically at any thread count.
  std::uint64_t state = config_.seed ^
                        (static_cast<std::uint64_t>(
                             std::hash<Address>{}(address)) *
                         0x9e3779b97f4a7c15ULL) ^
                        ((attempt + 1) * 0xbf58476d1ce4e5b9ULL);
  const double u =
      static_cast<double>(common::splitmix64(state) >> 11) * 0x1.0p-53;

  if (u < config_.throw_rate) {
    throws_.fetch_add(1, std::memory_order_relaxed);
    throw TransientError("injected explorer fault: " + address.to_hex() +
                         " attempt " + std::to_string(attempt));
  }
  if (u < config_.throw_rate + config_.empty_rate) {
    empties_.fetch_add(1, std::memory_order_relaxed);
    return Fault::kEmpty;
  }
  if (u < config_.throw_rate + config_.empty_rate + config_.latency_rate) {
    delays_.fetch_add(1, std::memory_order_relaxed);
    return Fault::kDelay;
  }
  return Fault::kNone;
}

std::string FaultInjectingExplorer::eth_get_code(
    const Address& address) const {
  switch (next_fault(address)) {
    case Fault::kEmpty:
      return "0x";
    case Fault::kDelay:
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.latency_us));
      break;
    default:
      break;
  }
  return inner_->eth_get_code(address);
}

Bytecode FaultInjectingExplorer::get_code(const Address& address) const {
  switch (next_fault(address)) {
    case Fault::kEmpty:
      return Bytecode();
    case Fault::kDelay:
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.latency_us));
      break;
    default:
      break;
  }
  return inner_->get_code(address);
}

std::optional<StoredCode> FaultInjectingExplorer::stored_code(
    const Address& address, ReadMode mode) const {
  switch (next_fault(address)) {
    case Fault::kEmpty:
      return StoredCode{};
    case Fault::kDelay:
      if (mode == ReadMode::kTry) return std::nullopt;
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.latency_us));
      break;
    default:
      break;
  }
  return inner_->stored_code(address, mode);
}

FaultStats FaultInjectingExplorer::stats() const {
  FaultStats out;
  out.calls = calls_.load(std::memory_order_relaxed);
  out.throws = throws_.load(std::memory_order_relaxed);
  out.empties = empties_.load(std::memory_order_relaxed);
  out.delays = delays_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace phishinghook::chain

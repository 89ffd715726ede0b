#include "chain/chain_store.hpp"

#include <algorithm>
#include <cstdio>

#include "common/errors.hpp"

namespace phishinghook::chain {

namespace {

// Days per month for the 2023-10 .. 2024-10 window (2024 is a leap year).
constexpr int kDaysInWindowMonth[Month::kCount] = {
    31,  // 2023-10
    30,  // 2023-11
    31,  // 2023-12
    31,  // 2024-01
    29,  // 2024-02
    31,  // 2024-03
    30,  // 2024-04
    31,  // 2024-05
    30,  // 2024-06
    31,  // 2024-07
    31,  // 2024-08
    30,  // 2024-09
    31,  // 2024-10
};

// Unix timestamp of 2023-10-01T00:00:00Z.
constexpr std::uint64_t kWindowStart = 1696118400;

// The paper anchors its study at the Shanghai update, block 17034870; our
// window begins somewhat later in 2023.
constexpr std::uint64_t kWindowStartBlock = 18250000;

constexpr std::uint64_t kSecondsPerSlot = 12;

}  // namespace

std::string Month::label() const {
  if (index < 0 || index >= kCount) {
    throw InvalidArgument("month index " + std::to_string(index) +
                          " outside the 2023-10..2024-10 study window");
  }
  const int absolute = 9 + index;  // months since 2023-01, 0-based
  const int year = 2023 + absolute / 12;
  const int month = absolute % 12 + 1;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d", year, month);
  return buf;
}

std::uint64_t Month::start_timestamp() const {
  if (index < 0 || index >= kCount) {
    throw InvalidArgument("month index " + std::to_string(index) +
                          " outside the 2023-10..2024-10 study window");
  }
  std::uint64_t ts = kWindowStart;
  for (int m = 0; m < index; ++m) {
    ts += static_cast<std::uint64_t>(kDaysInWindowMonth[m]) * 86400;
  }
  return ts;
}

ChainStore::ChainStore()
    : head_block_(kWindowStartBlock),
      head_timestamp_(kWindowStart),
      head_month_{0} {
  evm::BlockContext block;
  block.number = head_block_;
  block.timestamp = head_timestamp_;
  state_.set_block(block);
}

void ChainStore::advance_to(Month month) {
  if (month < head_month_) {
    throw InvalidArgument("chain cannot rewind from " + head_month_.label() +
                          " to " + month.label());
  }
  if (month == head_month_) return;
  const std::uint64_t target = month.start_timestamp();
  head_block_ += (target - head_timestamp_) / kSecondsPerSlot;
  head_timestamp_ = target;
  head_month_ = month;

  evm::BlockContext block = state_.block();
  block.number = head_block_;
  block.timestamp = head_timestamp_;
  state_.set_block(block);
}

std::uint64_t ChainStore::mine_next_block(std::uint64_t slots) {
  if (slots == 0) {
    throw InvalidArgument("mine_next_block: slots must be > 0");
  }
  head_block_ += slots;
  head_timestamp_ += slots * kSecondsPerSlot;
  // Roll the calendar month as slots cross month boundaries; the head month
  // saturates at 2024-10 so post-window mining keeps a valid month stamp.
  while (head_month_.index + 1 < Month::kCount &&
         head_timestamp_ >= Month{head_month_.index + 1}.start_timestamp()) {
    head_month_.index += 1;
  }
  evm::BlockContext block = state_.block();
  block.number = head_block_;
  block.timestamp = head_timestamp_;
  state_.set_block(block);
  return head_block_;
}

const ContractRecord& ChainStore::record_deployment(const Address& deployer,
                                                    const Address& address) {
  // Each deployment occupies its own slot, nudging the head forward.
  head_block_ += 1;
  head_timestamp_ += kSecondsPerSlot;

  ContractRecord record;
  record.address = address;
  record.deployer = deployer;
  record.block_number = head_block_;
  record.timestamp = head_timestamp_;
  record.month = head_month_;
  // The account already holds its code's hash: no second Keccak.
  record.code_hash = state_.code_hash(address);
  records_.push_back(record);
  return records_.back();
}

const ContractRecord& ChainStore::register_contract(const Address& deployer,
                                                    Bytecode runtime_code) {
  const Address address = state_.install_code(deployer, std::move(runtime_code));
  return record_deployment(deployer, address);
}

const ContractRecord& ChainStore::deploy_contract(
    const Address& deployer, std::span<const std::uint8_t> init_code) {
  const Address address = state_.deploy(deployer, init_code);
  return record_deployment(deployer, address);
}

const ContractRecord* ChainStore::find(const Address& address) const {
  for (const ContractRecord& record : records_) {
    if (record.address == address) return &record;
  }
  return nullptr;
}

std::vector<const ContractRecord*> ChainStore::contracts_between(
    Month from, Month to) const {
  std::vector<const ContractRecord*> out;
  for (const ContractRecord& record : records_) {
    if (record.month >= from && record.month <= to) out.push_back(&record);
  }
  return out;
}

std::vector<ContractRecord> ChainStore::contracts_after(
    std::uint64_t block) const {
  // records_ is in chain order with strictly increasing block numbers
  // (every deployment occupies its own slot), so the new suffix is one
  // binary search away.
  const auto first = std::upper_bound(
      records_.begin(), records_.end(), block,
      [](std::uint64_t b, const ContractRecord& record) {
        return b < record.block_number;
      });
  return {first, records_.end()};
}

}  // namespace phishinghook::chain

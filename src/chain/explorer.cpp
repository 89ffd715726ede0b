#include "chain/explorer.hpp"

#include <typeinfo>

namespace phishinghook::chain {

std::string Explorer::eth_get_code(const Address& address) const {
  return get_code(address).to_hex();
}

Bytecode Explorer::get_code(const Address& address) const {
  const Account* account = chain_->state().find(address);
  return account == nullptr ? Bytecode() : account->code();
}

std::optional<StoredCode> Explorer::stored_code(const Address& address,
                                                ReadMode mode) const {
  // Only the explorer that fronts the chain itself may read state in
  // place; a subclass's get_code may add a lock, a fault or a timer.
  if (typeid(*this) == typeid(Explorer)) {
    const Account* account = chain_->state().find(address);
    return account == nullptr ? StoredCode{} : account->stored_code();
  }
  // That get_code may wait, which a try-read must never do.
  if (mode == ReadMode::kTry) return std::nullopt;
  Bytecode code = get_code(address);
  StoredCode stored;
  if (!code.empty()) {
    stored.hash = code.code_hash();
    stored.code = std::make_shared<const Bytecode>(std::move(code));
  }
  return stored;
}

void Explorer::flag(const Address& address, ContractFlag flag) {
  if (flag == ContractFlag::kPhishHack) {
    phishing_.insert(address);
  } else {
    phishing_.erase(address);
  }
}

ContractFlag Explorer::flag_of(const Address& address) const {
  return phishing_.contains(address) ? ContractFlag::kPhishHack
                                     : ContractFlag::kNone;
}

bool Explorer::is_flagged_phishing(const Address& address) const {
  return flag_of(address) == ContractFlag::kPhishHack;
}

std::vector<Address> Explorer::crawl(Month from, Month to) const {
  const std::vector<const ContractRecord*> records =
      chain_->contracts_between(from, to);
  std::vector<Address> out;
  out.reserve(records.size());
  for (const ContractRecord* record : records) {
    out.push_back(record->address);
  }
  return out;
}

ChainTail Explorer::crawl_after(std::uint64_t after_block) const {
  ChainTail tail;
  tail.records = chain_->contracts_after(after_block);
  tail.head_block = chain_->head_block();
  return tail;
}

}  // namespace phishinghook::chain

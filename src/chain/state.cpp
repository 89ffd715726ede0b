#include "chain/state.hpp"

#include "common/errors.hpp"
#include "evm/keccak.hpp"

namespace phishinghook::chain {

const std::shared_ptr<const Bytecode>& empty_code() {
  static const std::shared_ptr<const Bytecode> empty =
      std::make_shared<const Bytecode>();
  return empty;
}

const evm::Hash256& empty_code_hash() {
  static const evm::Hash256 hash = Bytecode().code_hash();
  return hash;
}

StoredCode State::intern(Bytecode code) {
  if (code.empty()) return StoredCode{};
  const evm::Hash256 hash = code.code_hash();
  auto [it, inserted] = codes_.try_emplace(hash);
  if (inserted) it->second = std::make_shared<const Bytecode>(std::move(code));
  return StoredCode{hash, it->second};
}

Account& State::touch(const Address& address) { return accounts_[address]; }

const Account* State::find(const Address& address) const {
  const auto it = accounts_.find(address);
  return it == accounts_.end() ? nullptr : &it->second;
}

void State::set_balance(const Address& address, const U256& balance) {
  touch(address).balance = balance;
}

void State::set_code(const Address& address, Bytecode code) {
  touch(address).stored_ = intern(std::move(code));
}

std::uint64_t State::increment_nonce(const Address& address) {
  return touch(address).nonce++;
}

U256 State::get_balance(const Address& account) {
  const Account* acct = find(account);
  return acct == nullptr ? U256() : acct->balance;
}

std::shared_ptr<const Bytecode> State::get_code(const Address& account) {
  const Account* acct = find(account);
  return acct == nullptr ? empty_code() : acct->stored_code().code;
}

evm::Hash256 State::code_hash(const Address& account) {
  const Account* acct = find(account);
  return acct == nullptr ? empty_code_hash() : acct->stored_code().hash;
}

U256 State::sload(const Address& account, const U256& key) {
  const Account* acct = find(account);
  if (acct == nullptr) return U256();
  const auto it = acct->storage.find(key);
  return it == acct->storage.end() ? U256() : it->second;
}

void State::sstore(const Address& account, const U256& key, const U256& value) {
  if (value.is_zero()) {
    touch(account).storage.erase(key);
  } else {
    touch(account).storage[key] = value;
  }
}

bool State::transfer(const Address& from, const Address& to, const U256& value) {
  if (value.is_zero()) return true;
  Account& sender = touch(from);
  if (sender.balance < value) return false;
  sender.balance -= value;
  touch(to).balance += value;
  return true;
}

void State::emit_log(evm::LogEntry entry) { logs_.push_back(std::move(entry)); }

evm::ExecutionResult State::call(const evm::Message& message,
                                 evm::CallKind kind, int depth) {
  evm::ExecutionResult result;
  if (depth > evm::Interpreter::kMaxCallDepth) {
    result.status = evm::Status::kCallDepthExceeded;
    return result;
  }

  const Snapshot before = snapshot();
  const std::size_t log_mark = logs_.size();

  // Value moves only for plain CALL (and CALLCODE, into self).
  if (kind == evm::CallKind::kCall || kind == evm::CallKind::kCallCode) {
    const Address recipient = kind == evm::CallKind::kCall
                                  ? message.storage_address
                                  : message.caller;
    if (!transfer(message.caller, recipient, message.value)) {
      result.status = evm::Status::kRevert;  // insufficient balance
      return result;
    }
  }

  // Held by pointer: the frame runs the stored code without copying it.
  const Account* callee = find(message.code_address);
  const std::shared_ptr<const Bytecode> code =
      callee == nullptr ? empty_code() : callee->stored_code().code;
  if (code->empty()) {
    // Calling an EOA or empty account succeeds immediately (pure transfer).
    result.status = evm::Status::kSuccess;
    return result;
  }

  evm::Interpreter interpreter(block_);
  interpreter.set_trace(trace_);
  result = interpreter.execute(message, *code, *this, depth);
  if (!result.ok()) {
    rollback(before);
    logs_.resize(log_mark);
  }
  return result;
}

std::optional<Address> State::create(const Address& creator, const U256& value,
                                     std::span<const std::uint8_t> init_code,
                                     std::optional<U256> salt, int depth,
                                     std::uint64_t gas,
                                     evm::ExecutionResult& result) {
  if (depth > evm::Interpreter::kMaxCallDepth) {
    result.status = evm::Status::kCallDepthExceeded;
    return std::nullopt;
  }

  const Snapshot before = snapshot();
  const std::size_t log_mark = logs_.size();

  const std::uint64_t nonce = increment_nonce(creator);
  const Address created =
      salt.has_value()
          ? evm::derive_create2_address(creator, *salt, init_code)
          : evm::derive_contract_address(creator, nonce);

  // Collision with an existing contract account fails the create.
  if (const Account* existing = find(created);
      existing != nullptr && (!existing->code().empty() || existing->nonce > 0)) {
    result.status = evm::Status::kRevert;
    rollback(before);
    return std::nullopt;
  }

  touch(created).nonce = 1;
  if (!transfer(creator, created, value)) {
    result.status = evm::Status::kRevert;
    rollback(before);
    return std::nullopt;
  }

  evm::Message init_msg;
  init_msg.caller = creator;
  init_msg.code_address = created;
  init_msg.storage_address = created;
  init_msg.origin = creator;
  init_msg.value = value;
  init_msg.gas = gas;

  evm::Interpreter interpreter(block_);
  interpreter.set_trace(trace_);
  const Bytecode init(std::vector<std::uint8_t>(init_code.begin(), init_code.end()));
  result = interpreter.execute(init_msg, init, *this, depth);
  if (!result.ok()) {
    rollback(before);
    logs_.resize(log_mark);
    return std::nullopt;
  }

  // The init frame's RETURN payload becomes the runtime code.
  set_code(created, Bytecode(result.output));
  return created;
}

void State::selfdestruct(const Address& contract, const Address& beneficiary) {
  const U256 balance = get_balance(contract);
  if (!balance.is_zero() && beneficiary != contract) {
    touch(beneficiary).balance += balance;
  }
  Account& acct = touch(contract);
  acct.balance = U256();
  acct.stored_ = StoredCode{};
  acct.storage.clear();
}

evm::Hash256 State::block_hash(std::uint64_t number) {
  // The simulated chain derives block hashes deterministically.
  std::array<std::uint8_t, 8> be{};
  for (int i = 0; i < 8; ++i) {
    be[7 - i] = static_cast<std::uint8_t>(number >> (8 * i));
  }
  return evm::keccak256(be);
}

bool State::account_exists(const Address& account) {
  return find(account) != nullptr;
}

evm::ExecutionResult State::execute_transaction(const evm::Message& message) {
  increment_nonce(message.caller);
  return call(message, evm::CallKind::kCall, /*depth=*/0);
}

Address State::deploy(const Address& creator,
                      std::span<const std::uint8_t> init_code,
                      const U256& endowment) {
  evm::ExecutionResult result;
  const std::optional<Address> created =
      create(creator, endowment, init_code, std::nullopt, /*depth=*/0,
             /*gas=*/30'000'000, result);
  if (!created.has_value()) {
    throw StateError(std::string("contract deployment failed: ") +
                     evm::status_name(result.status));
  }
  return *created;
}

Address State::install_code(const Address& creator, Bytecode runtime_code) {
  const std::uint64_t nonce = increment_nonce(creator);
  const Address address = evm::derive_contract_address(creator, nonce);
  Account& acct = touch(address);
  acct.nonce = 1;
  acct.stored_ = intern(std::move(runtime_code));
  return address;
}

}  // namespace phishinghook::chain

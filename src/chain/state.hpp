// World state: the account trie of the simulated Ethereum chain.
//
// Implements the interpreter's Host interface, including nested message
// calls (which re-enter the interpreter) and transactional semantics: every
// call frame snapshots state, and a revert/failure in the callee rolls back
// exactly that frame's writes — the behaviour the paper's phishing patterns
// (approval sweeps behind a dispatcher) rely on.
//
// Code is content-addressed, as in a real node's code database: the state
// keeps each distinct runtime code once, keyed by its Keccak hash, and an
// account holds that hash plus a shared pointer to the one copy. Clones of
// one code (minimal-proxy armies) share it, a call frame's snapshot copies
// pointers instead of bytes, and a reader hands the code on without copying
// or hashing it again.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "evm/address.hpp"
#include "evm/bytecode.hpp"
#include "evm/host.hpp"
#include "evm/interpreter.hpp"
#include "evm/uint256.hpp"

namespace phishinghook::chain {

using evm::Address;
using evm::Bytecode;
using evm::U256;

/// Hash functor so U256 can key the storage map.
struct U256Hash {
  std::size_t operator()(const U256& value) const {
    const auto& limbs = value.limbs();
    std::size_t h = 0x9E3779B97F4A7C15ULL;
    for (std::uint64_t limb : limbs) {
      h ^= limb + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// The empty code every account starts with, shared by all of them.
const std::shared_ptr<const Bytecode>& empty_code();
/// keccak256 of the empty byte string: the code hash of a codeless account.
const evm::Hash256& empty_code_hash();

/// An account's code as the chain stores it: the Keccak hash kept with the
/// account and the state's one shared copy of the bytes (never null).
struct StoredCode {
  evm::Hash256 hash = empty_code_hash();
  std::shared_ptr<const Bytecode> code = empty_code();
};

struct Account {
  U256 balance;
  std::uint64_t nonce = 0;
  std::unordered_map<U256, U256, U256Hash> storage;

  const Bytecode& code() const { return *stored_.code; }
  const StoredCode& stored_code() const { return stored_; }

 private:
  // Written only by State, which keeps the hash and the bytes in step.
  friend class State;
  StoredCode stored_;
};

class State final : public evm::Host {
 public:
  State() = default;

  // --- account management ---------------------------------------------------
  /// Creates (or returns) the account at `address`.
  Account& touch(const Address& address);
  const Account* find(const Address& address) const;
  void set_balance(const Address& address, const U256& balance);
  void set_code(const Address& address, Bytecode code);
  std::uint64_t increment_nonce(const Address& address);
  std::size_t account_count() const { return accounts_.size(); }

  /// Sets the block context used for subsequent executions.
  void set_block(const evm::BlockContext& block) { block_ = block; }
  const evm::BlockContext& block() const { return block_; }

  /// Attaches an execution-trace observer; propagated into every nested
  /// call/create frame executed through this state (nullptr detaches).
  void set_trace(evm::TraceSink* sink) { trace_ = sink; }

  /// Executes a top-level transaction against `message.code_address`'s code.
  /// Value transfer, nonce bump and state rollback on failure included.
  evm::ExecutionResult execute_transaction(const evm::Message& message);

  /// Deploys `init_code` as a contract from `creator` (a top-level CREATE).
  /// Returns the new contract address; throws StateError if the init frame
  /// fails.
  Address deploy(const Address& creator, std::span<const std::uint8_t> init_code,
                 const U256& endowment = U256());

  /// Installs runtime code directly at a derived address, bypassing the init
  /// frame. Used by the dataset builder for corpora too large to deploy one
  /// by one through the interpreter.
  Address install_code(const Address& creator, Bytecode runtime_code);

  /// Logs emitted since construction (appended across transactions).
  const std::vector<evm::LogEntry>& logs() const { return logs_; }

  // --- Host interface ------------------------------------------------------
  U256 get_balance(const Address& account) override;
  std::shared_ptr<const Bytecode> get_code(const Address& account) override;
  /// The stored hash; never hashes the code again.
  evm::Hash256 code_hash(const Address& account) override;
  U256 sload(const Address& account, const U256& key) override;
  void sstore(const Address& account, const U256& key,
              const U256& value) override;
  bool transfer(const Address& from, const Address& to,
                const U256& value) override;
  void emit_log(evm::LogEntry entry) override;
  evm::ExecutionResult call(const evm::Message& message, evm::CallKind kind,
                            int depth) override;
  std::optional<Address> create(const Address& creator, const U256& value,
                                std::span<const std::uint8_t> init_code,
                                std::optional<U256> salt, int depth,
                                std::uint64_t gas,
                                evm::ExecutionResult& result) override;
  void selfdestruct(const Address& contract,
                    const Address& beneficiary) override;
  evm::Hash256 block_hash(std::uint64_t number) override;
  bool account_exists(const Address& account) override;

 private:
  using Snapshot = std::map<Address, Account>;

  Snapshot snapshot() const { return accounts_; }
  void rollback(Snapshot snapshot) { accounts_ = std::move(snapshot); }

  /// The store entry for `code`, adding it when new. Codes are never
  /// removed, so an entry outlives every account and snapshot that points
  /// at it (a rolled-back CREATE leaves its code behind, unreferenced).
  StoredCode intern(Bytecode code);

  std::map<Address, Account> accounts_;
  std::unordered_map<evm::Hash256, std::shared_ptr<const Bytecode>,
                     evm::DigestHash>
      codes_;
  std::vector<evm::LogEntry> logs_;
  evm::BlockContext block_;
  evm::TraceSink* trace_ = nullptr;
};

}  // namespace phishinghook::chain

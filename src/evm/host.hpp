// Host interface between the interpreter and the world state.
//
// The interpreter is pure with respect to global state: every balance read,
// storage access, nested call, creation or log goes through this interface.
// `chain::State` provides the production implementation; tests use small
// in-memory hosts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "evm/address.hpp"
#include "evm/bytecode.hpp"
#include "evm/uint256.hpp"

namespace phishinghook::evm {

/// Block-level environment visible to contracts (TIMESTAMP, NUMBER, ...).
struct BlockContext {
  std::uint64_t number = 0;
  std::uint64_t timestamp = 0;
  std::uint64_t gas_limit = 30'000'000;
  std::uint64_t chain_id = 1;
  std::uint64_t base_fee = 7;
  Address coinbase;
  U256 prevrandao;
};

/// How a nested call binds state/sender (CALL vs DELEGATECALL etc.).
enum class CallKind { kCall, kCallCode, kDelegateCall, kStaticCall };

/// One message call (top-level transaction or nested frame).
struct Message {
  Address caller;               ///< msg.sender
  Address code_address;         ///< whose code runs
  Address storage_address;      ///< whose storage/balance context (== code
                                ///< address except for DELEGATECALL/CALLCODE)
  Address origin;               ///< tx.origin
  U256 value;                   ///< msg.value (apparent value for delegatecall)
  std::vector<std::uint8_t> data;
  std::uint64_t gas = 10'000'000;
  std::uint64_t gas_price = 10;
  bool is_static = false;       ///< STATICCALL context: writes are violations
};

enum class Status {
  kSuccess,
  kRevert,
  kOutOfGas,
  kStackUnderflow,
  kStackOverflow,
  kInvalidJump,
  kInvalidOpcode,    ///< INVALID or an undefined byte
  kStaticViolation,  ///< state write inside STATICCALL
  kCallDepthExceeded,
};

const char* status_name(Status status);

struct ExecutionResult {
  Status status = Status::kSuccess;
  std::uint64_t gas_used = 0;
  std::vector<std::uint8_t> output;  ///< RETURN / REVERT payload

  bool ok() const { return status == Status::kSuccess; }
};

struct LogEntry {
  Address address;
  std::vector<U256> topics;
  std::vector<std::uint8_t> data;
};

/// World-state access required by the interpreter.
class Host {
 public:
  virtual ~Host() = default;

  virtual U256 get_balance(const Address& account) = 0;
  /// The account's code as stored, shared rather than copied (empty code
  /// for an account without any); never null.
  virtual std::shared_ptr<const Bytecode> get_code(const Address& account) = 0;
  /// Keccak-256 of the account's code, as the account stores it
  /// (EXTCODEHASH); the empty-code hash for an account without code.
  virtual Hash256 code_hash(const Address& account) = 0;
  virtual U256 sload(const Address& account, const U256& key) = 0;
  virtual void sstore(const Address& account, const U256& key,
                      const U256& value) = 0;
  /// Moves `value` wei; returns false on insufficient balance.
  virtual bool transfer(const Address& from, const Address& to,
                        const U256& value) = 0;
  virtual void emit_log(LogEntry entry) = 0;
  /// Executes a nested message call (the implementation re-enters the
  /// interpreter); `depth` is the *callee* frame depth.
  virtual ExecutionResult call(const Message& message, CallKind kind,
                               int depth) = 0;
  /// Deploys a contract from `init_code`; returns the new address, or
  /// nullopt on failure. `result` receives the init-frame outcome.
  virtual std::optional<Address> create(const Address& creator,
                                        const U256& value,
                                        std::span<const std::uint8_t> init_code,
                                        std::optional<U256> salt, int depth,
                                        std::uint64_t gas,
                                        ExecutionResult& result) = 0;
  virtual void selfdestruct(const Address& contract,
                            const Address& beneficiary) = 0;
  virtual Hash256 block_hash(std::uint64_t number) = 0;
  virtual bool account_exists(const Address& account) = 0;
};

}  // namespace phishinghook::evm

#include "evm/interpreter.hpp"

#include <algorithm>
#include <memory>

#include "evm/memory.hpp"
#include "evm/opcodes.hpp"
#include "evm/stack.hpp"

namespace phishinghook::evm {

const char* status_name(Status status) {
  switch (status) {
    case Status::kSuccess: return "success";
    case Status::kRevert: return "revert";
    case Status::kOutOfGas: return "out of gas";
    case Status::kStackUnderflow: return "stack underflow";
    case Status::kStackOverflow: return "stack overflow";
    case Status::kInvalidJump: return "invalid jump";
    case Status::kInvalidOpcode: return "invalid opcode";
    case Status::kStaticViolation: return "static violation";
    case Status::kCallDepthExceeded: return "call depth exceeded";
  }
  return "?";
}

namespace {

constexpr std::uint64_t kSstoreSetGas = 20000;
constexpr std::uint64_t kSstoreResetGas = 5000;
constexpr std::uint64_t kCallValueGas = 9000;
constexpr std::uint64_t kCallStipend = 2300;
constexpr std::uint64_t kNewAccountGas = 25000;
constexpr std::uint64_t kCopyWordGas = 3;
constexpr std::uint64_t kSha3WordGas = 6;
constexpr std::uint64_t kExpByteGas = 50;
constexpr std::uint64_t kLogTopicGas = 375;
constexpr std::uint64_t kLogDataGas = 8;

/// Per-frame execution state, bundled so opcode handlers stay readable.
struct Frame {
  const Message& msg;
  const Bytecode& code;
  Host& host;
  int depth;

  Stack stack;
  EvmMemory memory;
  std::vector<std::uint8_t> return_data;  // of the last nested call
  std::uint64_t gas_left;
  std::size_t pc = 0;

  explicit Frame(const Message& m, const Bytecode& c, Host& h, int d)
      : msg(m), code(c), host(h), depth(d), gas_left(m.gas) {}

  bool charge(std::uint64_t amount) {
    if (amount > gas_left) {
      gas_left = 0;
      return false;
    }
    gas_left -= amount;
    return true;
  }

  /// Charges memory expansion for [offset, offset+len) and grows memory.
  bool charge_memory(std::uint64_t offset, std::uint64_t len) {
    if (!charge(memory.grow_cost(offset, len))) return false;
    memory.grow(offset, len);
    return true;
  }
};

std::uint64_t words(std::uint64_t bytes) { return (bytes + 31) / 32; }

/// Offsets/lengths beyond 2^64 can never be paid for; treating them as "too
/// large" lets all address math proceed in 64 bits.
bool as_u64(const U256& value, std::uint64_t& out) {
  if (!value.fits_u64()) return false;
  out = value.low64();
  return true;
}

ExecutionResult finish(const Frame& frame, Status status,
                       std::vector<std::uint8_t> output = {}) {
  ExecutionResult result;
  result.status = status;
  result.gas_used = frame.msg.gas - frame.gas_left;
  result.output = std::move(output);
  return result;
}

}  // namespace

ExecutionResult Interpreter::execute(const Message& message,
                                     const Bytecode& code, Host& host,
                                     int depth) const {
  ExecutionResult result = execute_impl(message, code, host, depth);
  if (trace_ != nullptr) trace_->on_halt(depth, result.status, result.gas_used);
  return result;
}

ExecutionResult Interpreter::execute_impl(const Message& message,
                                          const Bytecode& code, Host& host,
                                          int depth) const {
  if (depth > kMaxCallDepth) {
    ExecutionResult result;
    result.status = Status::kCallDepthExceeded;
    result.gas_used = 0;
    return result;
  }

  const OpcodeTable& table = OpcodeTable::shanghai();
  Frame f(message, code, host, depth);
  const auto& bytes = code.bytes();

  while (f.pc < bytes.size()) {
    const std::uint8_t byte = bytes[f.pc];
    const OpcodeInfo* info = table.find(byte);
    if (trace_ != nullptr) {
      TraceEntry entry;
      entry.depth = depth;
      entry.pc = f.pc;
      entry.opcode = byte;
      entry.mnemonic = info != nullptr ? info->mnemonic : "INVALID";
      entry.gas_left = f.gas_left;
      entry.stack_size = f.stack.size();
      trace_->on_step(entry);
    }
    if (info == nullptr || byte == op_byte(Op::kInvalid)) {
      return finish(f, Status::kInvalidOpcode);
    }
    // Uniform stack validation from the table.
    if (f.stack.size() < info->stack_inputs) {
      return finish(f, Status::kStackUnderflow);
    }
    if (f.stack.size() - info->stack_inputs + info->stack_outputs >
        Stack::kMaxDepth) {
      return finish(f, Status::kStackOverflow);
    }
    if (!f.charge(info->base_gas)) return finish(f, Status::kOutOfGas);

    const Op op = static_cast<Op>(byte);
    std::size_t next_pc = f.pc + 1;

    // PUSHn family (data-carrying).
    if (is_push_with_data(byte)) {
      const std::size_t width = push_data_size(byte);
      const std::size_t available = std::min(width, bytes.size() - f.pc - 1);
      U256 value = U256::from_bytes_be(
          std::span<const std::uint8_t>(bytes.data() + f.pc + 1, available));
      if (available < width) {
        value = value << static_cast<unsigned>(8 * (width - available));
      }
      if (!f.stack.push(value)) return finish(f, Status::kStackOverflow);
      f.pc += 1 + width;
      continue;
    }
    // DUP / SWAP families.
    if (byte >= 0x80 && byte <= 0x8F) {
      if (!f.stack.dup(byte - 0x7F)) return finish(f, Status::kStackUnderflow);
      f.pc = next_pc;
      continue;
    }
    if (byte >= 0x90 && byte <= 0x9F) {
      if (!f.stack.swap(byte - 0x8F)) return finish(f, Status::kStackUnderflow);
      f.pc = next_pc;
      continue;
    }
    // LOG family.
    if (byte >= 0xA0 && byte <= 0xA4) {
      if (f.msg.is_static) return finish(f, Status::kStaticViolation);
      const int topic_count = byte - 0xA0;
      U256 off_w, len_w;
      (void)f.stack.pop(off_w);
      (void)f.stack.pop(len_w);
      std::uint64_t off = 0, len = 0;
      if (!as_u64(off_w, off) || !as_u64(len_w, len)) {
        return finish(f, Status::kOutOfGas);
      }
      LogEntry entry;
      entry.address = f.msg.storage_address;
      for (int t = 0; t < topic_count; ++t) {
        U256 topic;
        (void)f.stack.pop(topic);
        entry.topics.push_back(topic);
      }
      const std::uint64_t dynamic =
          kLogTopicGas * static_cast<std::uint64_t>(topic_count) +
          kLogDataGas * len;
      if (!f.charge(dynamic)) return finish(f, Status::kOutOfGas);
      if (!f.charge_memory(off, len)) return finish(f, Status::kOutOfGas);
      entry.data = f.memory.read(off, len);
      f.host.emit_log(std::move(entry));
      f.pc = next_pc;
      continue;
    }

    switch (op) {
      case Op::kStop:
        return finish(f, Status::kSuccess);

      // --- arithmetic -----------------------------------------------------
      case Op::kAdd:
      case Op::kMul:
      case Op::kSub:
      case Op::kDiv:
      case Op::kSdiv:
      case Op::kMod:
      case Op::kSmod: {
        U256 a, b;
        (void)f.stack.pop(a);
        (void)f.stack.pop(b);
        U256 r;
        switch (op) {
          case Op::kAdd: r = a + b; break;
          case Op::kMul: r = a * b; break;
          case Op::kSub: r = a - b; break;
          case Op::kDiv: r = a / b; break;
          case Op::kSdiv: r = U256::sdiv(a, b); break;
          case Op::kMod: r = a % b; break;
          default: r = U256::smod(a, b); break;
        }
        (void)f.stack.push(r);
        break;
      }
      case Op::kAddmod:
      case Op::kMulmod: {
        U256 a, b, m;
        (void)f.stack.pop(a);
        (void)f.stack.pop(b);
        (void)f.stack.pop(m);
        (void)f.stack.push(op == Op::kAddmod ? U256::addmod(a, b, m)
                                             : U256::mulmod(a, b, m));
        break;
      }
      case Op::kExp: {
        U256 base, exponent;
        (void)f.stack.pop(base);
        (void)f.stack.pop(exponent);
        if (!f.charge(kExpByteGas * exponent.byte_length())) {
          return finish(f, Status::kOutOfGas);
        }
        (void)f.stack.push(U256::exp(base, exponent));
        break;
      }
      case Op::kSignextend: {
        U256 index, value;
        (void)f.stack.pop(index);
        (void)f.stack.pop(value);
        (void)f.stack.push(U256::signextend(index, value));
        break;
      }

      // --- comparison / bitwise -------------------------------------------
      case Op::kLt:
      case Op::kGt:
      case Op::kSlt:
      case Op::kSgt:
      case Op::kEq: {
        U256 a, b;
        (void)f.stack.pop(a);
        (void)f.stack.pop(b);
        bool r = false;
        switch (op) {
          case Op::kLt: r = a < b; break;
          case Op::kGt: r = a > b; break;
          case Op::kSlt: r = U256::slt(a, b); break;
          case Op::kSgt: r = U256::sgt(a, b); break;
          default: r = a == b; break;
        }
        (void)f.stack.push(U256(r ? 1 : 0));
        break;
      }
      case Op::kIszero: {
        U256 a;
        (void)f.stack.pop(a);
        (void)f.stack.push(U256(a.is_zero() ? 1 : 0));
        break;
      }
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor: {
        U256 a, b;
        (void)f.stack.pop(a);
        (void)f.stack.pop(b);
        (void)f.stack.push(op == Op::kAnd ? (a & b)
                                          : op == Op::kOr ? (a | b) : (a ^ b));
        break;
      }
      case Op::kNot: {
        U256 a;
        (void)f.stack.pop(a);
        (void)f.stack.push(~a);
        break;
      }
      case Op::kByte: {
        U256 index, value;
        (void)f.stack.pop(index);
        (void)f.stack.pop(value);
        const std::uint8_t b =
            index.fits_u64() && index.low64() < 32
                ? value.byte_msb(static_cast<unsigned>(index.low64()))
                : 0;
        (void)f.stack.push(U256(b));
        break;
      }
      case Op::kShl:
      case Op::kShr: {
        U256 shift, value;
        (void)f.stack.pop(shift);
        (void)f.stack.pop(value);
        U256 r;
        if (shift.fits_u64() && shift.low64() < 256) {
          const unsigned s = static_cast<unsigned>(shift.low64());
          r = (op == Op::kShl) ? (value << s) : (value >> s);
        }
        (void)f.stack.push(r);
        break;
      }
      case Op::kSar: {
        U256 shift, value;
        (void)f.stack.pop(shift);
        (void)f.stack.pop(value);
        (void)f.stack.push(U256::sar(value, shift));
        break;
      }

      // --- hashing ----------------------------------------------------------
      case Op::kSha3: {
        U256 off_w, len_w;
        (void)f.stack.pop(off_w);
        (void)f.stack.pop(len_w);
        std::uint64_t off = 0, len = 0;
        if (!as_u64(off_w, off) || !as_u64(len_w, len)) {
          return finish(f, Status::kOutOfGas);
        }
        if (!f.charge(kSha3WordGas * words(len))) {
          return finish(f, Status::kOutOfGas);
        }
        if (!f.charge_memory(off, len)) return finish(f, Status::kOutOfGas);
        const auto data = f.memory.read(off, len);
        (void)f.stack.push(U256::from_bytes_be(keccak256(data)));
        break;
      }

      // --- environment -----------------------------------------------------
      case Op::kAddress:
        (void)f.stack.push(f.msg.storage_address.to_word());
        break;
      case Op::kBalance: {
        U256 addr_w;
        (void)f.stack.pop(addr_w);
        (void)f.stack.push(f.host.get_balance(Address::from_word(addr_w)));
        break;
      }
      case Op::kOrigin:
        (void)f.stack.push(f.msg.origin.to_word());
        break;
      case Op::kCaller:
        (void)f.stack.push(f.msg.caller.to_word());
        break;
      case Op::kCallvalue:
        (void)f.stack.push(f.msg.value);
        break;
      case Op::kCalldataload: {
        U256 off_w;
        (void)f.stack.pop(off_w);
        U256 value;
        std::uint64_t off = 0;
        if (as_u64(off_w, off) && off < f.msg.data.size()) {
          const std::size_t available =
              std::min<std::size_t>(32, f.msg.data.size() - off);
          value = U256::from_bytes_be(
              std::span<const std::uint8_t>(f.msg.data.data() + off, available));
          value = value << static_cast<unsigned>(8 * (32 - available));
        }
        (void)f.stack.push(value);
        break;
      }
      case Op::kCalldatasize:
        (void)f.stack.push(U256(f.msg.data.size()));
        break;
      case Op::kCodesize:
        (void)f.stack.push(U256(bytes.size()));
        break;
      case Op::kCalldatacopy:
      case Op::kCodecopy:
      case Op::kReturndatacopy: {
        U256 dst_w, src_w, len_w;
        (void)f.stack.pop(dst_w);
        (void)f.stack.pop(src_w);
        (void)f.stack.pop(len_w);
        std::uint64_t dst = 0, src = 0, len = 0;
        if (!as_u64(dst_w, dst) || !as_u64(len_w, len)) {
          return finish(f, Status::kOutOfGas);
        }
        const bool src_ok = as_u64(src_w, src);
        if (!f.charge(kCopyWordGas * words(len))) {
          return finish(f, Status::kOutOfGas);
        }
        if (!f.charge_memory(dst, len)) return finish(f, Status::kOutOfGas);
        const std::vector<std::uint8_t>* source = nullptr;
        switch (op) {
          case Op::kCalldatacopy: source = &f.msg.data; break;
          case Op::kCodecopy: source = &bytes; break;
          default: source = &f.return_data; break;
        }
        std::span<const std::uint8_t> window;
        if (src_ok && src < source->size()) {
          window = std::span<const std::uint8_t>(source->data() + src,
                                                 source->size() - src);
        }
        f.memory.store_span(dst, window, len);
        break;
      }
      case Op::kGasprice:
        (void)f.stack.push(U256(f.msg.gas_price));
        break;
      case Op::kExtcodesize: {
        U256 addr_w;
        (void)f.stack.pop(addr_w);
        (void)f.stack.push(
            U256(f.host.get_code(Address::from_word(addr_w))->size()));
        break;
      }
      case Op::kExtcodecopy: {
        U256 addr_w, dst_w, src_w, len_w;
        (void)f.stack.pop(addr_w);
        (void)f.stack.pop(dst_w);
        (void)f.stack.pop(src_w);
        (void)f.stack.pop(len_w);
        std::uint64_t dst = 0, src = 0, len = 0;
        if (!as_u64(dst_w, dst) || !as_u64(len_w, len)) {
          return finish(f, Status::kOutOfGas);
        }
        const bool src_ok = as_u64(src_w, src);
        if (!f.charge(kCopyWordGas * words(len))) {
          return finish(f, Status::kOutOfGas);
        }
        if (!f.charge_memory(dst, len)) return finish(f, Status::kOutOfGas);
        const std::shared_ptr<const Bytecode> ext =
            f.host.get_code(Address::from_word(addr_w));
        std::span<const std::uint8_t> window;
        if (src_ok && src < ext->size()) {
          window = std::span<const std::uint8_t>(ext->bytes().data() + src,
                                                 ext->size() - src);
        }
        f.memory.store_span(dst, window, len);
        break;
      }
      case Op::kReturndatasize:
        (void)f.stack.push(U256(f.return_data.size()));
        break;
      case Op::kExtcodehash: {
        U256 addr_w;
        (void)f.stack.pop(addr_w);
        const Address addr = Address::from_word(addr_w);
        if (!f.host.account_exists(addr)) {
          (void)f.stack.push(U256());
        } else {
          (void)f.stack.push(U256::from_bytes_be(f.host.code_hash(addr)));
        }
        break;
      }

      // --- block -------------------------------------------------------------
      case Op::kBlockhash: {
        U256 number_w;
        (void)f.stack.pop(number_w);
        U256 value;
        std::uint64_t number = 0;
        if (as_u64(number_w, number) && number < block_.number) {
          value = U256::from_bytes_be(f.host.block_hash(number));
        }
        (void)f.stack.push(value);
        break;
      }
      case Op::kCoinbase:
        (void)f.stack.push(block_.coinbase.to_word());
        break;
      case Op::kTimestamp:
        (void)f.stack.push(U256(block_.timestamp));
        break;
      case Op::kNumber:
        (void)f.stack.push(U256(block_.number));
        break;
      case Op::kPrevrandao:
        (void)f.stack.push(block_.prevrandao);
        break;
      case Op::kGaslimit:
        (void)f.stack.push(U256(block_.gas_limit));
        break;
      case Op::kChainid:
        (void)f.stack.push(U256(block_.chain_id));
        break;
      case Op::kSelfbalance:
        (void)f.stack.push(f.host.get_balance(f.msg.storage_address));
        break;
      case Op::kBasefee:
        (void)f.stack.push(U256(block_.base_fee));
        break;

      // --- stack / memory / storage / flow ------------------------------------
      case Op::kPop: {
        U256 ignored;
        (void)f.stack.pop(ignored);
        break;
      }
      case Op::kMload: {
        U256 off_w;
        (void)f.stack.pop(off_w);
        std::uint64_t off = 0;
        if (!as_u64(off_w, off)) return finish(f, Status::kOutOfGas);
        if (!f.charge(f.memory.grow_cost(off, 32))) {
          return finish(f, Status::kOutOfGas);
        }
        (void)f.stack.push(f.memory.load_word(off));
        break;
      }
      case Op::kMstore:
      case Op::kMstore8: {
        U256 off_w, value;
        (void)f.stack.pop(off_w);
        (void)f.stack.pop(value);
        std::uint64_t off = 0;
        if (!as_u64(off_w, off)) return finish(f, Status::kOutOfGas);
        const std::uint64_t width = (op == Op::kMstore) ? 32 : 1;
        if (!f.charge_memory(off, width)) return finish(f, Status::kOutOfGas);
        if (op == Op::kMstore) {
          f.memory.store_word(off, value);
        } else {
          f.memory.store_byte(off, static_cast<std::uint8_t>(value.low64()));
        }
        break;
      }
      case Op::kSload: {
        U256 key;
        (void)f.stack.pop(key);
        (void)f.stack.push(f.host.sload(f.msg.storage_address, key));
        break;
      }
      case Op::kSstore: {
        if (f.msg.is_static) return finish(f, Status::kStaticViolation);
        U256 key, value;
        (void)f.stack.pop(key);
        (void)f.stack.pop(value);
        const U256 current = f.host.sload(f.msg.storage_address, key);
        const std::uint64_t cost =
            (current.is_zero() && !value.is_zero()) ? kSstoreSetGas
                                                    : kSstoreResetGas;
        if (!f.charge(cost)) return finish(f, Status::kOutOfGas);
        f.host.sstore(f.msg.storage_address, key, value);
        break;
      }
      case Op::kJump: {
        U256 dest_w;
        (void)f.stack.pop(dest_w);
        if (!dest_w.fits_u64() ||
            !code.is_valid_jump_dest(static_cast<std::size_t>(dest_w.low64()))) {
          return finish(f, Status::kInvalidJump);
        }
        next_pc = static_cast<std::size_t>(dest_w.low64());
        break;
      }
      case Op::kJumpi: {
        U256 dest_w, condition;
        (void)f.stack.pop(dest_w);
        (void)f.stack.pop(condition);
        if (!condition.is_zero()) {
          if (!dest_w.fits_u64() ||
              !code.is_valid_jump_dest(
                  static_cast<std::size_t>(dest_w.low64()))) {
            return finish(f, Status::kInvalidJump);
          }
          next_pc = static_cast<std::size_t>(dest_w.low64());
        }
        break;
      }
      case Op::kPc:
        (void)f.stack.push(U256(f.pc));
        break;
      case Op::kMsize:
        (void)f.stack.push(U256(f.memory.size()));
        break;
      case Op::kGas:
        (void)f.stack.push(U256(f.gas_left));
        break;
      case Op::kJumpdest:
        break;
      case Op::kPush0:
        (void)f.stack.push(U256());
        break;

      // --- system ----------------------------------------------------------
      case Op::kCreate:
      case Op::kCreate2: {
        if (f.msg.is_static) return finish(f, Status::kStaticViolation);
        U256 value, off_w, len_w, salt;
        (void)f.stack.pop(value);
        (void)f.stack.pop(off_w);
        (void)f.stack.pop(len_w);
        if (op == Op::kCreate2) (void)f.stack.pop(salt);
        std::uint64_t off = 0, len = 0;
        if (!as_u64(off_w, off) || !as_u64(len_w, len)) {
          return finish(f, Status::kOutOfGas);
        }
        if (!f.charge_memory(off, len)) return finish(f, Status::kOutOfGas);
        if (op == Op::kCreate2 && !f.charge(kSha3WordGas * words(len))) {
          return finish(f, Status::kOutOfGas);
        }
        const auto init_code = f.memory.read(off, len);
        const std::uint64_t forwarded = f.gas_left - f.gas_left / 64;
        ExecutionResult child;
        const std::optional<Address> created = f.host.create(
            f.msg.storage_address, value, init_code,
            op == Op::kCreate2 ? std::optional<U256>(salt) : std::nullopt,
            f.depth + 1, forwarded, child);
        f.gas_left -= std::min(child.gas_used, forwarded);
        f.return_data = child.status == Status::kRevert ? child.output
                                                        : std::vector<std::uint8_t>{};
        (void)f.stack.push(created.has_value() ? created->to_word() : U256());
        break;
      }
      case Op::kCall:
      case Op::kCallcode:
      case Op::kDelegatecall:
      case Op::kStaticcall: {
        U256 gas_w, addr_w, value;
        (void)f.stack.pop(gas_w);
        (void)f.stack.pop(addr_w);
        if (op == Op::kCall || op == Op::kCallcode) {
          (void)f.stack.pop(value);
        }
        U256 in_off_w, in_len_w, out_off_w, out_len_w;
        (void)f.stack.pop(in_off_w);
        (void)f.stack.pop(in_len_w);
        (void)f.stack.pop(out_off_w);
        (void)f.stack.pop(out_len_w);
        std::uint64_t in_off = 0, in_len = 0, out_off = 0, out_len = 0;
        if (!as_u64(in_off_w, in_off) || !as_u64(in_len_w, in_len) ||
            !as_u64(out_off_w, out_off) || !as_u64(out_len_w, out_len)) {
          return finish(f, Status::kOutOfGas);
        }
        if (op == Op::kCall && f.msg.is_static && !value.is_zero()) {
          return finish(f, Status::kStaticViolation);
        }
        if (!f.charge_memory(in_off, in_len)) return finish(f, Status::kOutOfGas);
        if (!f.charge_memory(out_off, out_len)) {
          return finish(f, Status::kOutOfGas);
        }
        const Address target = Address::from_word(addr_w);
        std::uint64_t extra = 0;
        if ((op == Op::kCall || op == Op::kCallcode) && !value.is_zero()) {
          extra += kCallValueGas;
          if (op == Op::kCall && !f.host.account_exists(target)) {
            extra += kNewAccountGas;
          }
        }
        if (!f.charge(extra)) return finish(f, Status::kOutOfGas);

        const std::uint64_t max_forward = f.gas_left - f.gas_left / 64;
        std::uint64_t requested = max_forward;
        if (gas_w.fits_u64()) requested = std::min(gas_w.low64(), max_forward);
        std::uint64_t child_gas = requested;
        if (!value.is_zero()) child_gas += kCallStipend;

        Message child_msg;
        child_msg.origin = f.msg.origin;
        child_msg.gas = child_gas;
        child_msg.gas_price = f.msg.gas_price;
        child_msg.data = f.memory.read(in_off, in_len);
        CallKind kind = CallKind::kCall;
        switch (op) {
          case Op::kCall:
            kind = CallKind::kCall;
            child_msg.caller = f.msg.storage_address;
            child_msg.code_address = target;
            child_msg.storage_address = target;
            child_msg.value = value;
            child_msg.is_static = f.msg.is_static;
            break;
          case Op::kCallcode:
            kind = CallKind::kCallCode;
            child_msg.caller = f.msg.storage_address;
            child_msg.code_address = target;
            child_msg.storage_address = f.msg.storage_address;
            child_msg.value = value;
            child_msg.is_static = f.msg.is_static;
            break;
          case Op::kDelegatecall:
            kind = CallKind::kDelegateCall;
            child_msg.caller = f.msg.caller;
            child_msg.code_address = target;
            child_msg.storage_address = f.msg.storage_address;
            child_msg.value = f.msg.value;
            child_msg.is_static = f.msg.is_static;
            break;
          default:
            kind = CallKind::kStaticCall;
            child_msg.caller = f.msg.storage_address;
            child_msg.code_address = target;
            child_msg.storage_address = target;
            child_msg.value = U256();
            child_msg.is_static = true;
            break;
        }

        const ExecutionResult child =
            f.host.call(child_msg, kind, f.depth + 1);
        const std::uint64_t billable =
            std::min(child.gas_used, requested);  // the stipend is free
        f.gas_left -= std::min(billable, f.gas_left);
        f.return_data = child.output;
        f.memory.store_span(out_off, child.output,
                            std::min<std::uint64_t>(out_len, child.output.size()));
        (void)f.stack.push(U256(child.ok() ? 1 : 0));
        break;
      }
      case Op::kReturn:
      case Op::kRevert: {
        U256 off_w, len_w;
        (void)f.stack.pop(off_w);
        (void)f.stack.pop(len_w);
        std::uint64_t off = 0, len = 0;
        if (!as_u64(off_w, off) || !as_u64(len_w, len)) {
          return finish(f, Status::kOutOfGas);
        }
        if (!f.charge_memory(off, len)) return finish(f, Status::kOutOfGas);
        return finish(f, op == Op::kReturn ? Status::kSuccess : Status::kRevert,
                      f.memory.read(off, len));
      }
      case Op::kSelfdestruct: {
        if (f.msg.is_static) return finish(f, Status::kStaticViolation);
        U256 beneficiary_w;
        (void)f.stack.pop(beneficiary_w);
        f.host.selfdestruct(f.msg.storage_address,
                            Address::from_word(beneficiary_w));
        return finish(f, Status::kSuccess);
      }

      default:
        // All defined opcodes are handled above; reaching here would mean the
        // table and the interpreter disagree.
        return finish(f, Status::kInvalidOpcode);
    }

    f.pc = next_pc;
  }

  // Running off the end of code is an implicit STOP.
  return finish(f, Status::kSuccess);
}

}  // namespace phishinghook::evm

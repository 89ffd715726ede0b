// Second interpreter suite: per-opcode semantics not covered by the basic
// suite — modular arithmetic opcodes, SIGNEXTEND/BYTE/SAR, copy opcodes,
// EXT* account introspection, CREATE2, CALLCODE, block opcodes and dynamic
// gas components (EXP bytes, SHA3 words, LOG data, memory expansion).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "chain/state.hpp"
#include "evm/interpreter.hpp"
#include "synth/assembler.hpp"

namespace phishinghook::evm {
namespace {

using chain::State;
using synth::Assembler;

class InterpreterSemantics : public ::testing::Test {
 protected:
  ExecutionResult run(const Bytecode& code, std::vector<std::uint8_t> data = {},
                      std::uint64_t gas = 5'000'000) {
    Message msg;
    msg.caller = caller_;
    msg.code_address = contract_;
    msg.storage_address = contract_;
    msg.origin = caller_;
    msg.data = std::move(data);
    msg.gas = gas;
    state_.set_code(contract_, code);
    const Interpreter interpreter(block_);
    return interpreter.execute(msg, code, state_, 0);
  }

  U256 run_for_word(const std::function<void(Assembler&)>& body) {
    Assembler a;
    body(a);
    a.push(0x00).op(Op::kMstore);
    a.push(0x20).push(0x00).op(Op::kReturn);
    const ExecutionResult result = run(a.build());
    EXPECT_EQ(result.status, Status::kSuccess) << status_name(result.status);
    EXPECT_EQ(result.output.size(), 32u);
    return U256::from_bytes_be(result.output);
  }

  BlockContext block_{.number = 19'000'000,
                      .timestamp = 1720000000,
                      .gas_limit = 30'000'000,
                      .chain_id = 1,
                      .base_fee = 21,
                      .coinbase = Address::from_hex(
                          "0x000000000000000000000000000000000000c01b"),
                      .prevrandao = U256(777)};
  State state_;
  Address caller_ =
      Address::from_hex("0x00000000000000000000000000000000000000aa");
  Address contract_ =
      Address::from_hex("0x00000000000000000000000000000000000000cc");
  Address other_ =
      Address::from_hex("0x00000000000000000000000000000000000000dd");
};

TEST_F(InterpreterSemantics, ModularArithmetic) {
  // ADDMOD pops a, b, m: push m, b, a.
  EXPECT_EQ(run_for_word([](Assembler& a) {
              a.push(5).push(4).push(3).op(Op::kAddmod);  // (3+4)%5
            }),
            U256(2));
  EXPECT_EQ(run_for_word([](Assembler& a) {
              a.push(7).push(6).push(5).op(Op::kMulmod);  // (5*6)%7
            }),
            U256(2));
  EXPECT_EQ(run_for_word([](Assembler& a) {
              a.op(Op::kPush0).push(4).push(3).op(Op::kAddmod);  // m = 0
            }),
            U256(0));
}

TEST_F(InterpreterSemantics, SignedOps) {
  // SDIV: -6 / 2 (operands: top = -6).
  EXPECT_EQ(run_for_word([](Assembler& a) {
              a.push(2).push(U256(6).negated()).op(Op::kSdiv);
            }),
            U256(3).negated());
  // SMOD: -7 % 3.
  EXPECT_EQ(run_for_word([](Assembler& a) {
              a.push(3).push(U256(7).negated()).op(Op::kSmod);
            }),
            U256(1).negated());
  // SLT: -1 < 1.
  EXPECT_EQ(run_for_word([](Assembler& a) {
              a.push(1).push(U256(1).negated()).op(Op::kSlt);
            }),
            U256(1));
  // SGT: 1 > -1.
  EXPECT_EQ(run_for_word([](Assembler& a) {
              a.push(U256(1).negated()).push(1).op(Op::kSgt);
            }),
            U256(1));
}

TEST_F(InterpreterSemantics, ByteSignextendSar) {
  // BYTE 31 of 0x1234 is 0x34 (index counts from MSB).
  EXPECT_EQ(run_for_word([](Assembler& a) {
              a.push(0x1234).push(31).op(Op::kByte);
            }),
            U256(0x34));
  // SIGNEXTEND(0, 0xFF) = -1.
  EXPECT_EQ(run_for_word([](Assembler& a) {
              a.push(0xFF).push(0).op(Op::kSignextend);
            }),
            U256::max());
  // SAR(-8 >> 1) = -4.
  EXPECT_EQ(run_for_word([](Assembler& a) {
              a.push(U256(8).negated()).push(1).op(Op::kSar);
            }),
            U256(4).negated());
}

TEST_F(InterpreterSemantics, CalldatacopyZeroPads) {
  // Copy 8 bytes from calldata offset 2 (calldata has only 4 bytes).
  Assembler a;
  a.push(8).push(2).push(0x20).op(Op::kCalldatacopy);  // dst=0x20 src=2 len=8
  a.push(0x20).op(Op::kMload);
  a.push(0x00).op(Op::kMstore);
  a.push(0x20).push(0x00).op(Op::kReturn);
  const ExecutionResult result = run(a.build(), {0xAA, 0xBB, 0xCC, 0xDD});
  // bytes at src 2..: CC DD then zeros; MLOAD(0x20) puts CC at MSB.
  const U256 word = U256::from_bytes_be(result.output);
  EXPECT_EQ(word.byte_msb(0), 0xCC);
  EXPECT_EQ(word.byte_msb(1), 0xDD);
  EXPECT_EQ(word.byte_msb(2), 0x00);
}

TEST_F(InterpreterSemantics, CodecopyReadsOwnCode) {
  // Copy the first 2 code bytes to memory and return them.
  Assembler a;
  a.push(2).op(Op::kPush0).op(Op::kPush0).op(Op::kCodecopy);  // dst=0 src=0 len=2
  a.push(0x00).op(Op::kMload);
  a.push(0x40).op(Op::kMstore);
  a.push(0x20).push(0x40).op(Op::kReturn);
  const ExecutionResult result = run(a.build());
  const U256 word = U256::from_bytes_be(result.output);
  EXPECT_EQ(word.byte_msb(0), 0x60);  // PUSH1 (the assembled first byte)
}

TEST_F(InterpreterSemantics, ExtcodeOpcodesSeeOtherAccounts) {
  Assembler other_code;
  other_code.push(1).op(Op::kPop).op(Op::kStop);
  const Bytecode deployed = other_code.build();
  state_.set_code(other_, deployed);

  EXPECT_EQ(run_for_word([this](Assembler& a) {
              a.push_bytes(other_.bytes());
              a.op(Op::kExtcodesize);
            }),
            U256(deployed.size()));
  // EXTCODEHASH of a known account equals keccak(code).
  const U256 expected = U256::from_bytes_be(deployed.code_hash());
  EXPECT_EQ(run_for_word([this](Assembler& a) {
              a.push_bytes(other_.bytes());
              a.op(Op::kExtcodehash);
            }),
            expected);
  // Non-existent account: EXTCODEHASH = 0.
  EXPECT_EQ(run_for_word([](Assembler& a) {
              a.push(0x1234).op(Op::kExtcodehash);
            }),
            U256(0));
}

TEST_F(InterpreterSemantics, ExtcodecopyCopiesWindowsOfOtherCode) {
  const Bytecode deployed(
      std::vector<std::uint8_t>{0x11, 0x22, 0x33, 0x44, 0x55, 0x66});
  state_.set_code(other_, deployed);
  const U256 ones = U256::max();
  // Fills memory word 0 with 0xFF bytes, EXTCODECOPYs `len` bytes of
  // `account`'s code from `src` over it, and returns the word: copied bytes
  // land at the front and the rest of the window is zero-filled.
  const auto copy_word = [&](const Address& account, std::uint64_t src,
                             std::uint64_t len) {
    return run_for_word([&](Assembler& a) {
      a.push(ones).push(0x00).op(Op::kMstore);
      a.push(len).push(src).push(0x00).push_bytes(account.bytes());
      a.op(Op::kExtcodecopy);
      a.push(0x00).op(Op::kMload);
    });
  };
  const auto bytes_then_ones = [&](std::vector<std::uint8_t> head) {
    std::vector<std::uint8_t> word(32, 0xFF);
    std::copy(head.begin(), head.end(), word.begin());
    return U256::from_bytes_be(word);
  };

  // Interior slice: exactly the requested bytes, memory after it untouched.
  EXPECT_EQ(copy_word(other_, 1, 3), bytes_then_ones({0x22, 0x33, 0x44}));
  // Window running off the end: the code's tail, then zeros.
  EXPECT_EQ(copy_word(other_, 4, 5),
            bytes_then_ones({0x55, 0x66, 0x00, 0x00, 0x00}));
  // Source offset past the end: all zeros.
  EXPECT_EQ(copy_word(other_, 9, 4), bytes_then_ones({0, 0, 0, 0}));
  // Account without code: all zeros.
  EXPECT_EQ(copy_word(Address::from_hex(
                          "0x0000000000000000000000000000000000001234"),
                      0, 4),
            bytes_then_ones({0, 0, 0, 0}));
}

TEST_F(InterpreterSemantics, ReturndataAfterCall) {
  // Callee returns 8 bytes; caller checks RETURNDATASIZE and copies them.
  Assembler callee;
  callee.push(U256::from_string("0x1122334455667788")).push(0x00).op(Op::kMstore);
  callee.push(8).push(0x18).op(Op::kReturn);  // the low 8 bytes of the word
  state_.set_code(other_, callee.build());

  Assembler a;
  a.op(Op::kPush0).op(Op::kPush0).op(Op::kPush0).op(Op::kPush0).op(Op::kPush0);
  a.push_bytes(other_.bytes());
  a.push(200000);
  a.op(Op::kCall).op(Op::kPop);
  a.op(Op::kReturndatasize);
  a.push(0x00).op(Op::kMstore);
  a.push(0x20).push(0x00).op(Op::kReturn);
  const ExecutionResult result = run(a.build());
  EXPECT_EQ(U256::from_bytes_be(result.output), U256(8));
}

TEST_F(InterpreterSemantics, ReturndatacopyMovesPayload) {
  Assembler callee;
  callee.push(0xAB).push(0x00).op(Op::kMstore8);
  callee.push(1).push(0x00).op(Op::kReturn);
  state_.set_code(other_, callee.build());

  Assembler a;
  a.op(Op::kPush0).op(Op::kPush0).op(Op::kPush0).op(Op::kPush0).op(Op::kPush0);
  a.push_bytes(other_.bytes());
  a.push(200000);
  a.op(Op::kCall).op(Op::kPop);
  a.push(1).op(Op::kPush0).push(0x40).op(Op::kReturndatacopy);  // dst=0x40
  a.push(0x40).op(Op::kMload);
  a.push(0x00).op(Op::kMstore);
  a.push(0x20).push(0x00).op(Op::kReturn);
  const ExecutionResult result = run(a.build());
  EXPECT_EQ(U256::from_bytes_be(result.output).byte_msb(0), 0xAB);
}

TEST_F(InterpreterSemantics, BlockOpcodes) {
  EXPECT_EQ(run_for_word([](Assembler& a) { a.op(Op::kNumber); }),
            U256(19'000'000));
  EXPECT_EQ(run_for_word([](Assembler& a) { a.op(Op::kGaslimit); }),
            U256(30'000'000));
  EXPECT_EQ(run_for_word([](Assembler& a) { a.op(Op::kBasefee); }), U256(21));
  EXPECT_EQ(run_for_word([](Assembler& a) { a.op(Op::kPrevrandao); }),
            U256(777));
  EXPECT_EQ(run_for_word([this](Assembler& a) { a.op(Op::kCoinbase); }),
            block_.coinbase.to_word());
  // BLOCKHASH of a past block is deterministic and non-zero; of the current
  // block (or the future) it is zero.
  EXPECT_NE(run_for_word([](Assembler& a) {
              a.push(18'999'000).op(Op::kBlockhash);
            }),
            U256(0));
  EXPECT_EQ(run_for_word([](Assembler& a) {
              a.push(19'000'000).op(Op::kBlockhash);
            }),
            U256(0));
}

TEST_F(InterpreterSemantics, OriginVsCallerThroughNestedCall) {
  // Callee returns ORIGIN; caller forwards it. origin == external caller.
  Assembler callee;
  callee.op(Op::kOrigin).push(0x00).op(Op::kMstore);
  callee.push(0x20).push(0x00).op(Op::kReturn);
  state_.set_code(other_, callee.build());

  Assembler a;
  a.push(0x20).push(0x40);
  a.op(Op::kPush0).op(Op::kPush0).op(Op::kPush0);
  a.push_bytes(other_.bytes());
  a.push(200000);
  a.op(Op::kCall).op(Op::kPop);
  a.push(0x40).op(Op::kMload);
  a.push(0x00).op(Op::kMstore);
  a.push(0x20).push(0x00).op(Op::kReturn);
  const ExecutionResult result = run(a.build());
  EXPECT_EQ(U256::from_bytes_be(result.output), caller_.to_word());
}

TEST_F(InterpreterSemantics, Create2AddressIsDeterministic) {
  // CREATE2 with a fixed salt and empty-ish init code (STOP-only runtime):
  // init code returns empty -> created contract has empty code but exists.
  // init: RETURN(0, 0).
  Assembler init;
  init.op(Op::kPush0).op(Op::kPush0).op(Op::kReturn);
  const Bytecode init_code = init.build();
  // Write init code into memory via MSTORE8s, then CREATE2.
  Assembler a;
  for (std::size_t i = 0; i < init_code.size(); ++i) {
    a.push(init_code.bytes()[i]).push(i).op(Op::kMstore8);
  }
  a.push(0x42);                        // salt
  a.push(init_code.size()).op(Op::kPush0);  // len, off
  a.op(Op::kPush0);                    // value
  a.op(Op::kCreate2);
  a.push(0x00).op(Op::kMstore);
  a.push(0x20).push(0x00).op(Op::kReturn);
  const ExecutionResult result = run(a.build());
  ASSERT_EQ(result.status, Status::kSuccess);
  const Address created =
      Address::from_word(U256::from_bytes_be(result.output));
  EXPECT_EQ(created,
            derive_create2_address(contract_, U256(0x42), init_code.bytes()));
  EXPECT_TRUE(state_.account_exists(created));
}

TEST_F(InterpreterSemantics, CallcodeRunsCalleeCodeOnCallerStorage) {
  // Library writes 7 at slot 1; CALLCODE keeps the caller's storage.
  Assembler library_code;
  library_code.push(7).push(1).op(Op::kSstore).op(Op::kStop);
  state_.set_code(other_, library_code.build());

  Assembler a;
  a.op(Op::kPush0).op(Op::kPush0).op(Op::kPush0).op(Op::kPush0);
  a.op(Op::kPush0);  // value
  a.push_bytes(other_.bytes());
  a.push(200000);
  a.op(Op::kCallcode).op(Op::kPop);
  a.op(Op::kStop);
  EXPECT_EQ(run(a.build()).status, Status::kSuccess);
  EXPECT_EQ(state_.sload(contract_, U256(1)), U256(7));
  EXPECT_EQ(state_.sload(other_, U256(1)), U256());
}

TEST_F(InterpreterSemantics, DynamicGasComponents) {
  // EXP charges 50 per exponent byte: PUSH1 3 + PUSH2 3 + EXP 10 + 2*50.
  {
    Assembler a;
    a.push(0x1234).push(2).op(Op::kExp).op(Op::kPop).op(Op::kStop);
    // exponent = 0x1234? careful: EXP pops base then exponent: base=2 (top
    // after pushes? push(0x1234) then push(2): top=2=base, exp=0x1234).
    const ExecutionResult result = run(a.build());
    EXPECT_EQ(result.status, Status::kSuccess);
    // PUSH2(3) + PUSH1(3) + EXP(10 + 2 bytes * 50) + POP(2) = 118
    EXPECT_EQ(result.gas_used, 118u);
  }
  // SHA3 charges 6 per word plus memory expansion.
  {
    Assembler a;
    a.push(0x40).op(Op::kPush0).op(Op::kSha3).op(Op::kPop).op(Op::kStop);
    const ExecutionResult result = run(a.build());
    // PUSH1 3 + PUSH0 2 + SHA3 (30 + 2*6) + mem 2 words (6) + POP 2 = 55.
    EXPECT_EQ(result.gas_used, 55u);
  }
  // LOG1 charges 375 + 375/topic + 8/byte.
  {
    Assembler a;
    a.push(0x99);                 // topic
    a.push(0x20).op(Op::kPush0);  // len=32, off=0
    a.op(Op::kLog1).op(Op::kStop);
    const ExecutionResult result = run(a.build());
    // PUSH1 3 + PUSH1 3 + PUSH0 2 + LOG1 base 375 + topic 375 + 32*8 256 +
    // mem 1 word 3 = 1017.
    EXPECT_EQ(result.gas_used, 1017u);
  }
}

TEST_F(InterpreterSemantics, CallDepthLimit) {
  const Interpreter interpreter(block_);
  Message msg;
  msg.caller = caller_;
  msg.code_address = contract_;
  msg.storage_address = contract_;
  msg.origin = caller_;
  Assembler a;
  a.op(Op::kStop);
  const Bytecode code = a.build();
  const ExecutionResult result =
      interpreter.execute(msg, code, state_, Interpreter::kMaxCallDepth + 1);
  EXPECT_EQ(result.status, Status::kCallDepthExceeded);
}

}  // namespace
}  // namespace phishinghook::evm

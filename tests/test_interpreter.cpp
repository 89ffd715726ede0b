// Interpreter semantics: hand-assembled programs executed against the
// chain's world state (which implements the Host interface).
#include <gtest/gtest.h>

#include <functional>

#include "chain/state.hpp"
#include "evm/interpreter.hpp"
#include "synth/assembler.hpp"

namespace phishinghook::evm {
namespace {

using chain::State;
using synth::Assembler;

class InterpreterTest : public ::testing::Test {
 protected:
  ExecutionResult run(const Bytecode& code, std::vector<std::uint8_t> data = {},
                      std::uint64_t gas = 1'000'000) {
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

  /// Runs a program expected to RETURN one 32-byte word.
  U256 run_for_word(const Bytecode& code) {
    const ExecutionResult result = run(code);
    EXPECT_EQ(result.status, Status::kSuccess) << status_name(result.status);
    EXPECT_EQ(result.output.size(), 32u);
    return U256::from_bytes_be(result.output);
  }

  /// Assembles "<compute leaving 1 word> then return it".
  static Bytecode returning(const std::function<void(Assembler&)>& body) {
    Assembler a;
    body(a);
    a.push(0x00).op(Op::kMstore);           // store result at 0
    a.push(0x20).push(0x00).op(Op::kReturn);
    return a.build();
  }

  BlockContext block_ = [] {
    BlockContext block;
    block.number = 18'500'000;
    block.timestamp = 1700000000;
    block.chain_id = 1;
    return block;
  }();
  State state_;
  Address caller_ = Address::from_hex("0x00000000000000000000000000000000000000aa");
  Address contract_ = Address::from_hex("0x00000000000000000000000000000000000000cc");
};

TEST_F(InterpreterTest, EmptyCodeIsStop) {
  const ExecutionResult result = run(Bytecode());
  EXPECT_EQ(result.status, Status::kSuccess);
  EXPECT_TRUE(result.output.empty());
}

TEST_F(InterpreterTest, Arithmetic) {
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(20).push(22).op(Op::kAdd);
            })),
            U256(42));
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(6).push(7).op(Op::kMul);
            })),
            U256(42));
  // SUB is top - second: push 8 then 50 -> 50 - 8.
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(8).push(50).op(Op::kSub);
            })),
            U256(42));
  // DIV: top / second.
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(2).push(84).op(Op::kDiv);
            })),
            U256(42));
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(0).push(84).op(Op::kDiv);  // div by zero -> 0
            })),
            U256(0));
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(10).push(2).op(Op::kExp);  // EXP: base=top
            })),
            U256(1024));
}

TEST_F(InterpreterTest, ComparisonAndBitwise) {
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(5).push(3).op(Op::kLt);  // 3 < 5
            })),
            U256(1));
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(0xF0).push(0x0F).op(Op::kOr);
            })),
            U256(0xFF));
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(0).op(Op::kIszero);
            })),
            U256(1));
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(1).push(4).op(Op::kShl);  // 1 << 4
            })),
            U256(16));
}

TEST_F(InterpreterTest, Sha3MatchesKeccak) {
  // keccak of 32 zero bytes of fresh memory.
  const U256 expected = U256::from_bytes_be(
      keccak256(std::vector<std::uint8_t>(32, 0)));
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(0x20).push(0x40).op(Op::kSha3);  // len=0x20, off=0x40
            })),
            expected);
}

TEST_F(InterpreterTest, MemoryOps) {
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(0x1234).push(0x80).op(Op::kMstore);
              a.push(0x80).op(Op::kMload);
            })),
            U256(0x1234));
  // MSTORE8 writes one byte; MLOAD of that offset has it at the MSB.
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(0xAB).push(0x80).op(Op::kMstore8);
              a.push(0x80).op(Op::kMload);
            })),
            U256(0xAB) << 248);
  EXPECT_EQ(run_for_word(returning([](Assembler& a) {
              a.push(0xAB).push(0x80).op(Op::kMstore);
              a.op(Op::kMsize);
            })),
            U256(0xA0));
}

TEST_F(InterpreterTest, StorageRoundTrip) {
  Assembler a;
  a.push(42).push(7).op(Op::kSstore);  // storage[7] = 42
  a.push(7).op(Op::kSload);
  a.push(0x00).op(Op::kMstore);
  a.push(0x20).push(0x00).op(Op::kReturn);
  EXPECT_EQ(run_for_word(a.build()), U256(42));
  // And it persisted in the world state.
  EXPECT_EQ(state_.sload(contract_, U256(7)), U256(42));
}

TEST_F(InterpreterTest, JumpAndJumpi) {
  // if (1) return 42 else return 7
  Assembler a;
  const auto then_label = a.make_label();
  a.push(1);
  a.jump_if(then_label);
  a.push(7).push(0x00).op(Op::kMstore);
  a.push(0x20).push(0x00).op(Op::kReturn);
  a.bind(then_label);
  a.push(42).push(0x00).op(Op::kMstore);
  a.push(0x20).push(0x00).op(Op::kReturn);
  EXPECT_EQ(run_for_word(a.build()), U256(42));
}

TEST_F(InterpreterTest, InvalidJumpHalts) {
  Assembler a;
  a.push(2).op(Op::kJump);  // offset 2 is not a JUMPDEST
  a.op(Op::kStop);
  EXPECT_EQ(run(a.build()).status, Status::kInvalidJump);
}

TEST_F(InterpreterTest, JumpIntoPushImmediateIsInvalid) {
  // PUSH1 0x03 JUMP JUMPDEST STOP — a valid jump to a real JUMPDEST.
  EXPECT_EQ(run(Bytecode::from_hex("0x6003565b00")).status, Status::kSuccess);
  // PUSH1 0x05 JUMP JUMPDEST PUSH2 0x5b5b STOP — pc 5 is a 0x5B byte, but
  // it is PUSH2 immediate data, so jumping there must fail.
  EXPECT_EQ(run(Bytecode::from_hex("0x6005565b615b5b00")).status,
            Status::kInvalidJump);
}

TEST_F(InterpreterTest, StackUnderflowAndOverflow) {
  EXPECT_EQ(run(Bytecode::from_hex("0x01")).status, Status::kStackUnderflow);
  // 1025 pushes overflow the stack.
  Assembler a;
  const auto loop = a.make_label();
  // Simply unroll: PUSH0 x1025.
  for (int i = 0; i < 1025; ++i) a.op(Op::kPush0);
  (void)loop;
  EXPECT_EQ(run(a.build()).status, Status::kStackOverflow);
}

TEST_F(InterpreterTest, OutOfGas) {
  Assembler a;
  for (int i = 0; i < 100; ++i) a.push(1).push(1).op(Op::kExp).op(Op::kPop);
  const ExecutionResult result = run(a.build(), {}, 50);
  EXPECT_EQ(result.status, Status::kOutOfGas);
  EXPECT_EQ(result.gas_used, 50u);  // everything consumed
}

TEST_F(InterpreterTest, GasAccountingForSimpleProgram) {
  // PUSH1 PUSH1 MSTORE = 3 + 3 + 3 + memory expansion to one word (3).
  const ExecutionResult result = run(Bytecode::from_hex("0x6001600052"));
  EXPECT_EQ(result.status, Status::kSuccess);
  EXPECT_EQ(result.gas_used, 12u);
}

TEST_F(InterpreterTest, RevertReturnsPayloadAndRollsBack) {
  Assembler a;
  a.push(99).push(3).op(Op::kSstore);
  a.push(0xEE).push(0x00).op(Op::kMstore);
  a.push(0x20).push(0x00).op(Op::kRevert);
  Message msg;
  msg.caller = caller_;
  msg.code_address = contract_;
  msg.storage_address = contract_;
  msg.origin = caller_;
  state_.set_code(contract_, a.build());
  const ExecutionResult result =
      state_.call(msg, CallKind::kCall, /*depth=*/0);
  EXPECT_EQ(result.status, Status::kRevert);
  ASSERT_EQ(result.output.size(), 32u);
  EXPECT_EQ(U256::from_bytes_be(result.output), U256(0xEE));
  // The SSTORE before the revert must have been rolled back.
  EXPECT_EQ(state_.sload(contract_, U256(3)), U256());
}

TEST_F(InterpreterTest, InvalidOpcodeHalts) {
  EXPECT_EQ(run(Bytecode::from_hex("0xfe")).status, Status::kInvalidOpcode);
  EXPECT_EQ(run(Bytecode::from_hex("0x0c")).status, Status::kInvalidOpcode);
}

TEST_F(InterpreterTest, CalldataAccess) {
  // Return the first calldata word.
  Assembler a;
  a.op(Op::kPush0).op(Op::kCalldataload);
  a.push(0x00).op(Op::kMstore);
  a.push(0x20).push(0x00).op(Op::kReturn);
  std::vector<std::uint8_t> data(32, 0);
  data[31] = 0x2A;
  const ExecutionResult result = run(a.build(), data);
  EXPECT_EQ(U256::from_bytes_be(result.output), U256(42));
}

TEST_F(InterpreterTest, CalldataloadPastEndReadsZero) {
  Assembler a;
  a.push(1000).op(Op::kCalldataload);
  a.push(0x00).op(Op::kMstore);
  a.push(0x20).push(0x00).op(Op::kReturn);
  EXPECT_EQ(run_for_word(a.build()), U256());
}

TEST_F(InterpreterTest, EnvironmentOpcodes) {
  EXPECT_EQ(run_for_word(returning([](Assembler& a) { a.op(Op::kCaller); })),
            caller_.to_word());
  EXPECT_EQ(run_for_word(returning([](Assembler& a) { a.op(Op::kAddress); })),
            contract_.to_word());
  EXPECT_EQ(run_for_word(returning([](Assembler& a) { a.op(Op::kTimestamp); })),
            U256(1700000000));
  EXPECT_EQ(run_for_word(returning([](Assembler& a) { a.op(Op::kChainid); })),
            U256(1));
  EXPECT_EQ(run_for_word(returning([](Assembler& a) { a.op(Op::kCallvalue); })),
            U256(0));
}

TEST_F(InterpreterTest, SelfBalance) {
  state_.set_balance(contract_, U256(12345));
  EXPECT_EQ(
      run_for_word(returning([](Assembler& a) { a.op(Op::kSelfbalance); })),
      U256(12345));
}

TEST_F(InterpreterTest, LogsReachHost) {
  Assembler a;
  a.push(0x42);                     // topic
  a.op(Op::kPush0).op(Op::kPush0);  // len, off
  a.op(Op::kLog1);
  a.op(Op::kStop);
  EXPECT_EQ(run(a.build()).status, Status::kSuccess);
  ASSERT_EQ(state_.logs().size(), 1u);
  EXPECT_EQ(state_.logs()[0].topics.at(0), U256(0x42));
  EXPECT_EQ(state_.logs()[0].address, contract_);
}

TEST_F(InterpreterTest, StaticCallBlocksWrites) {
  // Callee stores; caller STATICCALLs it -> callee fails, flag 0.
  Assembler callee;
  callee.push(1).push(0).op(Op::kSstore);
  callee.op(Op::kStop);
  const Address callee_addr =
      Address::from_hex("0x00000000000000000000000000000000000000dd");
  state_.set_code(callee_addr, callee.build());

  Assembler caller_code;
  caller_code.op(Op::kPush0).op(Op::kPush0).op(Op::kPush0).op(Op::kPush0);
  caller_code.push_bytes(callee_addr.bytes());
  caller_code.push(100000);
  caller_code.op(Op::kStaticcall);
  caller_code.push(0x00).op(Op::kMstore);
  caller_code.push(0x20).push(0x00).op(Op::kReturn);
  EXPECT_EQ(run_for_word(caller_code.build()), U256(0));
  EXPECT_EQ(state_.sload(callee_addr, U256(0)), U256());
}

TEST_F(InterpreterTest, NestedCallTransfersValueAndReturnsData) {
  // Callee returns 0x2A; caller CALLs with value 5 and forwards the output.
  Assembler callee;
  callee.push(0x2A).push(0x00).op(Op::kMstore);
  callee.push(0x20).push(0x00).op(Op::kReturn);
  const Address callee_addr =
      Address::from_hex("0x00000000000000000000000000000000000000dd");
  state_.set_code(callee_addr, callee.build());
  state_.set_balance(contract_, U256(100));

  Assembler caller_code;
  caller_code.push(0x20).push(0x40);  // out len/off
  caller_code.op(Op::kPush0).op(Op::kPush0);  // in len/off
  caller_code.push(5);                        // value
  caller_code.push_bytes(callee_addr.bytes());
  caller_code.push(100000);
  caller_code.op(Op::kCall);
  caller_code.op(Op::kPop);
  caller_code.push(0x40).op(Op::kMload);
  caller_code.push(0x00).op(Op::kMstore);
  caller_code.push(0x20).push(0x00).op(Op::kReturn);
  EXPECT_EQ(run_for_word(caller_code.build()), U256(0x2A));
  EXPECT_EQ(state_.get_balance(callee_addr), U256(5));
  EXPECT_EQ(state_.get_balance(contract_), U256(95));
}

TEST_F(InterpreterTest, DelegatecallRunsInCallerContext) {
  // Library stores CALLER at slot 0 of *the proxy's* storage.
  Assembler library_code;
  library_code.op(Op::kCaller).push(0).op(Op::kSstore);
  library_code.op(Op::kStop);
  const Address library =
      Address::from_hex("0x00000000000000000000000000000000000000dd");
  state_.set_code(library, library_code.build());

  Assembler proxy;
  proxy.op(Op::kPush0).op(Op::kPush0).op(Op::kPush0).op(Op::kPush0);
  proxy.push_bytes(library.bytes());
  proxy.push(100000);
  proxy.op(Op::kDelegatecall);
  proxy.op(Op::kPop);
  proxy.op(Op::kStop);
  EXPECT_EQ(run(proxy.build()).status, Status::kSuccess);
  // Storage written in the proxy's context; caller seen by the library is
  // the proxy's caller.
  EXPECT_EQ(state_.sload(contract_, U256(0)), caller_.to_word());
  EXPECT_EQ(state_.sload(library, U256(0)), U256());
}

TEST_F(InterpreterTest, FailedNestedCallRollsBackCalleeOnly) {
  // Callee stores then reverts; caller stores before and after.
  Assembler callee;
  callee.push(1).push(0).op(Op::kSstore);
  callee.op(Op::kPush0).op(Op::kPush0).op(Op::kRevert);
  const Address callee_addr =
      Address::from_hex("0x00000000000000000000000000000000000000dd");
  state_.set_code(callee_addr, callee.build());

  Assembler caller_code;
  caller_code.push(7).push(1).op(Op::kSstore);
  caller_code.op(Op::kPush0).op(Op::kPush0).op(Op::kPush0).op(Op::kPush0);
  caller_code.op(Op::kPush0);
  caller_code.push_bytes(callee_addr.bytes());
  caller_code.push(100000);
  caller_code.op(Op::kCall);
  caller_code.op(Op::kPop);
  caller_code.push(9).push(2).op(Op::kSstore);
  caller_code.op(Op::kStop);
  EXPECT_EQ(run(caller_code.build()).status, Status::kSuccess);
  EXPECT_EQ(state_.sload(contract_, U256(1)), U256(7));
  EXPECT_EQ(state_.sload(contract_, U256(2)), U256(9));
  EXPECT_EQ(state_.sload(callee_addr, U256(0)), U256());  // rolled back
}

TEST_F(InterpreterTest, SelfdestructSendsBalance) {
  state_.set_balance(contract_, U256(77));
  Assembler a;
  a.push_bytes(caller_.bytes());
  a.op(Op::kSelfdestruct);
  EXPECT_EQ(run(a.build()).status, Status::kSuccess);
  EXPECT_EQ(state_.get_balance(caller_), U256(77));
  EXPECT_EQ(state_.get_balance(contract_), U256());
  EXPECT_TRUE(state_.get_code(contract_)->empty());
}

TEST_F(InterpreterTest, CreateDeploysRuntimeCode) {
  // init code returning a 1-byte runtime (0x00 = STOP):
  // PUSH1 0x00 PUSH1 0x00 MSTORE8? Simpler: store STOP byte then RETURN(0,1)
  // Runtime "00": MSTORE8(0, 0x00); RETURN(0, 1).
  Assembler init;
  init.push(0x00).push(0).op(Op::kMstore8);
  init.push(1).push(0).op(Op::kReturn);
  const Bytecode init_code = init.build();

  // Deployer: CODECOPY its own tail? Use memory: write init code bytes via
  // helper deploy() on state instead.
  const Address created = state_.deploy(caller_, init_code.bytes());
  EXPECT_FALSE(created.is_zero());
  EXPECT_EQ(state_.get_code(created)->size(), 1u);
  EXPECT_EQ(state_.get_code(created)->bytes()[0], 0x00);
}

TEST_F(InterpreterTest, GasOpcodeReportsRemaining) {
  const U256 gas_left =
      run_for_word(returning([](Assembler& a) { a.op(Op::kGas); }));
  EXPECT_GT(gas_left, U256(990000));
  EXPECT_LT(gas_left, U256(1'000'000));
}

}  // namespace
}  // namespace phishinghook::evm

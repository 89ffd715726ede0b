// Synthetic contract generator: every template family must produce *real*
// EVM code — dispatchers that branch, drains that CALL, proxies that
// DELEGATECALL — validated by executing the generated bytecode on the
// interpreter.
#include <gtest/gtest.h>

#include "chain/state.hpp"
#include "evm/disassembler.hpp"
#include "synth/contract_synthesizer.hpp"
#include "synth/dataset_builder.hpp"

namespace phishinghook::synth {
namespace {

using chain::Month;
using chain::State;
using evm::ExecutionResult;
using evm::Message;
using evm::Op;
using evm::Status;
using evm::U256;

ExecutionResult call_contract(State& state, const Address& contract,
                              std::vector<std::uint8_t> data,
                              const U256& value = U256()) {
  const Address sender =
      Address::from_hex("0x00000000000000000000000000000000000000aa");
  state.set_balance(sender, U256(1'000'000));
  Message msg;
  msg.caller = sender;
  msg.origin = sender;
  msg.code_address = contract;
  msg.storage_address = contract;
  msg.value = value;
  msg.data = std::move(data);
  msg.gas = 5'000'000;
  return state.call(msg, evm::CallKind::kCall, 0);
}

std::vector<std::uint8_t> selector_calldata(std::uint32_t selector) {
  std::vector<std::uint8_t> data(36, 0);
  for (int i = 0; i < 4; ++i) {
    data[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(selector >> (8 * (3 - i)));
  }
  data[35] = 1;  // a small amount argument
  return data;
}

/// Extracts the PUSH4 selectors of a generated dispatcher.
std::vector<std::uint32_t> dispatcher_selectors(const Bytecode& code) {
  std::vector<std::uint32_t> out;
  const evm::Disassembly listing = evm::Disassembler().disassemble(code);
  for (const auto& ins : listing.instructions) {
    if (ins.mnemonic == "PUSH4" && ins.operand.has_value()) {
      out.push_back(static_cast<std::uint32_t>(ins.operand->low64()));
    }
  }
  return out;
}

class SynthExecution : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynthExecution, BenignContractsExecuteEveryFunction) {
  common::Rng rng(GetParam());
  const ContractSynthesizer synth;
  for (int trial = 0; trial < 6; ++trial) {
    const Month month{static_cast<int>(rng.next_below(Month::kCount))};
    const SynthContract contract = synth.benign(month, rng);
    ASSERT_FALSE(contract.phishing);
    State state;
    const Address addr = state.install_code(
        Address::from_hex("0x00000000000000000000000000000000000000bb"),
        contract.runtime);
    for (std::uint32_t selector : dispatcher_selectors(contract.runtime)) {
      const ExecutionResult result =
          call_contract(state, addr, selector_calldata(selector));
      // Every body must terminate deterministically: success or an
      // intentional REVERT (guards) — never a machine fault.
      EXPECT_TRUE(result.status == Status::kSuccess ||
                  result.status == Status::kRevert)
          << evm::status_name(result.status) << " family "
          << family_name(contract.family);
    }
    // Unknown selector reaches the fallback.
    const ExecutionResult fallback =
        call_contract(state, addr, selector_calldata(0xDEADBEEF));
    EXPECT_TRUE(fallback.status == Status::kSuccess ||
                fallback.status == Status::kRevert);
  }
}

TEST_P(SynthExecution, PhishingClaimActuallyDrains) {
  common::Rng rng(GetParam() ^ 0x5117);
  const ContractSynthesizer synth;
  int drains_observed = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Address owner = random_address(rng);
    const SynthContract contract =
        synth.phishing(Month{0}, rng, owner);
    ASSERT_TRUE(contract.phishing);
    State state;
    const Address addr = state.install_code(
        Address::from_hex("0x00000000000000000000000000000000000000bb"),
        contract.runtime);
    state.set_balance(addr, U256(5000));  // victim deposits already inside
    for (std::uint32_t selector : dispatcher_selectors(contract.runtime)) {
      const ExecutionResult result =
          call_contract(state, addr, selector_calldata(selector));
      EXPECT_TRUE(result.status == Status::kSuccess ||
                  result.status == Status::kRevert)
          << evm::status_name(result.status);
    }
    if (!state.get_balance(owner).is_zero()) ++drains_observed;
  }
  // The drain path must actually fire for a solid majority of contracts.
  EXPECT_GE(drains_observed, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthExecution,
                         ::testing::Values(101u, 202u, 303u));

TEST(Synth, MinimalProxyIsBitExactPerImplementation) {
  const ContractSynthesizer synth;
  const Address impl =
      Address::from_hex("0x1111111111111111111111111111111111111111");
  const SynthContract p1 = synth.minimal_proxy(impl, true);
  const SynthContract p2 = synth.minimal_proxy(impl, true);
  EXPECT_EQ(p1.runtime.bytes(), p2.runtime.bytes());
  EXPECT_EQ(p1.runtime.size(), 45u);  // canonical ERC-1167 length
  const Address other =
      Address::from_hex("0x2222222222222222222222222222222222222222");
  EXPECT_NE(synth.minimal_proxy(other, true).runtime.bytes(),
            p1.runtime.bytes());
}

TEST(Synth, MinimalProxyDelegatesToImplementation) {
  // Implementation returns 0x2A for any call; the proxy must forward it.
  Assembler impl_code;
  impl_code.push(0x2A).push(0x00).op(Op::kMstore);
  impl_code.push(0x20).push(0x00).op(Op::kReturn);
  State state;
  const Address deployer =
      Address::from_hex("0x00000000000000000000000000000000000000bb");
  const Address impl = state.install_code(deployer, impl_code.build());
  const ContractSynthesizer synth;
  const Address proxy =
      state.install_code(deployer, synth.minimal_proxy(impl, false).runtime);

  const ExecutionResult result = call_contract(state, proxy, {0x01, 0x02});
  ASSERT_EQ(result.status, Status::kSuccess);
  ASSERT_EQ(result.output.size(), 32u);
  EXPECT_EQ(U256::from_bytes_be(result.output), U256(0x2A));
}

TEST(Synth, ObfuscationRisesOverTheWindow) {
  const ContractSynthesizer synth;
  EXPECT_LT(synth.obfuscation(Month{0}), synth.obfuscation(Month{12}));
  EXPECT_NEAR(synth.obfuscation(Month{0}), synth.config().obfuscation_base,
              1e-12);
}

TEST(Synth, GasDisciplineSeparatesClassesOnAverage) {
  // Benign contracts use the GAS opcode (explicit gas management) more than
  // phishing ones — the signal behind the paper's Fig. 9 SHAP analysis.
  common::Rng rng(77);
  const ContractSynthesizer synth;
  const evm::Disassembler disassembler;
  auto gas_rate = [&](const Bytecode& code) {
    const auto listing = disassembler.disassemble(code);
    std::size_t gas_ops = 0;
    for (const auto& ins : listing.instructions) {
      if (ins.mnemonic == "GAS") ++gas_ops;
    }
    return static_cast<double>(gas_ops) /
           static_cast<double>(listing.instructions.size());
  };
  double benign_rate = 0.0, phishing_rate = 0.0;
  const int n = 30;
  for (int i = 0; i < n; ++i) {
    benign_rate += gas_rate(synth.benign(Month{3}, rng).runtime);
    phishing_rate += gas_rate(
        synth.phishing(Month{3}, rng, random_address(rng)).runtime);
  }
  // Phishing templates forward gas via GAS before CALL, so both classes use
  // it; benign discipline adds *checked* gas reads. The distributions must
  // differ but not trivially separate (paper Fig. 3).
  EXPECT_NE(benign_rate, phishing_rate);
}

TEST(Synth, InitCodeWrapperDeploysRuntime) {
  common::Rng rng(88);
  const ContractSynthesizer synth;
  const SynthContract contract = synth.benign(Month{1}, rng);
  const Bytecode init = ContractSynthesizer::wrap_init_code(contract.runtime);
  State state;
  const Address created = state.deploy(
      Address::from_hex("0x00000000000000000000000000000000000000bb"),
      init.bytes());
  EXPECT_EQ(state.get_code(created)->bytes(), contract.runtime.bytes());
}

TEST(Synth, MetadataTrailerPresent) {
  common::Rng rng(99);
  const ContractSynthesizer synth;
  const SynthContract contract = synth.benign(Month{1}, rng);
  const auto& bytes = contract.runtime.bytes();
  // The CBOR trailer embeds "ipfs" and "solc" markers after an INVALID.
  const std::string blob(bytes.begin(), bytes.end());
  EXPECT_NE(blob.find("ipfs"), std::string::npos);
  EXPECT_NE(blob.find("solc"), std::string::npos);
}

}  // namespace
}  // namespace phishinghook::synth

// Simulated chain: months, deployments, crawl and label service.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/errors.hpp"
#include "chain/explorer.hpp"
#include "synth/assembler.hpp"

namespace phishinghook::chain {
namespace {

using synth::Assembler;
using evm::Op;

TEST(Month, LabelsAcrossTheStudyWindow) {
  EXPECT_EQ(Month{0}.label(), "2023-10");
  EXPECT_EQ(Month{3}.label(), "2024-01");
  EXPECT_EQ(Month{12}.label(), "2024-10");
  EXPECT_THROW(Month{13}.label(), InvalidArgument);
  EXPECT_THROW((Month{-1}.label()), InvalidArgument);
}

TEST(Month, TimestampsAreMonotoneAndMonthSized) {
  for (int m = 0; m + 1 < Month::kCount; ++m) {
    const std::uint64_t delta =
        Month{m + 1}.start_timestamp() - Month{m}.start_timestamp();
    EXPECT_GE(delta, 28u * 86400u) << Month{m}.label();
    EXPECT_LE(delta, 31u * 86400u) << Month{m}.label();
  }
  // 2024-02 (leap year) has 29 days.
  EXPECT_EQ(Month{5}.start_timestamp() - Month{4}.start_timestamp(),
            29u * 86400u);
}

TEST(ChainStore, AdvanceUpdatesBlockContext) {
  ChainStore chain;
  const std::uint64_t block0 = chain.head_block();
  chain.advance_to(Month{2});
  EXPECT_GT(chain.head_block(), block0);
  EXPECT_EQ(chain.head_timestamp(), Month{2}.start_timestamp());
  EXPECT_EQ(chain.state().block().timestamp, chain.head_timestamp());
  EXPECT_THROW(chain.advance_to(Month{1}), InvalidArgument);
}

TEST(ChainStore, RegisterContractRecordsProvenance) {
  ChainStore chain;
  chain.advance_to(Month{4});
  Assembler a;
  a.op(Op::kStop);
  const Address deployer =
      Address::from_hex("0x00000000000000000000000000000000000000aa");
  const ContractRecord& record = chain.register_contract(deployer, a.build());
  EXPECT_EQ(record.month, (Month{4}));
  EXPECT_EQ(record.deployer, deployer);
  EXPECT_FALSE(record.address.is_zero());
  EXPECT_EQ(chain.find(record.address)->block_number, record.block_number);
  EXPECT_EQ(chain.contracts().size(), 1u);
}

TEST(ChainStore, ContractsBetweenFiltersByMonth) {
  ChainStore chain;
  const Address deployer =
      Address::from_hex("0x00000000000000000000000000000000000000aa");
  Assembler a;
  a.op(Op::kStop);
  const auto code = a.build();
  chain.register_contract(deployer, code);  // month 0
  chain.advance_to(Month{5});
  chain.register_contract(deployer, code);
  chain.register_contract(deployer, code);
  EXPECT_EQ(chain.contracts_between(Month{0}, Month{0}).size(), 1u);
  EXPECT_EQ(chain.contracts_between(Month{5}, Month{12}).size(), 2u);
  EXPECT_EQ(chain.contracts_between(Month{0}, Month{12}).size(), 3u);
  EXPECT_TRUE(chain.contracts_between(Month{1}, Month{4}).empty());
}

TEST(Explorer, EthGetCodeMatchesDeployedCode) {
  ChainStore chain;
  Assembler a;
  a.push(0x2A).op(Op::kPop).op(Op::kStop);
  const Address deployer =
      Address::from_hex("0x00000000000000000000000000000000000000aa");
  const ContractRecord& record = chain.register_contract(deployer, a.build());
  const Explorer explorer(chain);
  EXPECT_EQ(explorer.eth_get_code(record.address), a.build().to_hex());
  // Unknown accounts answer "0x" like a real JSON-RPC node.
  EXPECT_EQ(explorer.eth_get_code(Address()), "0x");
}

TEST(Explorer, PhishHackFlagging) {
  ChainStore chain;
  Explorer explorer(chain);
  const Address a =
      Address::from_hex("0x00000000000000000000000000000000000000ab");
  EXPECT_FALSE(explorer.is_flagged_phishing(a));
  explorer.flag(a, ContractFlag::kPhishHack);
  EXPECT_TRUE(explorer.is_flagged_phishing(a));
  EXPECT_EQ(explorer.flag_of(a), ContractFlag::kPhishHack);
  explorer.flag(a, ContractFlag::kNone);
  EXPECT_FALSE(explorer.is_flagged_phishing(a));
}

TEST(Explorer, CrawlReturnsWindowAddresses) {
  ChainStore chain;
  Assembler a;
  a.op(Op::kStop);
  const Address deployer =
      Address::from_hex("0x00000000000000000000000000000000000000aa");
  chain.register_contract(deployer, a.build());
  chain.advance_to(Month{6});
  chain.register_contract(deployer, a.build());
  const Explorer explorer(chain);
  EXPECT_EQ(explorer.crawl(Month{0}, Month{12}).size(), 2u);
  EXPECT_EQ(explorer.crawl(Month{6}, Month{6}).size(), 1u);
}

TEST(State, ExecuteTransactionBumpsNonce) {
  ChainStore chain;
  const Address sender =
      Address::from_hex("0x00000000000000000000000000000000000000aa");
  chain.state().set_balance(sender, evm::U256(1000));
  evm::Message msg;
  msg.caller = sender;
  msg.origin = sender;
  msg.code_address = Address();  // pure transfer to the zero address
  msg.storage_address = Address();
  msg.value = evm::U256(10);
  const auto result = chain.state().execute_transaction(msg);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(chain.state().find(sender)->nonce, 1u);
  EXPECT_EQ(chain.state().get_balance(sender), evm::U256(990));
}

// --- content-addressed code -------------------------------------------------

/// The account's stored hash is the Keccak of the code it points at.
void expect_hash_matches_code(const State& state, const Address& address) {
  const Account* account = state.find(address);
  ASSERT_NE(account, nullptr) << address.to_hex();
  EXPECT_EQ(account->stored_code().hash,
            evm::keccak256(account->code().bytes()))
      << address.to_hex();
}

/// Runs `code` at `at` as a top-level transaction from `from`.
evm::ExecutionResult run_at(State& state, const Address& from,
                            const Address& at, const evm::Bytecode& code) {
  state.set_code(at, code);
  evm::Message msg;
  msg.caller = from;
  msg.origin = from;
  msg.code_address = at;
  msg.storage_address = at;
  return state.execute_transaction(msg);
}

const Address kSender =
    Address::from_hex("0x00000000000000000000000000000000000000aa");
const Address kFactory =
    Address::from_hex("0x00000000000000000000000000000000000000cc");
const Address kVictim =
    Address::from_hex("0x00000000000000000000000000000000000000dd");

/// Init code deploying the 4-byte runtime PUSH1 0x2a POP STOP.
evm::Bytecode child_init() {
  Assembler init;
  init.push(0x602a5000).push(0).op(Op::kMstore);
  init.push(4).push(28).op(Op::kReturn);
  return init.build();
}

/// Factory body: CREATE(child_init()) from memory, then `last`.
evm::Bytecode factory(Op last) {
  const evm::Bytecode init = child_init();
  std::array<std::uint8_t, 32> word{};
  std::copy(init.bytes().begin(), init.bytes().end(), word.begin());
  Assembler a;
  a.push(evm::U256::from_bytes_be(word)).push(0).op(Op::kMstore);
  a.push(init.size()).push(0).push(0).op(Op::kCreate).op(Op::kPop);
  if (last == Op::kRevert) a.push(0).push(0);
  a.op(last);
  return a.build();
}

TEST(StateCode, ClonesShareOneStoredCode) {
  State state;
  Assembler a;
  a.push(0x2A).op(Op::kPop).op(Op::kStop);
  const evm::Bytecode code = a.build();
  state.set_code(kFactory, code);
  state.set_code(kVictim, code);
  const Address installed = state.install_code(kSender, code);
  const Account* first = state.find(kFactory);
  EXPECT_EQ(first->stored_code().code, state.find(kVictim)->stored_code().code);
  EXPECT_EQ(first->stored_code().code,
            state.find(installed)->stored_code().code);
  EXPECT_EQ(first->stored_code().hash, code.code_hash());
  EXPECT_EQ(state.code_hash(kVictim), code.code_hash());
  for (const Address& address : {kFactory, kVictim, installed}) {
    expect_hash_matches_code(state, address);
  }
  // A codeless account stores the empty-code hash, and an unknown one
  // reads as that too.
  state.set_balance(kSender, evm::U256(1));
  expect_hash_matches_code(state, kSender);
  EXPECT_EQ(empty_code_hash(), evm::keccak256(std::span<const std::uint8_t>()));
  EXPECT_EQ(state.code_hash(Address()), empty_code_hash());
}

TEST(StateCode, SetCodeAndSelfdestructKeepHashAndCodeInStep) {
  State state;
  Assembler first;
  first.push(1).op(Op::kPop).op(Op::kStop);
  Assembler second;
  second.push(2).op(Op::kPop).op(Op::kStop);
  state.set_code(kVictim, first.build());
  expect_hash_matches_code(state, kVictim);
  // The same address, new code: a metamorphic redeploy.
  state.set_code(kVictim, second.build());
  expect_hash_matches_code(state, kVictim);
  EXPECT_EQ(state.code_hash(kVictim), second.build().code_hash());

  Assembler destruct;
  destruct.push_bytes(kSender.bytes()).op(Op::kSelfdestruct);
  ASSERT_TRUE(run_at(state, kSender, kVictim, destruct.build()).ok());
  expect_hash_matches_code(state, kVictim);
  EXPECT_TRUE(state.find(kVictim)->code().empty());
  EXPECT_EQ(state.code_hash(kVictim), empty_code_hash());
}

TEST(StateCode, RollbackRestoresHashWithCode) {
  State state;
  // A SELFDESTRUCT inside a frame that then reverts leaves the code, and
  // its hash, as they were.
  Assembler destruct;
  destruct.push_bytes(kSender.bytes()).op(Op::kSelfdestruct);
  state.set_code(kVictim, destruct.build());
  Assembler call_then_revert;
  call_then_revert.op(Op::kPush0).op(Op::kPush0).op(Op::kPush0).op(Op::kPush0);
  call_then_revert.op(Op::kPush0).push_bytes(kVictim.bytes()).push(100000);
  call_then_revert.op(Op::kCall).op(Op::kPop);
  call_then_revert.push(0).push(0).op(Op::kRevert);
  EXPECT_FALSE(run_at(state, kSender, kFactory, call_then_revert.build()).ok());
  EXPECT_EQ(state.code_hash(kVictim), destruct.build().code_hash());
  expect_hash_matches_code(state, kVictim);

  // A CREATE whose frame reverts leaves no account behind; the same CREATE
  // kept deploys the child with the runtime's hash.
  const Address child = evm::derive_contract_address(kFactory, 0);
  EXPECT_FALSE(run_at(state, kSender, kFactory, factory(Op::kRevert)).ok());
  EXPECT_EQ(state.find(child), nullptr);
  expect_hash_matches_code(state, kFactory);
  ASSERT_TRUE(run_at(state, kSender, kFactory, factory(Op::kStop)).ok());
  expect_hash_matches_code(state, child);
  const std::vector<std::uint8_t> runtime = {0x60, 0x2a, 0x50, 0x00};
  EXPECT_EQ(state.find(child)->code().bytes(), runtime);
  EXPECT_EQ(state.code_hash(child), evm::keccak256(runtime));
}

TEST(Explorer, StoredCodeIsTheAccountsOwnCopyAndHash) {
  ChainStore chain;
  Assembler a;
  a.push(0x2A).op(Op::kPop).op(Op::kStop);
  const ContractRecord& record = chain.register_contract(kSender, a.build());
  const Explorer explorer(chain);
  const std::optional<StoredCode> stored =
      explorer.stored_code(record.address, ReadMode::kTry);
  ASSERT_TRUE(stored.has_value());
  // No copy: the pointer is the state's; no rehash: the journal, the
  // account and the read agree.
  EXPECT_EQ(stored->code, chain.state().find(record.address)->stored_code().code);
  EXPECT_EQ(stored->hash, record.code_hash);
  EXPECT_EQ(stored->hash, evm::keccak256(stored->code->bytes()));
  const std::optional<StoredCode> unknown = explorer.stored_code(Address());
  ASSERT_TRUE(unknown.has_value());
  EXPECT_TRUE(unknown->code->empty());
  EXPECT_EQ(unknown->hash, empty_code_hash());
}

}  // namespace
}  // namespace phishinghook::chain

// Keccak-256 test vectors and address derivation.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/errors.hpp"
#include "common/hex.hpp"
#include "evm/address.hpp"
#include "evm/keccak.hpp"

namespace phishinghook::evm {
namespace {

TEST(Keccak, EmptyString) {
  // The canonical Ethereum constant: keccak256("").
  EXPECT_EQ(hash_to_hex(keccak256(std::string())),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak, Abc) {
  EXPECT_EQ(hash_to_hex(keccak256(std::string("abc"))),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak, TransferEventSignature) {
  // keccak256("Transfer(address,address,uint256)") — the ERC-20 topic used
  // throughout Ethereum tooling.
  EXPECT_EQ(hash_to_hex(keccak256(std::string(
                "Transfer(address,address,uint256)"))),
            "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef");
}

TEST(Keccak, MultiBlockInput) {
  // > rate (136 bytes) forces multiple absorb rounds; compare streaming vs
  // one-shot.
  std::string long_input(1000, 'x');
  const Hash256 oneshot = keccak256(long_input);
  Keccak256 streaming;
  for (char c : long_input) {
    const std::uint8_t byte = static_cast<std::uint8_t>(c);
    streaming.update(std::span<const std::uint8_t>(&byte, 1));
  }
  EXPECT_EQ(streaming.finalize(), oneshot);
}

/// Deterministic test input: byte i is (131 i + 7) mod 256.
std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>((i * 131 + 7) & 0xff);
  }
  return bytes;
}

TEST(Keccak, PinnedDigestsAroundTheBlockBoundary) {
  // Digests of pattern_bytes(n) from the byte-at-a-time absorber, pinned
  // so the block-wise absorber stays bit-identical on each side of the
  // 136-byte rate and over many blocks.
  const std::vector<std::pair<std::size_t, std::string>> pinned = {
      {0, "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
      {1, "ee2a4bc7db81da2b7164e56b3649b1e2a09c58c455b15dabddd9146c7582cebc"},
      {135,
       "177d7a0621ad962b4b2566f780a3fd53c60ba8dd5191af15928a21110a58551e"},
      {136,
       "f32872a69dc02e38925627f91d4148d250a8566a159fecd9a609ef99d32505bc"},
      {137,
       "ac49349b2ea643629900a9b4dc527f96ab9cca35422e8c669aea1b0f03c1c32e"},
      {500,
       "23171914359ed32777dd1925cd6ec9e4b2c799cbbe18f0b9b94c70cc192f9485"},
      {4096,
       "b82a280ca4a4b61fe3de4ec04bcf5f851cdc16bdce73a3aa64cd18553cae66ab"},
  };
  for (const auto& [length, digest] : pinned) {
    EXPECT_EQ(hash_to_hex(keccak256(pattern_bytes(length))), digest)
        << "length " << length;
  }
}

TEST(Keccak, UpdateSplitAtEveryOffsetMatchesOneShot) {
  const std::vector<std::uint8_t> input = pattern_bytes(300);
  const Hash256 oneshot = keccak256(input);
  const std::span<const std::uint8_t> all(input);
  for (std::size_t split = 0; split <= input.size(); ++split) {
    Keccak256 hasher;
    hasher.update(all.first(split));
    hasher.update(all.subspan(split));
    EXPECT_EQ(hasher.finalize(), oneshot) << "split at " << split;
  }
}

TEST(Keccak, FinalizeTwiceThrows) {
  Keccak256 hasher;
  (void)hasher.finalize();
  EXPECT_THROW(hasher.finalize(), StateError);
}

TEST(Address, HexRoundTrip) {
  const Address a =
      Address::from_hex("0x279e2f385ce22f88650632d04260382bfb918082");
  EXPECT_EQ(a.to_hex(), "0x279e2f385ce22f88650632d04260382bfb918082");
  EXPECT_FALSE(a.is_zero());
  EXPECT_TRUE(Address().is_zero());
}

TEST(Address, WordRoundTrip) {
  const Address a =
      Address::from_hex("0xb5e7b87e7a84276b13da3f07495e18f3e229d3a0");
  EXPECT_EQ(Address::from_word(a.to_word()), a);
  // High 96 bits are zero.
  EXPECT_TRUE(a.to_word() < U256::pow2(160));
}

TEST(Address, RejectsWrongSize) {
  EXPECT_THROW(Address::from_hex("0x1234"), Error);
}

TEST(Address, CreateDerivationDeterministic) {
  const Address sender =
      Address::from_hex("0xb5e7b87e7a84276b13da3f07495e18f3e229d3a0");
  const Address a1 = derive_contract_address(sender, 0);
  const Address a2 = derive_contract_address(sender, 1);
  EXPECT_NE(a1, a2);
  EXPECT_EQ(a1, derive_contract_address(sender, 0));
  EXPECT_FALSE(a1.is_zero());
}

TEST(Address, Create2DependsOnSaltAndCode) {
  const Address sender =
      Address::from_hex("0xb5e7b87e7a84276b13da3f07495e18f3e229d3a0");
  const std::vector<std::uint8_t> code1 = {0x60, 0x00};
  const std::vector<std::uint8_t> code2 = {0x60, 0x01};
  const Address s0c1 = derive_create2_address(sender, U256(0), code1);
  const Address s1c1 = derive_create2_address(sender, U256(1), code1);
  const Address s0c2 = derive_create2_address(sender, U256(0), code2);
  EXPECT_NE(s0c1, s1c1);
  EXPECT_NE(s0c1, s0c2);
  EXPECT_EQ(s0c1, derive_create2_address(sender, U256(0), code1));
}

}  // namespace
}  // namespace phishinghook::evm

// Keccak-256 (the original pre-SHA3 padding variant used by Ethereum).
//
// Backs the SHA3/KECCAK256 opcode, contract address derivation (CREATE /
// CREATE2), and bit-exact bytecode deduplication in the dataset builder.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace phishinghook::evm {

using Hash256 = std::array<std::uint8_t, 32>;

/// Keccak-256 digest of `data` (Ethereum variant: pad10*1 with 0x01 domain).
Hash256 keccak256(std::span<const std::uint8_t> data);

/// Convenience overload hashing the raw bytes of a string.
Hash256 keccak256(const std::string& data);

/// Lowercase hex (no prefix) of a digest; handy for map keys and logs.
std::string hash_to_hex(const Hash256& hash);

/// Hash functor for digest-keyed maps: a Keccak digest's leading bytes are
/// uniform already, so the first eight are the bucket hash as they stand.
struct DigestHash {
  std::size_t operator()(const Hash256& digest) const {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(digest[static_cast<std::size_t>(i)])
           << (8 * i);
    }
    return static_cast<std::size_t>(v);
  }
};

/// Incremental Keccak-256 for streaming inputs (dataset-scale hashing).
class Keccak256 {
 public:
  Keccak256();
  void update(std::span<const std::uint8_t> data);
  /// Finalizes and returns the digest. The object must not be reused.
  Hash256 finalize();

 private:
  static constexpr std::size_t kRate = 136;  ///< 1088 bits

  /// XORs one kRate-byte block into the state and permutes.
  void absorb_block(const std::uint8_t* block);

  std::array<std::uint64_t, 25> state_{};
  std::array<std::uint8_t, kRate> buffer_{};
  std::size_t buffer_len_ = 0;
  bool finalized_ = false;
};

}  // namespace phishinghook::evm

#include "evm/keccak.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/errors.hpp"
#include "common/hex.hpp"

namespace phishinghook::evm {

namespace {

constexpr int kRounds = 24;

constexpr std::uint64_t kRoundConstants[kRounds] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

// Rho + Pi as one walk over the lane cycle that starts at lane 1: lane
// kPiLane[i] receives the previous lane of the cycle rotated by
// kRhoOffset[i]. The walk is unrolled so every index is a constant and
// the lanes stay in registers.
constexpr int kPiLane[24] = {10, 7,  11, 17, 18, 3, 5,  16, 8,  21, 24, 4,
                             15, 23, 19, 13, 12, 2, 20, 14, 22, 9,  6,  1};
constexpr int kRhoOffset[24] = {1,  3,  6,  10, 15, 21, 28, 36,
                                45, 55, 2,  14, 27, 41, 56, 8,
                                25, 43, 62, 18, 39, 61, 20, 44};

void keccak_f1600(std::array<std::uint64_t, 25>& state) {
  std::uint64_t* a = state.data();
  for (int round = 0; round < kRounds; ++round) {
    // Theta
    const std::uint64_t c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
    const std::uint64_t c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
    const std::uint64_t c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
    const std::uint64_t c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
    const std::uint64_t c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
    const std::uint64_t d0 = c4 ^ std::rotl(c1, 1);
    const std::uint64_t d1 = c0 ^ std::rotl(c2, 1);
    const std::uint64_t d2 = c1 ^ std::rotl(c3, 1);
    const std::uint64_t d3 = c2 ^ std::rotl(c4, 1);
    const std::uint64_t d4 = c3 ^ std::rotl(c0, 1);
    for (int y = 0; y < 25; y += 5) {
      a[y] ^= d0;
      a[y + 1] ^= d1;
      a[y + 2] ^= d2;
      a[y + 3] ^= d3;
      a[y + 4] ^= d4;
    }
    // Rho + Pi
    std::uint64_t carry = a[1];
#pragma GCC unroll 24
    for (int i = 0; i < 24; ++i) {
      const std::uint64_t next = a[kPiLane[i]];
      a[kPiLane[i]] = std::rotl(carry, kRhoOffset[i]);
      carry = next;
    }
    // Chi
    for (int y = 0; y < 25; y += 5) {
      const std::uint64_t b0 = a[y], b1 = a[y + 1], b2 = a[y + 2],
                          b3 = a[y + 3], b4 = a[y + 4];
      a[y] = b0 ^ (~b1 & b2);
      a[y + 1] = b1 ^ (~b2 & b3);
      a[y + 2] = b2 ^ (~b3 & b4);
      a[y + 3] = b3 ^ (~b4 & b0);
      a[y + 4] = b4 ^ (~b0 & b1);
    }
    // Iota
    a[0] ^= kRoundConstants[round];
  }
}

}  // namespace

Keccak256::Keccak256() = default;

void Keccak256::absorb_block(const std::uint8_t* block) {
  for (std::size_t i = 0; i < kRate / 8; ++i) {
    std::uint64_t lane = 0;
    std::memcpy(&lane, block + i * 8, 8);  // little-endian hosts
    state_[i] ^= lane;
  }
  keccak_f1600(state_);
}

void Keccak256::update(std::span<const std::uint8_t> data) {
  if (finalized_) throw StateError("Keccak256::update after finalize");
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();
  if (left == 0) return;
  // Top up a partial block first; whole blocks then absorb straight from
  // the input, and only the tail is buffered.
  if (buffer_len_ != 0) {
    const std::size_t take = std::min(left, kRate - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, in, take);
    buffer_len_ += take;
    in += take;
    left -= take;
    if (buffer_len_ < kRate) return;
    absorb_block(buffer_.data());
    buffer_len_ = 0;
  }
  for (; left >= kRate; in += kRate, left -= kRate) absorb_block(in);
  if (left != 0) std::memcpy(buffer_.data(), in, left);
  buffer_len_ = left;
}

Hash256 Keccak256::finalize() {
  if (finalized_) throw StateError("Keccak256::finalize called twice");
  finalized_ = true;
  // Keccak (pre-SHA3) padding: 0x01 ... 0x80.
  std::memset(buffer_.data() + buffer_len_, 0, kRate - buffer_len_);
  buffer_[buffer_len_] ^= 0x01;
  buffer_[kRate - 1] ^= 0x80;
  absorb_block(buffer_.data());

  Hash256 out;
  for (std::size_t i = 0; i < 4; ++i) {
    std::memcpy(out.data() + i * 8, &state_[i], 8);
  }
  return out;
}

Hash256 keccak256(std::span<const std::uint8_t> data) {
  Keccak256 hasher;
  hasher.update(data);
  return hasher.finalize();
}

Hash256 keccak256(const std::string& data) {
  return keccak256(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

std::string hash_to_hex(const Hash256& hash) {
  return phishinghook::common::hex_encode(hash);
}

}  // namespace phishinghook::evm

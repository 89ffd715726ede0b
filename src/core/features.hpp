// Feature extraction: bytecode -> the four representations the paper's
// model families consume.
//
//  * Opcode histograms (HSC): counts per mnemonic over a vocabulary built
//    on the training set only [54].
//  * R2D2 images (ViT+R2D2, ECA+EfficientNet): raw bytes read as RGB color
//    components, arranged into a square tensor, zero-padded [44].
//  * Frequency images (ViT+Freq): per-instruction pixels whose R/G/B encode
//    the training-set frequency of the mnemonic, operand and gas value.
//  * Token sequences: 3-byte n-grams over the hex string (SCSGuard) and raw
//    byte tokens (GPT-2, T5, ESCORT).
//
// Everything learned (vocabularies, lookup tables) is fit on the training
// split of each fold and only applied to the test split — the paper's "the
// lookup table is constructed exactly once on the entire contract training
// set" discipline.
//
// Fast path (DESIGN.md §10): the mnemonic, static gas cost and immediate
// width are pure functions of the opcode byte, so both histogram and
// frequency transforms are compiled into 256-entry byte->value lookup
// tables at fit time and applied in a single allocation-free pass over the
// raw bytes. The original Disassembly+string implementations are kept as
// `*_legacy` oracles; tests/test_features_fast.cpp asserts bit-identical
// outputs.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "evm/bytecode.hpp"
#include "evm/disassembler.hpp"
#include "ml/matrix.hpp"
#include "ml/models/sequence_model.hpp"
#include "ml/nn/tensor.hpp"

namespace phishinghook::core {

using evm::Bytecode;
using ml::models::TokenSequence;

namespace detail {

/// Hash for U256 operand keys (mixes the four limbs).
struct U256Hash {
  std::size_t operator()(const evm::U256& value) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t limb : value.limbs()) {
      h ^= limb + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace detail

// --- opcode histograms -------------------------------------------------------

/// Mnemonic vocabulary learned from a training corpus.
///
/// Because every opcode byte maps to exactly one mnemonic (defined opcodes
/// via the Shanghai table, undefined bytes via UNKNOWN_0xXX), the fitted
/// vocabulary compiles to a byte->column table and `transform` runs as one
/// pass over raw bytes — no Disassembly, no strings, no per-call
/// allocation beyond the output vector (`transform_into` avoids even that).
class HistogramVocabulary {
 public:
  /// Codes at least this large count opcodes through the banked integer
  /// histogram (SIMD bank merge); smaller codes accumulate doubles
  /// directly — the bank zero/merge overhead would outweigh their walk.
  /// Both paths produce bit-identical counts (exact small integers).
  static constexpr std::size_t kBankedHistogramBytes = 4096;

  HistogramVocabulary() { byte_column_.fill(-1); }

  /// Collects every mnemonic present in `corpus` (first-seen order),
  /// streaming over Disassembler::for_each.
  void fit(const std::vector<const Bytecode*>& corpus);

  /// Restores a fitted vocabulary from its mnemonic list (artifact load
  /// path). Order is the feature order.
  static HistogramVocabulary from_mnemonics(std::vector<std::string> mnemonics);

  /// Count vector (length = vocabulary size); unseen mnemonics are dropped,
  /// as a scikit-learn CountVectorizer would.
  std::vector<double> transform(const Bytecode& code) const;

  /// Allocation-free transform into a caller-reusable buffer of exactly
  /// size() doubles (zeroed by the call). Throws InvalidArgument on a
  /// size mismatch. Safe to call concurrently (read-only state).
  void transform_into(const Bytecode& code, std::span<double> out) const;

  /// The original Disassembly + string-lookup implementation, kept as the
  /// equivalence oracle for the LUT fast path.
  std::vector<double> transform_legacy(const Bytecode& code) const;

  /// Histogram matrix for a corpus; rows are independent and processed in
  /// parallel on the common::ThreadPool (bit-identical at every thread
  /// count — each row is written by exactly one task).
  ml::Matrix transform_all(const std::vector<const Bytecode*>& corpus) const;

  const std::vector<std::string>& mnemonics() const { return mnemonics_; }
  std::size_t size() const { return mnemonics_.size(); }

 private:
  /// Recomputes byte_column_ from index_ (fit and from_mnemonics paths).
  void rebuild_lut();

  std::vector<std::string> mnemonics_;
  std::map<std::string, std::size_t> index_;
  /// byte -> feature column, -1 when the byte's mnemonic is out of
  /// vocabulary.
  std::array<std::int32_t, 256> byte_column_{};
};

// --- R2D2 images --------------------------------------------------------------

/// Bytes -> [3, side, side] tensor: consecutive bytes fill the R, G and B
/// components of consecutive pixels; shorter codes are zero-padded, longer
/// ones truncated (the paper pads to 224x224; side is CPU-scaled here).
/// Values are normalized to [0, 1].
ml::nn::Tensor r2d2_image(const Bytecode& code, std::size_t side);

// --- frequency images ----------------------------------------------------------

/// The ViT+Freq lookup table: normalized appearance frequencies of
/// mnemonics, operand values and gas costs over the training set.
///
/// Fast path: the R (mnemonic) and B (gas) channels are pure functions of
/// the opcode byte and compile to 256-entry intensity tables; the G
/// (operand) channel is keyed by the PUSH immediate *value* instead of its
/// hex string. fit() additionally interns the per-code pixel stream for
/// the fitted corpus, so transform() on a training code is a cache copy
/// instead of a re-disassembly.
class FrequencyEncoder {
 public:
  void fit(const std::vector<const Bytecode*>& corpus);

  /// Per-instruction pixels: R = mnemonic frequency, G = operand frequency,
  /// B = gas frequency; zero-padded / truncated to [3, side, side].
  ml::nn::Tensor transform(const Bytecode& code, std::size_t side) const;

  /// The original Disassembly + string-lookup implementation (oracle).
  ml::nn::Tensor transform_legacy(const Bytecode& code,
                                  std::size_t side) const;

 private:
  double mnemonic_freq(std::string_view mnemonic) const;
  double operand_freq(const std::string& operand_key) const;
  double gas_freq(std::uint32_t gas) const;
  /// G-channel intensity of one streamed instruction (fast path).
  double operand_channel(const evm::InstructionView& view) const;

  evm::Disassembler disassembler_;
  // Legacy string/gas-keyed tables (oracle + any external consumers).
  std::map<std::string, double> mnemonic_table_;
  std::map<std::string, double> operand_table_;
  std::map<std::uint32_t, double> gas_table_;
  // Compiled fast-path state.
  std::array<double, 256> mnemonic_lut_{};  ///< byte -> R intensity
  std::array<double, 256> gas_lut_{};       ///< byte -> B intensity
  std::unordered_map<evm::U256, double, detail::U256Hash>
      operand_value_table_;  ///< PUSH immediate value -> G intensity
  double dash_freq_ = 0.0;   ///< G intensity of operand-less instructions
  /// Interned per-code pixel streams for the fitted corpus, keyed by code
  /// hash (computed once per fit pass).
  std::unordered_map<evm::Hash256, std::vector<std::array<float, 3>>,
                     evm::DigestHash>
      fit_cache_;
};

// --- token sequences ------------------------------------------------------------

/// SCSGuard's n-gram tokenizer: the bytecode hex string is read as
/// non-overlapping 6-hex-character (3-byte) grams; the `vocab_size - 1`
/// most frequent grams in the training set get ids 1.., everything else
/// maps to the UNK id 0.
class NgramTokenizer {
 public:
  explicit NgramTokenizer(std::size_t vocab_size = 4096)
      : vocab_size_(vocab_size) {}

  void fit(const std::vector<const Bytecode*>& corpus);
  TokenSequence transform(const Bytecode& code) const;
  std::size_t vocab_size() const { return vocab_size_; }

 private:
  static std::uint32_t gram_at(const Bytecode& code, std::size_t offset);

  std::size_t vocab_size_;
  std::unordered_map<std::uint32_t, std::size_t> gram_ids_;
};

/// Raw byte tokens (GPT-2 / T5 / ESCORT): ids 0..255; empty codes yield a
/// single pad token 256.
TokenSequence byte_tokens(const Bytecode& code);

/// Vocabulary size for byte tokens (256 + 1 pad).
constexpr std::size_t kByteVocab = 257;

}  // namespace phishinghook::core

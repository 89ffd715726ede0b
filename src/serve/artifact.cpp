#include "serve/artifact.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/binary_io.hpp"
#include "core/model_registry.hpp"
#include "serve/cascade.hpp"

namespace phishinghook::serve {

namespace {

// A vocabulary larger than the full Shanghai opcode set by a wide margin
// signals corruption, not a real model.
constexpr std::uint64_t kMaxVocabulary = 1 << 16;
// No sane cascade chains more stages than model families exist; a large
// count here is a corrupt length prefix, and it also bounds the recursion
// depth of nested artifacts.
constexpr std::uint64_t kMaxCascadeStages = 16;

void write_header(std::ostream& out) {
  out.write(kArtifactMagic, sizeof(kArtifactMagic));
  common::write_u32(out, kArtifactVersion);
}

/// Validates magic and version; returns the version (1 or 2).
std::uint32_t read_header(std::istream& in) {
  char magic[sizeof(kArtifactMagic)];
  in.read(magic, sizeof(magic));
  common::check_stream(in, "magic");
  if (!std::equal(std::begin(magic), std::end(magic),
                  std::begin(kArtifactMagic))) {
    throw ParseError("not a PhishingHook model artifact (bad magic)");
  }
  const std::uint32_t version = common::read_u32(in);
  if (version != 1 && version != kArtifactVersion) {
    throw ParseError("unsupported artifact version " +
                     std::to_string(version));
  }
  return version;
}

void save_hist_payload(std::ostream& out,
                       const core::HistogramAdapter& adapter) {
  common::write_string(out, adapter.name());
  const auto& mnemonics = adapter.vocabulary().mnemonics();
  common::write_u64(out, mnemonics.size());
  for (const std::string& mnemonic : mnemonics) {
    common::write_string(out, mnemonic);
  }
  adapter.model().save(out);
}

std::unique_ptr<core::HistogramAdapter> load_hist_payload(std::istream& in) {
  std::string name = common::read_string(in);
  const std::uint64_t vocab_size = common::read_u64(in);
  if (vocab_size > kMaxVocabulary) {
    throw ParseError("artifact vocabulary size out of range");
  }
  std::vector<std::string> mnemonics;
  mnemonics.reserve(vocab_size);
  for (std::uint64_t i = 0; i < vocab_size; ++i) {
    mnemonics.push_back(common::read_string(in, 256));
  }
  std::unique_ptr<ml::TabularClassifier> model =
      ml::TabularClassifier::load(in);
  return std::make_unique<core::HistogramAdapter>(
      std::move(model), std::move(name),
      core::HistogramVocabulary::from_mnemonics(std::move(mnemonics)));
}

}  // namespace

void save_scorer_artifact(std::ostream& out, const ml::Scorer& scorer) {
  write_header(out);
  if (const auto* hist =
          dynamic_cast<const core::HistogramAdapter*>(&scorer)) {
    common::write_string(out, kArtifactFamilyHistogram);
    save_hist_payload(out, *hist);
  } else if (const auto* cascade =
                 dynamic_cast<const CascadeScorer*>(&scorer)) {
    common::write_string(out, kArtifactFamilyCascade);
    common::write_double(out, cascade->config().lo);
    common::write_double(out, cascade->config().hi);
    common::write_u64(out, cascade->stage_count());
    // Each stage is a complete nested artifact (header + family + payload),
    // so any persistable family can sit at any stage and the reader needs
    // no per-stage framing of its own.
    for (std::size_t s = 0; s < cascade->stage_count(); ++s) {
      save_scorer_artifact(out, cascade->stage(s));
    }
  } else {
    throw StateError("no artifact format for scorer family: " +
                     scorer.name());
  }
  if (!out) throw Error("artifact write failed");
}

std::unique_ptr<ml::Scorer> load_scorer_artifact(std::istream& in) {
  const std::uint32_t version = read_header(in);
  if (version == 1) {
    // Pre-family layout: the payload is implicitly the histogram family.
    return load_hist_payload(in);
  }
  const std::string family = common::read_string(in, 64);
  if (family == kArtifactFamilyHistogram) {
    return load_hist_payload(in);
  }
  if (family == kArtifactFamilyCascade) {
    CascadeConfig config;
    config.lo = common::read_double(in);
    config.hi = common::read_double(in);
    const std::uint64_t stage_count = common::read_u64(in);
    if (stage_count == 0 || stage_count > kMaxCascadeStages) {
      throw ParseError("cascade artifact stage count out of range");
    }
    std::vector<std::unique_ptr<ml::Scorer>> stages;
    stages.reserve(stage_count);
    for (std::uint64_t s = 0; s < stage_count; ++s) {
      stages.push_back(load_scorer_artifact(in));
    }
    try {
      return std::make_unique<CascadeScorer>(std::move(stages), config);
    } catch (const InvalidArgument& e) {
      // A structurally valid file with a nonsense band (NaN, outside
      // [0, 1]) is corruption from the reader's point of view.
      throw ParseError(std::string("cascade artifact rejected: ") + e.what());
    }
  }
  throw ParseError("unknown artifact family \"" + family + "\"");
}

void save_scorer_artifact_file(const std::filesystem::path& path,
                               const ml::Scorer& scorer) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw NotFound("cannot open artifact for write: " + path.string());
  save_scorer_artifact(out, scorer);
}

std::unique_ptr<ml::Scorer> load_scorer_artifact_file(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw NotFound("cannot open artifact: " + path.string());
  return load_scorer_artifact(in);
}

}  // namespace phishinghook::serve

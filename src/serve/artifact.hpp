// Model artifact persistence — "train once, serve many".
//
// The seed pipeline retrains every detector from scratch in-process on each
// start; a real-time scorer (§IV-F: users sign within seconds) cannot
// afford that. An *artifact* is a fitted ml::Scorer frozen to disk under a
// magic header, format version, and a *family tag* naming the payload
// layout:
//
//   "hist"     core::HistogramAdapter — the HistogramVocabulary (feature
//              order) plus the inner TabularClassifier via the ml
//              save/load hooks
//   "cascade"  serve::CascadeScorer — the uncertainty band plus each stage
//              as a full nested artifact, so any persistable family can sit
//              at any stage
//
// Version 1 artifacts predate the family tag and are read as implicit
// "hist"; writers always emit version 2. Families without a persistence
// format (the raw-bytecode sequence/vision adapters hold fitted encoder
// state the ml layer does not serialize yet) are rejected at save time
// with StateError.
//
// Guarantee: a saved-then-loaded artifact reproduces the in-memory model's
// scores *bit-identically* (doubles travel as raw IEEE-754 bits; the
// cascade band and stage order round-trip exactly).
#pragma once

#include <filesystem>
#include <iosfwd>
#include <memory>
#include <string>

#include "ml/scorer.hpp"

namespace phishinghook::serve {

/// First bytes of every artifact. Version bumps on any layout change;
/// readers reject versions they do not know.
inline constexpr char kArtifactMagic[8] = {'P', 'H', 'O', 'O',
                                           'K', 'M', 'D', 'L'};
inline constexpr std::uint32_t kArtifactVersion = 2;

/// Family tags written after the header (version >= 2).
inline constexpr char kArtifactFamilyHistogram[] = "hist";
inline constexpr char kArtifactFamilyCascade[] = "cascade";

/// Writes any persistable scorer ("hist" adapter or a cascade over
/// persistable stages) to `out`. Throws StateError if the scorer's family
/// has no artifact format or its inner model is unfitted/unsupported.
void save_scorer_artifact(std::ostream& out, const ml::Scorer& scorer);

/// Reads an artifact of any family back into a ready-to-score scorer.
/// Throws ParseError on bad magic, unknown version/family, or corrupt
/// payload.
std::unique_ptr<ml::Scorer> load_scorer_artifact(std::istream& in);

/// File convenience wrappers (binary mode; NotFound if unreadable).
void save_scorer_artifact_file(const std::filesystem::path& path,
                               const ml::Scorer& scorer);
std::unique_ptr<ml::Scorer> load_scorer_artifact_file(
    const std::filesystem::path& path);

}  // namespace phishinghook::serve

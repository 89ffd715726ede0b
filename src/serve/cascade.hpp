// Cost-aware model cascade: a cheap stage-0 scorer answers every row, and
// only rows whose stage-0 probability lands inside a configurable
// uncertainty band escalate to heavier stages.
//
// The paper's Fig. 7 cost hierarchy (LMs >> VMs >> HSCs) is the whole
// motivation: CatBoost through the flat-tree path scores millions of rows
// per second, while a sequence model manages thousands — but the heavy
// models buy accuracy exactly on the contracts the HSC is unsure about.
// The cascade serves the easy majority at HSC speed and spends the heavy
// budget only where the cheap model's probability is non-committal.
//
// Escalation semantics (pinned by test_cascade):
//   * A row escalates from stage s to stage s+1 iff its stage-s
//     probability p satisfies lo <= p <= hi — both ends inclusive. The
//     decision is a pure function of the probability, never of timing or
//     batch composition, which is what makes cascade output bit-identical
//     across any worker count or batching policy upstream.
//   * lo > hi is the "cascade disabled" configuration: nothing escalates
//     and the cascade is bit-identical to stage 0 alone.
//   * A row's final score is the output of the deepest stage that scored
//     it; its ScoredRow::stage records that stage.
//
// Fault isolation: a throwing heavy stage must not poison the batch — the
// rows it was supposed to refine keep the last healthy stage's
// probability, marked degraded (ScoredRow::degraded -> ScoreStatus::
// kDegraded upstream, and the engine refuses to cache them so the next
// request retries the heavy stage). Only a stage-0 failure propagates as
// an exception, because then there is no probability to fall back to.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/scorer.hpp"
#include "obs/metrics.hpp"

namespace phishinghook::serve {

struct CascadeConfig {
  /// Inclusive uncertainty band: a row escalates while its probability is
  /// in [lo, hi]. lo > hi disables escalation entirely (the documented
  /// "single model" configuration). Both must be finite; when lo <= hi
  /// they must lie in [0, 1].
  double lo = 0.35;
  double hi = 0.65;

  bool enabled() const { return lo <= hi; }
  bool in_band(double p) const { return p >= lo && p <= hi; }
};

/// Point-in-time counters for one cascade stage (see CascadeScorer::stats).
struct CascadeStageStats {
  std::string model;            ///< name of the scorer behind this stage
  std::uint64_t rows = 0;       ///< rows this stage scored
  std::uint64_t escalations = 0;  ///< rows handed *into* this stage (0 for stage 0)
  std::uint64_t faults = 0;     ///< score_batch invocations that threw
};

struct CascadeStats {
  std::vector<CascadeStageStats> stages;
  std::uint64_t rows_total = 0;        ///< rows through stage 0
  std::uint64_t escalations_total = 0;  ///< rows that left stage 0
  std::uint64_t degraded_total = 0;    ///< rows delivered on a fallback score

  /// Fraction of rows that escalated past stage 0 (0 when idle).
  double escalation_rate() const {
    return rows_total == 0 ? 0.0
                           : static_cast<double>(escalations_total) /
                                 static_cast<double>(rows_total);
  }
};

/// Staged escalation over owned ml::Scorer stages; itself an ml::Scorer,
/// so the scoring engine, the artifact path and the RPC front end treat a
/// cascade exactly like a single model.
class CascadeScorer final : public ml::Scorer {
 public:
  /// Takes ownership of `stages` (stage 0 first, cheapest to heaviest).
  /// Throws InvalidArgument on an empty stage list, a null stage, or a
  /// malformed band.
  CascadeScorer(std::vector<std::unique_ptr<ml::Scorer>> stages,
                CascadeConfig config = {});

  void score_batch(const ml::BytecodeBatchView& view,
                   std::span<ml::ScoredRow> out) override;

  std::string name() const override;
  std::size_t stage_count() const override { return stages_.size(); }
  std::string stage_model(std::size_t index) const override;

  /// Stage 0's compiled ensemble — the hot path every row goes through.
  const ml::FlatTreeEnsemble* flat_ensemble() const override {
    return stages_.front()->flat_ensemble();
  }

  /// Moves the hot-path instruments from the cascade's private registry
  /// onto `registry`, carrying every count over:
  ///   serve_cascade_stage_rows{stage,model}      rows scored per stage
  ///   serve_cascade_escalations{stage,model}     rows escalated into stage
  ///   serve_cascade_stage_faults{stage,model}    throwing invocations
  ///   serve_cascade_degraded_rows                fallback-scored rows
  ///   serve_cascade_stage_us{stage,model}        per-invocation stage time
  /// Stage-time samples taken before the bind stay behind. Must not race
  /// score_batch (the engine binds before its workers start).
  void bind_metrics(obs::MetricsRegistry& registry) override;

  /// Publishes the serve_cascade_escalation_rate gauge (pre-scrape hook).
  void export_metrics(obs::MetricsRegistry& registry) const override;

  const CascadeConfig& config() const { return config_; }
  ml::Scorer& stage(std::size_t index) { return *stages_.at(index); }
  const ml::Scorer& stage(std::size_t index) const {
    return *stages_.at(index);
  }

  /// Reads the counters, wherever they are registered.
  CascadeStats stats() const;

 private:
  struct StageInstruments {
    obs::Counter rows;
    obs::Counter escalations;
    obs::Counter faults;
    obs::LatencyHistogram* stage_us;
  };
  struct Instruments {
    std::vector<StageInstruments> stages;  ///< one per stage
    obs::Counter degraded;
  };

  /// Registers (or finds) every instrument on `registry`.
  Instruments register_on(obs::MetricsRegistry& registry) const;

  std::vector<std::unique_ptr<ml::Scorer>> stages_;
  CascadeConfig config_;
  /// Holds the instruments until bind_metrics moves them, so stats() works
  /// on a cascade no engine serves.
  std::unique_ptr<obs::MetricsRegistry> own_registry_ =
      std::make_unique<obs::MetricsRegistry>();
  /// The registry metrics_ live on.
  obs::MetricsRegistry* registry_ = own_registry_.get();
  Instruments metrics_;
};

}  // namespace phishinghook::serve

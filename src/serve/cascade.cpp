#include "serve/cascade.hpp"

#include <cmath>

#include "common/errors.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace phishinghook::serve {

CascadeScorer::CascadeScorer(std::vector<std::unique_ptr<ml::Scorer>> stages,
                             CascadeConfig config)
    : stages_(std::move(stages)), config_(config) {
  if (stages_.empty()) {
    throw InvalidArgument("cascade needs at least one stage");
  }
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (!stages_[s]) {
      throw InvalidArgument("cascade stage " + std::to_string(s) + " is null");
    }
  }
  if (!std::isfinite(config_.lo) || !std::isfinite(config_.hi)) {
    throw InvalidArgument("cascade band must be finite");
  }
  if (config_.enabled() &&
      (config_.lo < 0.0 || config_.hi > 1.0)) {
    throw InvalidArgument("cascade band [" + std::to_string(config_.lo) +
                          ", " + std::to_string(config_.hi) +
                          "] outside [0, 1]");
  }
  metrics_ = register_on(*registry_);
}

std::string CascadeScorer::name() const {
  std::string out = "cascade(";
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (s != 0) out += " -> ";
    out += stages_[s]->name();
  }
  out += ")";
  return out;
}

std::string CascadeScorer::stage_model(std::size_t index) const {
  return stages_.at(index)->name();
}

void CascadeScorer::score_batch(const ml::BytecodeBatchView& view,
                                std::span<ml::ScoredRow> out) {
  if (out.size() != view.size()) {
    throw InvalidArgument("cascade score_batch: out span size " +
                          std::to_string(out.size()) + " != view size " +
                          std::to_string(view.size()));
  }
  if (view.empty()) return;

  // Stage 0 scores everything. A failure here propagates: there is no
  // earlier probability to degrade to.
  {
    obs::ScopedSpan span("cascade.stage", stages_[0]->name().c_str());
    const common::Timer timer;
    stages_[0]->score_batch(view, out);
    StageInstruments& st = metrics_.stages[0];
    st.stage_us->record(timer.seconds() * 1e6);
    st.rows.inc(view.size());
  }
  for (std::size_t i = 0; i < view.size(); ++i) {
    // Whatever a nested scorer reported, rows leaving stage 0 of *this*
    // cascade carry this cascade's stage numbering.
    out[i].stage = 0;
    out[i].degraded = false;
  }
  if (!config_.enabled() || stages_.size() == 1) return;

  // Escalate while the current probability stays inside the band. The
  // decision reads only the row's own probability, so results cannot
  // depend on batch composition, worker count, or timing.
  std::vector<std::size_t> uncertain;
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (config_.in_band(out[i].probability)) uncertain.push_back(i);
  }

  std::vector<const evm::Bytecode*> sub_codes;
  std::vector<ml::ScoredRow> sub_rows;
  for (std::size_t s = 1; s < stages_.size() && !uncertain.empty(); ++s) {
    sub_codes.clear();
    sub_codes.reserve(uncertain.size());
    for (std::size_t idx : uncertain) sub_codes.push_back(view[idx]);
    sub_rows.assign(uncertain.size(), ml::ScoredRow{});

    StageInstruments& st = metrics_.stages[s];
    st.escalations.inc(uncertain.size());

    const common::Timer timer;
    bool scored = false;
    try {
      obs::ScopedSpan span("cascade.stage", stages_[s]->name().c_str());
      stages_[s]->score_batch(sub_codes, sub_rows);
      scored = true;
    } catch (...) {
      // Heavy-stage fault: the escalated rows keep the probability the
      // last healthy stage gave them, flagged degraded so the caller can
      // tell a refined score from a fallback (and skip caching it).
      st.faults.inc();
      metrics_.degraded.inc(uncertain.size());
      for (std::size_t idx : uncertain) out[idx].degraded = true;
    }
    st.stage_us->record(timer.seconds() * 1e6);
    if (!scored) return;  // deeper stages have nothing healthy to refine

    st.rows.inc(uncertain.size());
    std::vector<std::size_t> still_uncertain;
    for (std::size_t u = 0; u < uncertain.size(); ++u) {
      const std::size_t idx = uncertain[u];
      out[idx].probability = sub_rows[u].probability;
      out[idx].stage = static_cast<std::uint32_t>(s);
      out[idx].degraded = false;
      if (config_.in_band(out[idx].probability)) {
        still_uncertain.push_back(idx);
      }
    }
    uncertain = std::move(still_uncertain);
  }
}

CascadeScorer::Instruments CascadeScorer::register_on(
    obs::MetricsRegistry& registry) const {
  registry.set_help("serve_cascade_stage_rows",
                    "Rows scored by each cascade stage");
  registry.set_help("serve_cascade_escalations",
                    "Rows escalated into each cascade stage");
  registry.set_help("serve_cascade_stage_faults",
                    "Throwing score_batch invocations per cascade stage");
  registry.set_help("serve_cascade_degraded_rows",
                    "Rows delivered on a fallback score after a heavy-stage "
                    "fault");
  registry.set_help("serve_cascade_stage_us",
                    "Wall time per cascade-stage invocation");
  registry.set_help("serve_cascade_escalation_rate",
                    "Fraction of rows escalated past stage 0");
  Instruments out;
  out.stages.reserve(stages_.size());
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const std::string labels =
        obs::label("stage", std::to_string(s)) + "," +
        obs::label("model", stages_[s]->name());
    out.stages.push_back(StageInstruments{
        registry.counter("serve_cascade_stage_rows", labels),
        registry.counter("serve_cascade_escalations", labels),
        registry.counter("serve_cascade_stage_faults", labels),
        &registry.histogram("serve_cascade_stage_us", labels)});
  }
  out.degraded = registry.counter("serve_cascade_degraded_rows");
  return out;
}

void CascadeScorer::bind_metrics(obs::MetricsRegistry& registry) {
  // Re-binding to the same registry would add the counts to themselves.
  if (&registry != registry_) {
    Instruments bound = register_on(registry);
    for (std::size_t s = 0; s < stages_.size(); ++s) {
      const StageInstruments& from = metrics_.stages[s];
      StageInstruments& to = bound.stages[s];
      to.rows.inc(from.rows.value());
      to.escalations.inc(from.escalations.value());
      to.faults.inc(from.faults.value());
    }
    bound.degraded.inc(metrics_.degraded.value());
    metrics_ = std::move(bound);
    registry_ = &registry;
  }
  // Nested composite stages get their instruments on the same registry.
  for (const std::unique_ptr<ml::Scorer>& stage : stages_) {
    stage->bind_metrics(registry);
  }
}

void CascadeScorer::export_metrics(obs::MetricsRegistry& registry) const {
  registry.gauge("serve_cascade_escalation_rate")
      .set(stats().escalation_rate());
  for (const std::unique_ptr<ml::Scorer>& stage : stages_) {
    stage->export_metrics(registry);
  }
}

CascadeStats CascadeScorer::stats() const {
  CascadeStats out;
  out.stages.reserve(stages_.size());
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const StageInstruments& st = metrics_.stages[s];
    out.stages.push_back(CascadeStageStats{stages_[s]->name(), st.rows.value(),
                                           st.escalations.value(),
                                           st.faults.value()});
  }
  out.rows_total = out.stages.front().rows;
  // "Escalated" means left stage 0 — rows entering stage 1. Deeper hops
  // are visible per stage but would double-count rows here.
  if (out.stages.size() > 1) out.escalations_total = out.stages[1].escalations;
  out.degraded_total = metrics_.degraded.value();
  return out;
}

}  // namespace phishinghook::serve

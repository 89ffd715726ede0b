// Per-layer timing from outside the program: decorators around the public
// layer interfaces plus an in-memory span log written out as Chrome-trace
// JSON (loadable in Perfetto) when the run ends.
//
// Only the traced run installs these. The untraced run, which gives every
// end-to-end number, serves through the bare stack.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chain/explorer.hpp"
#include "ml/scorer.hpp"

namespace perfbench {

namespace evm = phishinghook::evm;
namespace chain = phishinghook::chain;
namespace ml = phishinghook::ml;

/// Microseconds on the steady clock since a process-wide epoch: the time
/// base of every span.
double trace_us(std::chrono::steady_clock::time_point when);
inline double now_us() { return trace_us(std::chrono::steady_clock::now()); }

/// Small stable number for the calling thread (trace lanes).
std::uint32_t thread_tag();

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint32_t tid = 0;
  std::uint64_t request_id = 0;  ///< client request this span belongs to
  std::uint64_t rows = 0;        ///< batch-level spans: rows in the call
  evm::Address address;          ///< fetch spans: what was fetched
};

/// Spans kept in memory until the run ends. Each name keeps at most
/// kCapPerName spans (the rest are counted) so a long run stays small.
class SpanLog {
 public:
  static constexpr std::size_t kCapPerName = 20000;

  void add(const Span& span);
  void clear();
  std::vector<Span> snapshot() const;
  std::uint64_t dropped() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::pair<const char*, std::size_t>> per_name_;
  std::uint64_t dropped_ = 0;
};

/// Busy time and volume of one decorated scorer.
class ScorerProbe {
 public:
  void record(std::size_t rows, double us);
  void reset();
  std::uint64_t calls() const;
  std::uint64_t rows() const;
  double busy_us() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t calls_ = 0;
  std::uint64_t rows_ = 0;
  double busy_us_ = 0.0;
};

/// Durations of every code fetch.
class FetchProbe {
 public:
  void record(double us);
  void reset();
  std::vector<double> samples() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
};

/// ml::Scorer decorator: times each score_batch and forwards everything
/// else, so rows come back bit-identical to the wrapped scorer's.
class TimedScorer final : public ml::Scorer {
 public:
  /// Owning form (a cascade stage handed to CascadeScorer).
  TimedScorer(std::unique_ptr<ml::Scorer> inner, const char* span_name,
              ScorerProbe& probe, SpanLog& log);
  /// Borrowing form (the cascade itself); `inner` must outlive this.
  TimedScorer(ml::Scorer& inner, const char* span_name, ScorerProbe& probe,
              SpanLog& log);

  void score_batch(const ml::BytecodeBatchView& view,
                   std::span<ml::ScoredRow> out) override;
  std::string name() const override { return inner_->name(); }
  std::string version() const override { return inner_->version(); }
  std::size_t stage_count() const override { return inner_->stage_count(); }
  std::string stage_model(std::size_t index) const override {
    return inner_->stage_model(index);
  }
  const ml::FlatTreeEnsemble* flat_ensemble() const override {
    return inner_->flat_ensemble();
  }
  void bind_metrics(phishinghook::obs::MetricsRegistry& registry) override {
    inner_->bind_metrics(registry);
  }
  void export_metrics(
      phishinghook::obs::MetricsRegistry& registry) const override {
    inner_->export_metrics(registry);
  }

 private:
  std::unique_ptr<ml::Scorer> owned_;
  ml::Scorer* inner_;
  const char* span_name_;
  ScorerProbe* probe_;
  SpanLog* log_;
};

/// chain::Explorer decorator timing the code-fetch path. It wraps the
/// synchronized view, so on stream_follow a fetch includes the wait for
/// the chain lock the miner holds.
class TimedExplorer final : public chain::Explorer {
 public:
  TimedExplorer(const chain::Explorer& inner, FetchProbe& probe, SpanLog& log)
      : chain::Explorer(inner.chain()),
        inner_(&inner),
        probe_(&probe),
        log_(&log) {}

  std::string eth_get_code(const evm::Address& address) const override;
  evm::Bytecode get_code(const evm::Address& address) const override;
  chain::ContractFlag flag_of(const evm::Address& address) const override {
    return inner_->flag_of(address);
  }
  std::vector<evm::Address> crawl(chain::Month from,
                                  chain::Month to) const override {
    return inner_->crawl(from, to);
  }
  chain::ChainTail crawl_after(std::uint64_t after_block) const override {
    return inner_->crawl_after(after_block);
  }
  std::uint64_t head_block() const override { return inner_->head_block(); }
  std::size_t flagged_count() const override {
    return inner_->flagged_count();
  }

 private:
  void note(const evm::Address& address, double start_us) const;

  const chain::Explorer* inner_;
  FetchProbe* probe_;
  SpanLog* log_;
};

/// One row a client request asked for, with the request's interval: fetch
/// spans link to the request whose interval holds the fetch.
struct RequestRow {
  evm::Address address;
  std::uint64_t request_id = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Sets request_id on every fetch span whose address and start time fall
/// inside one of `rows`.
void link_fetches(std::vector<Span>& spans, const std::vector<RequestRow>& rows);

/// Writes `spans` as Chrome-trace JSON ("X" complete events). Returns false
/// when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

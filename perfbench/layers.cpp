#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace perfbench {

double trace_us(std::chrono::steady_clock::time_point when) {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(when - epoch).count();
}

std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tag = next.fetch_add(1);
  return tag;
}

// ---- SpanLog ---------------------------------------------------------------

void SpanLog::add(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::find_if(per_name_.begin(), per_name_.end(),
                         [&](const auto& entry) {
                           return std::strcmp(entry.first, span.name) == 0;
                         });
  if (it == per_name_.end()) {
    per_name_.emplace_back(span.name, 0);
    it = per_name_.end() - 1;
  }
  if (it->second >= kCapPerName) {
    ++dropped_;
    return;
  }
  ++it->second;
  spans_.push_back(span);
}

void SpanLog::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  per_name_.clear();
  dropped_ = 0;
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

// ---- probes ----------------------------------------------------------------

void ScorerProbe::record(std::size_t rows, double us) {
  std::lock_guard<std::mutex> lock(mutex_);
  calls_ += 1;
  rows_ += rows;
  busy_us_ += us;
}

void ScorerProbe::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  calls_ = 0;
  rows_ = 0;
  busy_us_ = 0.0;
}

std::uint64_t ScorerProbe::calls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return calls_;
}

std::uint64_t ScorerProbe::rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_;
}

double ScorerProbe::busy_us() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return busy_us_;
}

void FetchProbe::record(double us) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back(us);
}

void FetchProbe::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.clear();
}

std::vector<double> FetchProbe::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

// ---- decorators ------------------------------------------------------------

TimedScorer::TimedScorer(std::unique_ptr<ml::Scorer> inner,
                         const char* span_name, ScorerProbe& probe,
                         SpanLog& log)
    : owned_(std::move(inner)),
      inner_(owned_.get()),
      span_name_(span_name),
      probe_(&probe),
      log_(&log) {}

TimedScorer::TimedScorer(ml::Scorer& inner, const char* span_name,
                         ScorerProbe& probe, SpanLog& log)
    : inner_(&inner), span_name_(span_name), probe_(&probe), log_(&log) {}

void TimedScorer::score_batch(const ml::BytecodeBatchView& view,
                              std::span<ml::ScoredRow> out) {
  const double start = now_us();
  inner_->score_batch(view, out);
  const double end = now_us();
  probe_->record(view.size(), end - start);
  Span span;
  span.name = span_name_;
  span.start_us = start;
  span.end_us = end;
  span.tid = thread_tag();
  span.rows = view.size();
  log_->add(span);
}

void TimedExplorer::note(const evm::Address& address, double start_us) const {
  const double end = now_us();
  probe_->record(end - start_us);
  Span span;
  span.name = "chain.fetch";
  span.start_us = start_us;
  span.end_us = end;
  span.tid = thread_tag();
  span.address = address;
  log_->add(span);
}

std::string TimedExplorer::eth_get_code(const evm::Address& address) const {
  const double start = now_us();
  std::string code = inner_->eth_get_code(address);
  note(address, start);
  return code;
}

evm::Bytecode TimedExplorer::get_code(const evm::Address& address) const {
  const double start = now_us();
  evm::Bytecode code = inner_->get_code(address);
  note(address, start);
  return code;
}

// ---- trace output ----------------------------------------------------------

void link_fetches(std::vector<Span>& spans,
                  const std::vector<RequestRow>& rows) {
  std::unordered_map<evm::Address, std::vector<const RequestRow*>> by_address;
  for (const RequestRow& row : rows) by_address[row.address].push_back(&row);
  for (Span& span : spans) {
    if (std::strcmp(span.name, "chain.fetch") != 0) continue;
    const auto it = by_address.find(span.address);
    if (it == by_address.end()) continue;
    for (const RequestRow* row : it->second) {
      if (row->start_us <= span.start_us && span.start_us <= row->end_us) {
        span.request_id = row->request_id;
        break;
      }
    }
  }
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buffer[256];
  bool first = true;
  for (const Span& span : spans) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                  first ? "" : ",\n", span.name, span.tid, span.start_us,
                  span.end_us - span.start_us);
    out << buffer;
    first = false;
    bool first_arg = true;
    const auto arg = [&](const char* key, const std::string& value) {
      out << (first_arg ? "" : ",") << '"' << key << "\":" << value;
      first_arg = false;
    };
    if (span.request_id != 0) arg("request_id", std::to_string(span.request_id));
    if (span.rows != 0) arg("rows", std::to_string(span.rows));
    if (std::strcmp(span.name, "chain.fetch") == 0) {
      arg("address", '"' + span.address.to_hex() + '"');
    }
    out << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <optional>
#include <thread>

#include "bench_stats.hpp"
#include "client.hpp"
#include "common/thread_pool.hpp"
#include "net/json.hpp"
#include "stack.hpp"
#include "stream/coordinator.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using phishinghook::net::JsonValue;

/// Untimed warm-up before every measured window.
constexpr double kWarmupS = 1.0;
/// Length of one window segment. The host steals time in bursts of tens of
/// milliseconds; segments this short leave most of a busy run's segments
/// untouched by them, so the quiet ones (see quiet_segments) hold enough
/// samples even when every second of the run saw some steal.
constexpr double kSegmentS = 0.1;
/// Share of the segments, ranked by steal, that the figures are taken over.
constexpr double kQuietShare = 0.25;
/// Segments on either side whose steal also counts against a segment.
constexpr std::size_t kQuietReach = 3;
/// Latency samples per block of quiet segments (see quiet_blocks): ten lie
/// beyond a block's p99.
constexpr std::size_t kBlockSamples = 1000;
/// Set-up passes timed per untraced run (see setup_pass); setup_s is the
/// median of their times.
constexpr int kSetupPasses = 5;

Clock::time_point at(Clock::time_point epoch, double seconds) {
  return epoch + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

double elapsed_s(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double elapsed_us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Ticks in which a virtual machine's CPUs were runnable but the
/// hypervisor ran something else (the steal column of /proc/stat); 0 where
/// the kernel does not report it.
std::uint64_t read_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};
  stat >> cpu;
  for (std::uint64_t& field : fields) stat >> field;
  return stat && cpu == "cpu" ? fields[7] : 0;
}

std::uint64_t read_context_switches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t thread_count() {
  std::error_code error;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", error), end;
       !error && it != end; it.increment(error)) {
    ++n;
  }
  return n;
}

// ---- counters read from the program's public API --------------------------

/// Engine, score-cache, cascade and front-end counters at one instant.
struct StackCounters {
  std::uint64_t submitted = 0, completed = 0, failed = 0, shed = 0;
  std::uint64_t batches = 0, batched = 0, model_rows = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, evictions = 0;
  std::uint64_t cascade_rows = 0, cascade_escalations = 0;
  double latency_sum_us = 0.0;
  std::uint64_t latency_count = 0;
  std::uint64_t net_requests = 0;

  static StackCounters read(ServingStack& stack) {
    const serve::ServiceMetrics& m = stack.engine().metrics();
    const serve::CacheStats cache = stack.engine().cache_stats();
    const serve::CascadeStats cascade = stack.cascade().stats();
    StackCounters c;
    c.submitted = m.requests_submitted.value();
    c.completed = m.requests_completed.value();
    c.failed = m.requests_failed.value();
    c.shed = m.requests_shed.value();
    c.batches = m.batches.value();
    c.batched = m.batched_requests.value();
    c.model_rows = m.model_rows.value();
    c.cache_hits = cache.hits;
    c.cache_misses = cache.misses;
    c.evictions = cache.evictions;
    c.cascade_rows = cascade.rows_total;
    c.cascade_escalations = cascade.escalations_total;
    c.latency_sum_us = m.request_latency.sum();
    c.latency_count = m.request_latency.count();
    if (stack.frontend() != nullptr) {
      c.net_requests = stack.frontend()->server().requests_received();
    }
    return c;
  }

  StackCounters minus(const StackCounters& o) const {
    StackCounters d;
    d.submitted = submitted - o.submitted;
    d.completed = completed - o.completed;
    d.failed = failed - o.failed;
    d.shed = shed - o.shed;
    d.batches = batches - o.batches;
    d.batched = batched - o.batched;
    d.model_rows = model_rows - o.model_rows;
    d.cache_hits = cache_hits - o.cache_hits;
    d.cache_misses = cache_misses - o.cache_misses;
    d.evictions = evictions - o.evictions;
    d.cascade_rows = cascade_rows - o.cascade_rows;
    d.cascade_escalations = cascade_escalations - o.cascade_escalations;
    d.latency_sum_us = latency_sum_us - o.latency_sum_us;
    d.latency_count = latency_count - o.latency_count;
    d.net_requests = net_requests - o.net_requests;
    return d;
  }

  bool conserved() const { return submitted == completed + failed + shed; }
};

struct ProbeTotals {
  std::uint64_t cascade_calls = 0, cascade_rows = 0;
  double cascade_us = 0.0;
  std::uint64_t stage0_rows = 0, stage1_rows = 0;
  double stage0_us = 0.0, stage1_us = 0.0;
  std::vector<double> fetch_us;
  std::vector<Span> spans;
  std::uint64_t spans_dropped = 0;

  static ProbeTotals read(const LayerProbes& p) {
    ProbeTotals t;
    t.cascade_calls = p.cascade.calls();
    t.cascade_rows = p.cascade.rows();
    t.cascade_us = p.cascade.busy_us();
    t.stage0_rows = p.stage0.rows();
    t.stage0_us = p.stage0.busy_us();
    t.stage1_rows = p.stage1.rows();
    t.stage1_us = p.stage1.busy_us();
    t.fetch_us = p.fetch.samples();
    t.spans = p.spans.snapshot();
    t.spans_dropped = p.spans.dropped();
    return t;
  }
};

// ---- one measured window ----------------------------------------------------

/// One slice of the measured window. End-to-end metrics come from the
/// segments the host disturbed least (see quiet_segments), so stalls of a
/// shared host spoil a few segments instead of the whole run.
struct Segment {
  std::uint64_t steal_ticks = 0;  ///< host interference during the segment
  double elapsed_s = 0.0;
  double process_cpu_s = 0.0;
  double client_cpu_s = 0.0;
  StackCounters engine;          ///< deltas over the segment
  std::uint64_t rows = 0;         ///< rows answered correctly
  std::vector<double> latency_us; ///< samples due in this segment
};

/// What one warm-up + measured window produced. Correctness counts cover
/// the whole run; everything else covers the measured window only.
struct Window {
  std::uint64_t attempted = 0;   ///< rows asked for, warm-up included
  std::uint64_t errors = 0;      ///< every row not answered ok and correct
  std::uint64_t mismatches = 0;  ///< ok rows whose probability was wrong
  std::uint64_t client_frames = 0;  ///< HTTP requests the client sent

  std::vector<Segment> segments;
  std::uint64_t rows = 0;            ///< rows answered correctly
  std::uint64_t cache_hit_rows = 0;  ///< of those, served from the cache
  std::vector<double> send_lag_us;
  std::vector<double> overhead_us;   ///< client RTT minus engine latency
  std::vector<double> queue_wait_us; ///< per row, from the response
  std::vector<double> service_us;    ///< per row: latency_us - queue_wait_us
  double client_cpu_s = 0.0;
  std::uint64_t context_switches = 0;
  std::size_t threads = 0;
  StackCounters engine;  ///< deltas over the window
  StackCounters totals;  ///< after the drain
  double mean_code_bytes = 0.0;
  std::optional<stream::StreamReport> stream;
  std::optional<ProbeTotals> probes;
  std::vector<RequestRow> request_rows;  ///< traced: links fetch spans
  std::vector<Span> client_spans;        ///< traced
  std::vector<std::string> problems;

  std::vector<double> all_latencies() const {
    std::vector<double> out;
    for (const Segment& s : segments) {
      out.insert(out.end(), s.latency_us.begin(), s.latency_us.end());
    }
    return out;
  }
};

/// Client threads (load generators) whose CPU time is subtracted from the
/// process CPU. A thread stays alive after its body returns until
/// release(), so its CPU clock can still be read at the last window edge.
class ClientThreads {
 public:
  ClientThreads() = default;
  ~ClientThreads() { release(); }

  ClientThreads(const ClientThreads&) = delete;
  ClientThreads& operator=(const ClientThreads&) = delete;

  /// Starts `n` threads running body(k); body must not throw.
  void spawn(std::size_t n, const std::function<void(std::size_t)>& body) {
    for (std::size_t k = 0; k < n; ++k) {
      threads_.emplace_back([this, body, k] {
        body(k);
        done_.fetch_add(1);
        while (!released_.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
  }

  /// CPU seconds all client threads have used so far.
  double cpu_s() {
    double total = 0.0;
    for (std::thread& t : threads_) {
      clockid_t clock{};
      if (pthread_getcpuclockid(t.native_handle(), &clock) == 0) {
        total += cpu_clock_s(clock);
      }
    }
    return total;
  }

  void wait_done() const {
    while (done_.load() < threads_.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void release() {
    released_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::atomic<std::size_t> done_{0};
  std::atomic<bool> released_{false};
  std::vector<std::thread> threads_;
};

/// Process-level readings at a window or segment edge.
struct Edge {
  Clock::time_point time;
  std::uint64_t steal_ticks = 0;
  double process_cpu_s = 0.0;
  double client_cpu_s = 0.0;
  std::uint64_t context_switches = 0;
  StackCounters engine;

  static Edge read(ServingStack& stack, ClientThreads& clients) {
    Edge e;
    e.time = Clock::now();
    e.steal_ticks = read_steal_ticks();
    e.process_cpu_s = cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID);
    e.client_cpu_s = clients.cpu_s();
    e.context_switches = read_context_switches();
    e.engine = StackCounters::read(stack);
    return e;
  }
};

/// The segments of a window of `window_s` seconds.
struct SegmentClock {
  Clock::time_point start;
  double segment_s = 0.0;
  std::size_t count = 1;

  SegmentClock(Clock::time_point window_start, double window_s)
      : start(window_start),
        count(std::max<std::size_t>(
            1, static_cast<std::size_t>(std::lround(window_s / kSegmentS)))) {
    segment_s = window_s / static_cast<double>(count);
  }

  Clock::time_point edge(std::size_t j) const {
    return at(start, segment_s * static_cast<double>(j));
  }
  Clock::time_point end() const { return edge(count); }

  /// Segment holding time `t`, or -1 outside the window.
  long index(Clock::time_point t) const {
    if (t < start) return -1;
    const auto j = static_cast<long>(elapsed_s(start, t) / segment_s);
    return j < static_cast<long>(count) ? j : -1;
  }
};

/// Reads an edge at every segment boundary, the last one once every client
/// body has returned, then releases the clients. Resets the layer probes
/// at the window start and counts threads halfway through.
void measure_edges(Window& w, ServingStack& stack, ClientThreads& clients,
                   const SegmentClock& clock, LayerProbes* probes) {
  std::vector<Edge> edges;
  for (std::size_t j = 0; j <= clock.count; ++j) {
    std::this_thread::sleep_until(clock.edge(j));
    if (j == clock.count) clients.wait_done();
    edges.push_back(Edge::read(stack, clients));
    if (j == 0 && probes != nullptr) probes->reset();
    if (j == std::max<std::size_t>(1, clock.count / 2)) w.threads = thread_count();
  }
  if (probes != nullptr) w.probes = ProbeTotals::read(*probes);
  clients.release();
  w.segments.resize(clock.count);
  for (std::size_t j = 0; j < clock.count; ++j) {
    Segment& s = w.segments[j];
    s.elapsed_s = elapsed_s(edges[j].time, edges[j + 1].time);
    s.steal_ticks = edges[j + 1].steal_ticks - edges[j].steal_ticks;
    s.process_cpu_s = edges[j + 1].process_cpu_s - edges[j].process_cpu_s;
    s.client_cpu_s = edges[j + 1].client_cpu_s - edges[j].client_cpu_s;
    s.engine = edges[j + 1].engine.minus(edges[j].engine);
  }
  const Edge& first = edges.front();
  const Edge& last = edges.back();
  w.client_cpu_s = last.client_cpu_s - first.client_cpu_s;
  w.context_switches = last.context_switches - first.context_switches;
  w.engine = last.engine.minus(first.engine);
}

/// Per-thread observations, merged after the release.
struct ClientTally {
  explicit ClientTally(std::size_t segments = 0)
      : segment_rows(segments, 0), segment_latency_us(segments) {}

  std::uint64_t attempted = 0, errors = 0, mismatches = 0, frames = 0;
  std::uint64_t cache_hit_rows = 0;
  std::vector<std::uint64_t> segment_rows;
  std::vector<std::vector<double>> segment_latency_us;
  std::vector<double> send_lag_us, overhead_us, queue_wait_us, service_us;
  std::vector<RequestRow> request_rows;
  std::vector<Span> spans;

  void merge_into(Window& w) const {
    w.attempted += attempted;
    w.errors += errors;
    w.mismatches += mismatches;
    w.client_frames += frames;
    w.cache_hit_rows += cache_hit_rows;
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    for (std::size_t j = 0; j < segment_rows.size(); ++j) {
      w.segments[j].rows += segment_rows[j];
      w.rows += segment_rows[j];
      append(w.segments[j].latency_us, segment_latency_us[j]);
    }
    append(w.send_lag_us, send_lag_us);
    append(w.overhead_us, overhead_us);
    append(w.queue_wait_us, queue_wait_us);
    append(w.service_us, service_us);
    w.request_rows.insert(w.request_rows.end(), request_rows.begin(),
                          request_rows.end());
    w.client_spans.insert(w.client_spans.end(), spans.begin(), spans.end());
  }
};

/// Outcome of one row of an RPC answer.
struct RowOutcome {
  bool ok = false;        ///< status ok and probability matches the oracle
  bool mismatch = false;  ///< status ok but the probability differs
  bool cache_hit = false;
  double latency_us = 0.0;
  double queue_wait_us = 0.0;
};

double number_field(const JsonValue& object, const char* key) {
  const JsonValue* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_number() : 0.0;
}

RowOutcome check_row(const JsonValue& row, const evm::Address& expected,
                     const std::string& expected_hex, const Oracle& oracle) {
  RowOutcome out;
  const JsonValue* status = row.find("status");
  const JsonValue* address = row.find("address");
  const JsonValue* probability = row.find("probability");
  if (status == nullptr || !status->is_string() ||
      status->as_string() != "ok" || address == nullptr ||
      !address->is_string() || address->as_string() != expected_hex ||
      probability == nullptr || !probability->is_number()) {
    return out;
  }
  const JsonValue* hit = row.find("cache_hit");
  out.cache_hit = hit != nullptr && hit->is_bool() && hit->as_bool();
  out.latency_us = number_field(row, "latency_us");
  out.queue_wait_us = number_field(row, "queue_wait_us");
  out.ok = oracle.matches(expected, probability->as_number());
  out.mismatch = !out.ok;
  return out;
}

/// The "result" member of a JSON-RPC response body, or nullopt.
std::optional<JsonValue> rpc_result(const std::optional<std::string>& body) {
  if (!body) return std::nullopt;
  std::optional<JsonValue> doc = JsonValue::parse(*body);
  if (!doc) return std::nullopt;
  const JsonValue* result = doc->find("result");
  if (result == nullptr) return std::nullopt;
  return *result;
}

std::string score_body(std::uint64_t id, const std::string& hex) {
  return "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(id) +
         ",\"method\":\"phook_score\",\"params\":[\"" + hex + "\"]}";
}

std::string batch_body(std::uint64_t id, const std::vector<const std::string*>& hexes) {
  std::string body = "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(id) +
                     ",\"method\":\"phook_scoreBatch\",\"params\":[[";
  for (std::size_t i = 0; i < hexes.size(); ++i) {
    if (i != 0) body += ',';
    body += '"';
    body += *hexes[i];
    body += '"';
  }
  body += "]]}";
  return body;
}

// ---- inputs and set-up ------------------------------------------------------

/// Everything a workload sends, generated from the seed before set-up.
struct Inputs {
  Workload workload = Workload::kRpcSingle;
  std::vector<evm::Bytecode> contracts;  ///< deployed on the chain (RPC)
  SingleConfig single;
  std::vector<SingleArrival> arrivals;   ///< rpc_single schedule
  BatchConfig batch;
  std::vector<std::uint32_t> order;      ///< rpc_batch_cold pool order
  StreamPlan stream;
  std::vector<ProbeArrival> probes;      ///< stream_follow probe schedule

  StackSpec spec() const {
    StackSpec spec;
    if (workload == Workload::kStreamFollow) {
      spec.miner = stream.miner;
      spec.premine_blocks = stream.premine_blocks;
      spec.rpc = false;
    } else {
      spec.contracts = &contracts;
      if (workload == Workload::kRpcBatchCold) {
        spec.cache_capacity = batch.cache_capacity;
      }
    }
    return spec;
  }
};

/// `horizon_s` covers warm-up plus window: the schedules end there.
Inputs make_inputs(Workload workload, std::uint64_t seed, double horizon_s) {
  Inputs in;
  in.workload = workload;
  switch (workload) {
    case Workload::kRpcSingle: {
      in.arrivals = plan_single(in.single, derive_seed(seed, 1), horizon_s);
      // Hot set first, then one never-seen contract per fresh arrival.
      in.contracts = synthesize_unique(
          in.single.hot_set + fresh_needed(in.arrivals), derive_seed(seed, 2));
      break;
    }
    case Workload::kRpcBatchCold:
      in.contracts = synthesize_unique(in.batch.pool, derive_seed(seed, 3));
      in.order = plan_batch_order(in.batch, derive_seed(seed, 4));
      break;
    case Workload::kStreamFollow:
      in.stream = plan_stream(seed);
      in.probes = plan_probes(in.stream, derive_seed(seed, 12), horizon_s);
      break;
  }
  return in;
}

/// A stack ready to serve plus the oracle for every address it can be
/// asked for before the run starts.
struct Served {
  std::unique_ptr<ServingStack> stack;
  Oracle oracle;
  std::vector<evm::Address> addresses;  ///< deployed, or pre-mined (stream)
  std::vector<std::string> hexes;       ///< to_hex() of each address
  double mean_code_bytes = 0.0;
};

void fill_oracle(Served& served, const Inputs& in) {
  std::vector<const evm::Bytecode*> codes;
  std::vector<evm::Bytecode> fetched;
  if (in.workload == Workload::kStreamFollow) {
    // Pre-mined deployments: the probe pool. The chain is quiesced here.
    stream::LiveChain& chain = served.stack->chain();
    for (const auto& record : chain.raw_explorer().crawl_after(0).records) {
      served.addresses.push_back(record.address);
      fetched.push_back(chain.raw_explorer().get_code(record.address));
    }
    for (const evm::Bytecode& code : fetched) codes.push_back(&code);
  } else {
    served.addresses = served.stack->deployed();
    for (const evm::Bytecode& code : in.contracts) codes.push_back(&code);
  }
  served.oracle.add(served.stack->cascade(), served.addresses, codes);
  double bytes = 0.0;
  for (const evm::Bytecode* code : codes) bytes += static_cast<double>(code->size());
  served.mean_code_bytes = ratio(bytes, static_cast<double>(codes.size()));
  for (const evm::Address& address : served.addresses) {
    served.hexes.push_back(address.to_hex());
  }
}

// ---- workload bodies ----------------------------------------------------------

/// Primes the score cache with the hot set (64 rows per call) and checks
/// every answer; part of the untimed warm-up.
void prime_hot_set(Served& served, std::size_t hot, Window& w) {
  RpcConnection conn(served.stack->port());
  ClientTally tally;
  for (std::size_t begin = 0; begin < hot; begin += 64) {
    std::vector<const std::string*> hexes;
    for (std::size_t r = begin; r < std::min(hot, begin + 64); ++r) {
      hexes.push_back(&served.hexes[r]);
    }
    tally.frames += 1;
    tally.attempted += hexes.size();
    const std::optional<JsonValue> result =
        rpc_result(conn.call(batch_body(begin + 1, hexes)));
    if (!result || !result->is_array() || result->as_array().size() != hexes.size()) {
      tally.errors += hexes.size();
      continue;
    }
    for (std::size_t i = 0; i < hexes.size(); ++i) {
      const RowOutcome row =
          check_row(result->as_array()[i], served.addresses[begin + i],
                    served.hexes[begin + i], served.oracle);
      tally.errors += row.ok ? 0 : 1;
      tally.mismatches += row.mismatch ? 1 : 0;
    }
  }
  tally.merge_into(w);
}

Span client_span(const char* name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t id, std::uint64_t rows) {
  Span span;
  span.name = name;
  span.start_us = trace_us(start);
  span.end_us = trace_us(end);
  span.tid = thread_tag();
  span.request_id = id;
  span.rows = rows;
  return span;
}

Window run_rpc_single(Served& served, const Inputs& in, double window_s,
                      LayerProbes* probes) {
  Window w;
  ServingStack& stack = *served.stack;
  const std::size_t hot = in.single.hot_set;
  prime_hot_set(served, hot, w);

  // The rest of the warm-up, then the window: one open-loop schedule.
  // Requests due inside the window are the samples. Each is timed from its
  // scheduled send, so a stall also charges the requests it delayed.
  const std::vector<SingleArrival>& arrivals = in.arrivals;
  const Clock::time_point epoch = Clock::now() + std::chrono::milliseconds(20);
  const SegmentClock clock(at(epoch, kWarmupS), window_s);
  std::vector<ClientTally> tallies(in.single.connections,
                                   ClientTally(clock.count));
  std::atomic<std::size_t> next{0};

  ClientThreads clients;
  clients.spawn(in.single.connections, [&](std::size_t k) {
    RpcConnection conn(stack.port());
    ClientTally& tally = tallies[k];
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= arrivals.size()) break;
      const SingleArrival& a = arrivals[i];
      const std::size_t row = a.fresh ? hot + a.index : a.index;
      const Clock::time_point due = at(epoch, a.at_s);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      const std::optional<std::string> body =
          conn.call(score_body(i + 1, served.hexes[row]));
      const Clock::time_point done = Clock::now();
      tally.frames += 1;
      tally.attempted += 1;
      const std::optional<JsonValue> result = rpc_result(body);
      const RowOutcome outcome =
          result ? check_row(*result, served.addresses[row], served.hexes[row],
                             served.oracle)
                 : RowOutcome{};
      tally.errors += outcome.ok ? 0 : 1;
      tally.mismatches += outcome.mismatch ? 1 : 0;
      const long segment = clock.index(due);
      if (!outcome.ok || segment < 0) continue;
      tally.segment_rows[segment] += 1;
      tally.segment_latency_us[segment].push_back(elapsed_us(due, done));
      tally.cache_hit_rows += outcome.cache_hit ? 1 : 0;
      tally.send_lag_us.push_back(elapsed_us(due, sent));
      tally.overhead_us.push_back(elapsed_us(sent, done) - outcome.latency_us);
      tally.queue_wait_us.push_back(outcome.queue_wait_us);
      tally.service_us.push_back(outcome.latency_us - outcome.queue_wait_us);
      if (probes != nullptr) {
        tally.request_rows.push_back(RequestRow{
            served.addresses[row], i + 1, trace_us(sent), trace_us(done)});
        tally.spans.push_back(client_span("client.request", sent, done, i + 1, 1));
      }
    }
  });
  measure_edges(w, stack, clients, clock, probes);
  for (const ClientTally& tally : tallies) tally.merge_into(w);
  return w;
}

Window run_rpc_batch_cold(Served& served, const Inputs& in, double window_s,
                          LayerProbes* probes) {
  Window w;
  ServingStack& stack = *served.stack;
  const std::size_t rows_per_call = in.batch.rows_per_call;
  const std::size_t pool = in.order.size();
  const Clock::time_point epoch = Clock::now();
  const SegmentClock clock(at(epoch, kWarmupS), window_s);
  std::vector<ClientTally> tallies(in.batch.connections, ClientTally(clock.count));
  std::atomic<std::uint64_t> next{0};

  // Closed loop: each connection sends its next call when the previous
  // answer arrived. Calls started inside the window are the samples.
  ClientThreads clients;
  clients.spawn(in.batch.connections, [&](std::size_t k) {
    RpcConnection conn(stack.port());
    ClientTally& tally = tallies[k];
    std::vector<std::size_t> rows(rows_per_call);
    std::vector<const std::string*> hexes(rows_per_call);
    for (;;) {
      const Clock::time_point start = Clock::now();
      if (start >= clock.end()) break;
      const std::uint64_t call = next.fetch_add(1);
      for (std::size_t j = 0; j < rows_per_call; ++j) {
        rows[j] = in.order[(call * rows_per_call + j) % pool];
        hexes[j] = &served.hexes[rows[j]];
      }
      const std::optional<std::string> body =
          conn.call(batch_body(call + 1, hexes));
      const Clock::time_point done = Clock::now();
      tally.frames += 1;
      tally.attempted += rows_per_call;
      const std::optional<JsonValue> result = rpc_result(body);
      if (!result || !result->is_array() ||
          result->as_array().size() != rows_per_call) {
        tally.errors += rows_per_call;
        continue;
      }
      const long segment = clock.index(start);
      double max_latency_us = 0.0;
      for (std::size_t j = 0; j < rows_per_call; ++j) {
        const RowOutcome outcome =
            check_row(result->as_array()[j], served.addresses[rows[j]],
                      served.hexes[rows[j]], served.oracle);
        tally.errors += outcome.ok ? 0 : 1;
        tally.mismatches += outcome.mismatch ? 1 : 0;
        if (!outcome.ok || segment < 0) continue;
        tally.segment_rows[segment] += 1;
        tally.cache_hit_rows += outcome.cache_hit ? 1 : 0;
        max_latency_us = std::max(max_latency_us, outcome.latency_us);
        // Per-row samples only feed per-layer metrics; keeping them in the
        // untimed run would put the benchmark's own memory into rss_peak_mb.
        if (probes != nullptr) {
          tally.queue_wait_us.push_back(outcome.queue_wait_us);
          tally.service_us.push_back(outcome.latency_us - outcome.queue_wait_us);
        }
      }
      if (segment < 0) continue;
      tally.segment_latency_us[segment].push_back(elapsed_us(start, done));
      tally.send_lag_us.push_back(0.0);  // closed loop: sent when due
      tally.overhead_us.push_back(elapsed_us(start, done) - max_latency_us);
      if (probes != nullptr) {
        for (std::size_t j = 0; j < rows_per_call; ++j) {
          tally.request_rows.push_back(RequestRow{served.addresses[rows[j]],
                                                  call + 1, trace_us(start),
                                                  trace_us(done)});
        }
        tally.spans.push_back(
            client_span("client.batch", start, done, call + 1, rows_per_call));
      }
    }
  });
  measure_edges(w, stack, clients, clock, probes);
  for (const ClientTally& tally : tallies) tally.merge_into(w);
  return w;
}

Window run_stream_follow(Served& served, const Inputs& in, double window_s,
                         LayerProbes* probes) {
  Window w;
  ServingStack& stack = *served.stack;
  stream::StreamConfig config;
  config.arrivals = in.stream.arrivals;
  config.blocks_per_s = in.stream.blocks_per_s;
  config.paced = true;
  config.max_blocks = static_cast<std::uint64_t>(
      std::ceil(in.stream.blocks_per_s * (kWarmupS + window_s + 1.0)));
  stream::StreamCoordinator coordinator(stack.chain(), stack.engine(), config);

  // Probe requests beside the stream: open loop, each timed from submit to
  // the engine's completion stamp. Unlike rpc_single, not from the
  // scheduled send: the lone in-process prober's own oversleeps then set the
  // p99, which spread 18% across seeds against 2.5% from submit.
  struct Probe {
    std::future<serve::ScoreResult> future;
    Clock::time_point due;
    Clock::time_point sent;
    evm::Address address;
  };
  std::vector<Probe> sent;
  sent.reserve(in.probes.size());
  const Clock::time_point epoch = Clock::now();
  const SegmentClock clock(at(epoch, kWarmupS), window_s);
  coordinator.start();
  ClientThreads prober;
  prober.spawn(1, [&](std::size_t) {
    for (const ProbeArrival& arrival : in.probes) {
      const Clock::time_point due = at(epoch, arrival.at_s);
      if (due >= clock.end()) break;
      std::this_thread::sleep_until(due);
      Probe probe;
      probe.due = due;
      probe.sent = Clock::now();
      probe.address = served.addresses[arrival.draw % served.addresses.size()];
      std::optional<std::future<serve::ScoreResult>> future =
          stack.engine().try_submit(probe.address);
      if (!future) break;
      probe.future = std::move(*future);
      sent.push_back(std::move(probe));
    }
  });
  measure_edges(w, stack, prober, clock, probes);
  coordinator.drain();
  w.stream = coordinator.report();

  // Rows answered: every engine completion, the stream's and the probes'.
  for (Segment& segment : w.segments) segment.rows = segment.engine.completed;
  w.rows = w.engine.completed;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    Probe& probe = sent[i];
    const serve::ScoreResult result = probe.future.get();
    w.attempted += 1;
    const bool matches = served.oracle.matches(result.address, result.probability);
    const bool ok = result.status == serve::ScoreStatus::kOk && matches;
    w.errors += ok ? 0 : 1;
    w.mismatches += result.status == serve::ScoreStatus::kOk && !matches ? 1 : 0;
    const long segment = clock.index(probe.due);
    if (!ok || segment < 0) continue;
    w.segments[segment].latency_us.push_back(result.latency_us);
    w.send_lag_us.push_back(elapsed_us(probe.due, probe.sent));
    if (probes != nullptr) {
      const Clock::time_point done = at(probe.sent, result.latency_us * 1e-6);
      w.request_rows.push_back(
          RequestRow{probe.address, i + 1, trace_us(probe.sent), trace_us(done)});
      w.client_spans.push_back(client_span("client.probe", probe.sent, done, i + 1, 1));
    }
    w.queue_wait_us.push_back(result.queue_wait_us);
    w.service_us.push_back(result.latency_us - result.queue_wait_us);
    w.cache_hit_rows += result.cache_hit ? 1 : 0;
  }
  const stream::StreamReport& report = *w.stream;
  w.attempted += report.submitted;
  w.errors += report.failed + report.shed;
  if (!report.accounting_ok()) {
    w.problems.push_back("stream accounting: submitted != completed + failed + shed");
  }

  // Every contract the chain now holds, scored by the oracle and re-asked
  // from the engine: what it answered during the run sits in its cache.
  std::vector<evm::Address> deployed;
  std::vector<evm::Bytecode> codes;
  stream::LiveChain& chain = stack.chain();
  for (const auto& record : chain.raw_chain().contracts()) {
    deployed.push_back(record.address);
    codes.push_back(chain.raw_explorer().get_code(record.address));
  }
  std::vector<const evm::Bytecode*> code_ptrs;
  double bytes = 0.0;
  for (const evm::Bytecode& code : codes) {
    code_ptrs.push_back(&code);
    bytes += static_cast<double>(code.size());
  }
  w.mean_code_bytes = ratio(bytes, static_cast<double>(codes.size()));
  Oracle chain_oracle;
  chain_oracle.add(stack.cascade(), deployed, code_ptrs);
  // Chunks stay under the engine's max_queue, so none of them is shed.
  for (std::size_t begin = 0; begin < deployed.size(); begin += 128) {
    const std::vector<evm::Address> chunk(
        deployed.begin() + static_cast<long>(begin),
        deployed.begin() + static_cast<long>(std::min(deployed.size(), begin + 128)));
    for (const serve::ScoreResult& result : stack.engine().score_all(chunk)) {
      w.attempted += 1;
      const bool answered = result.status == serve::ScoreStatus::kOk ||
                            result.status == serve::ScoreStatus::kEmptyCode;
      const bool matches = chain_oracle.matches(result.address, result.probability);
      w.errors += answered && matches ? 0 : 1;
      w.mismatches += answered && !matches ? 1 : 0;
    }
  }
  return w;
}

Window run_window(Served& served, const Inputs& in, double window_s,
                  LayerProbes* probes) {
  Window w;
  switch (in.workload) {
    case Workload::kRpcSingle:
      w = run_rpc_single(served, in, window_s, probes);
      break;
    case Workload::kRpcBatchCold:
      w = run_rpc_batch_cold(served, in, window_s, probes);
      break;
    case Workload::kStreamFollow:
      w = run_stream_follow(served, in, window_s, probes);
      break;
  }
  if (in.workload != Workload::kStreamFollow) {
    w.mean_code_bytes = served.mean_code_bytes;
  }
  // After the drain every submission must have ended one way.
  w.totals = StackCounters::read(*served.stack);
  if (!w.totals.conserved()) {
    w.problems.push_back("engine: submitted != completed + failed + shed");
  }
  if (served.stack->frontend() != nullptr &&
      w.totals.net_requests != w.client_frames) {
    w.problems.push_back("net: requests_received " +
                         std::to_string(w.totals.net_requests) +
                         " != client requests " + std::to_string(w.client_frames));
  }
  return w;
}

// ---- metrics ----------------------------------------------------------------

/// Steal seen within kQuietReach segments of segment j. The steal column
/// counts whole 10 ms ticks of a running nanosecond total, so a short stall
/// can show up a tick or more away from when it struck, and a stall leaves
/// a queue that later requests wait behind.
std::uint64_t disturbance(const Window& w, std::size_t j) {
  const std::size_t first = j >= kQuietReach ? j - kQuietReach : 0;
  const std::size_t last = std::min(w.segments.size(), j + kQuietReach + 1);
  std::uint64_t steal = 0;
  for (std::size_t k = first; k < last; ++k) steal += w.segments[k].steal_ticks;
  return steal;
}

/// The segments the host disturbed least: the kQuietShare of them with the
/// least steal around them (see disturbance), ties included, so where
/// nothing is stolen that is every segment. On a busy host every second
/// sees some steal, and a p99 then follows the steal of its second almost
/// monotonically; most 0.1 s segments are still far from any.
std::vector<const Segment*> quiet_segments(const Window& w) {
  std::vector<double> ranks;
  for (std::size_t j = 0; j < w.segments.size(); ++j) {
    ranks.push_back(static_cast<double>(disturbance(w, j)));
  }
  const double limit = quantile(ranks, kQuietShare);
  std::vector<const Segment*> quiet;
  for (std::size_t j = 0; j < w.segments.size(); ++j) {
    if (ranks[j] <= limit) quiet.push_back(&w.segments[j]);
  }
  return quiet;
}

/// Adds segment `s` into `into`: times, CPU, rows, engine latency sums and
/// latency samples.
void merge(Segment& into, const Segment& s) {
  into.steal_ticks += s.steal_ticks;
  into.elapsed_s += s.elapsed_s;
  into.process_cpu_s += s.process_cpu_s;
  into.client_cpu_s += s.client_cpu_s;
  into.rows += s.rows;
  into.engine.latency_sum_us += s.engine.latency_sum_us;
  into.engine.latency_count += s.engine.latency_count;
  into.latency_us.insert(into.latency_us.end(), s.latency_us.begin(), s.latency_us.end());
}

/// The quiet segments, in time order, merged into blocks of at least
/// kBlockSamples latency samples; a short remainder joins the last block.
/// Whole ticks of steal miss or misplace short stalls, and one stall sets
/// the p99 of all the samples it is pooled with, so every figure is the
/// median over these blocks.
std::vector<Segment> quiet_blocks(const Window& w) {
  std::vector<Segment> blocks(1);
  for (const Segment* s : quiet_segments(w)) {
    if (blocks.back().latency_us.size() >= kBlockSamples) blocks.emplace_back();
    merge(blocks.back(), *s);
  }
  if (blocks.size() > 1 && blocks.back().latency_us.size() < kBlockSamples) {
    const Segment last = std::move(blocks.back());
    blocks.pop_back();
    merge(blocks.back(), last);
  }
  return blocks;
}

double median_over_blocks(const Window& w,
                          const std::function<double(const Segment&)>& per_block) {
  std::vector<double> values;
  for (const Segment& block : quiet_blocks(w)) values.push_back(per_block(block));
  return quantile(values, 0.5);
}

double latency_quantile(const Window& w, double q) {
  return median_over_blocks(w, [q](const Segment& b) { return quantile(b.latency_us, q); });
}

double engine_latency_mean(const Segment& s) {
  return ratio(s.engine.latency_sum_us, static_cast<double>(s.engine.latency_count));
}

double throughput(const Segment& s) {
  return ratio(static_cast<double>(s.rows), s.elapsed_s);
}

double cpu_per_row(const Segment& s) {
  return ratio((s.process_cpu_s - s.client_cpu_s) * 1e6, static_cast<double>(s.rows));
}

/// The cost a user sees on each workload, for the tracing overhead ratio.
double headline_cost(Workload workload, const Window& w) {
  switch (workload) {
    case Workload::kRpcSingle: return latency_quantile(w, 0.5);
    case Workload::kRpcBatchCold: return ratio(1.0, median_over_blocks(w, throughput));
    case Workload::kStreamFollow: return median_over_blocks(w, engine_latency_mean);
  }
  return 0.0;
}

void add_metric(RunResult& r, const char* name, const char* unit, double value) {
  r.metrics.push_back(Metric{name, unit, std::isfinite(value) ? value : 0.0});
}

/// Appends one printf-formatted report line; every argument is a double.
template <typename... Doubles>
void note(RunResult& r, const char* format, Doubles... values) {
  char line[256];
  std::snprintf(line, sizeof(line), format, static_cast<double>(values)...);
  r.notes.emplace_back(line);
}

/// Share of batched rows whose code hash another row of the same batch
/// already carried: both miss the cache, only the first reaches the model.
/// Window edges can cut a batch, hence the clamp.
double duplicate_share(const StackCounters& e) {
  const double duplicates = static_cast<double>(e.cache_misses) -
                            static_cast<double>(e.model_rows);
  return std::max(0.0, ratio(duplicates, static_cast<double>(e.batched)));
}

void add_shape_notes(RunResult& r, const Window& w) {
  const StackCounters& e = w.engine;
  note(r, "shape: client-observed cache-hit share %.4f of %.0f sampled rows",
       ratio(static_cast<double>(w.cache_hit_rows),
             static_cast<double>(w.queue_wait_us.size())),
       static_cast<double>(w.queue_wait_us.size()));
  note(r, "shape: engine cache-hit share %.4f, escalation share %.4f",
       ratio(static_cast<double>(e.cache_hits),
             static_cast<double>(e.cache_hits + e.cache_misses)),
       ratio(static_cast<double>(e.cascade_escalations),
             static_cast<double>(e.cascade_rows)));
  note(r, "shape: mean code bytes %.1f, duplicate-hash share within a batch %.4f",
       w.mean_code_bytes, duplicate_share(e));
}

void add_end_to_end(RunResult& r, const Window& w, double setup_s) {
  add_metric(r, "setup_s", "s", setup_s);
  add_metric(r, "latency_p50_us", "us", latency_quantile(w, 0.5));
  add_metric(r, "latency_p99_us", "us", latency_quantile(w, 0.99));
  add_metric(r, "latency_mean_us", "us", median_over_blocks(w, engine_latency_mean));
  add_metric(r, "throughput_rows_per_s", "rows/s", median_over_blocks(w, throughput));
  add_metric(r, "ok_ratio", "ratio",
             1.0 - ratio(static_cast<double>(w.errors), static_cast<double>(w.attempted)));
  add_metric(r, "rss_peak_mb", "MB", rss_peak_mb());

  const std::vector<Segment> blocks = quiet_blocks(w);
  std::size_t least = blocks.front().latency_us.size();
  for (const Segment& block : blocks) least = std::min(least, block.latency_us.size());
  note(r, "figures: median over %.0f blocks of the %.0f quiet of %.0f segments of %.2f s",
       static_cast<double>(blocks.size()), static_cast<double>(quiet_segments(w).size()),
       static_cast<double>(w.segments.size()), w.segments.front().elapsed_s);
  note(r, "latency p50/p99: at least %.0f samples per block, %.0f beyond its p99",
       static_cast<double>(least), static_cast<double>(samples_beyond(least, 0.99)));
  const std::vector<double> all = w.all_latencies();
  note(r, "latency over the whole window: p50 %.1f us, p99 %.1f us, n %.0f",
       quantile(all, 0.5), quantile(all, 0.99), static_cast<double>(all.size()));
  // One line per second of the window: steal, how many of its segments
  // were quiet, and its figures over all of its segments.
  const std::vector<const Segment*> quiet_set = quiet_segments(w);
  const std::size_t per_line = std::max<std::size_t>(1, std::lround(1.0 / kSegmentS));
  for (std::size_t first = 0; first < w.segments.size(); first += per_line) {
    Segment second;
    std::size_t quiet_count = 0;
    for (std::size_t j = first; j < std::min(w.segments.size(), first + per_line); ++j) {
      const Segment& s = w.segments[j];
      merge(second, s);
      quiet_count += std::count(quiet_set.begin(), quiet_set.end(), &s);
    }
    note(r, "second %.0f: steal %.0f ticks, %.0f quiet segments, p99 %.1f us, "
            "rows/s %.1f, cpu %.2f us/row",
         static_cast<double>(first / per_line), static_cast<double>(second.steal_ticks),
         static_cast<double>(quiet_count), quantile(second.latency_us, 0.99),
         throughput(second), cpu_per_row(second));
  }
  // CPU per row follows the host's speed, which drifts by seconds and
  // minutes without any steal; it is a per-layer metric (proc.cpu_us_per_row)
  // and only reported here.
  note(r, "cpu per row %.2f us (median over the blocks)", median_over_blocks(w, cpu_per_row));
  note(r, "client send lag p50 %.1f us, p99 %.1f us; net overhead p99 %.1f us",
       quantile(w.send_lag_us, 0.5), quantile(w.send_lag_us, 0.99),
       quantile(w.overhead_us, 0.99));
  note(r, "error_ratio %.6f (%.0f errors, %.0f oracle mismatches)",
       ratio(static_cast<double>(w.errors), static_cast<double>(w.attempted)),
       static_cast<double>(w.errors), static_cast<double>(w.mismatches));
  if (w.stream) {
    note(r, "stream: %.0f submitted, %.0f failed, %.0f shed",
         static_cast<double>(w.stream->submitted),
         static_cast<double>(w.stream->failed),
         static_cast<double>(w.stream->shed));
  }
  add_shape_notes(r, w);
}

void add_per_layer(RunResult& r, const Window& w, double overhead_ratio) {
  const double rows = static_cast<double>(w.rows);
  const StackCounters& e = w.engine;
  const ProbeTotals& p = *w.probes;
  add_metric(r, "client.send_lag_p99_us", "us", quantile(w.send_lag_us, 0.99));
  add_metric(r, "client.cpu_us_per_row", "us", ratio(w.client_cpu_s * 1e6, rows));
  add_metric(r, "net.overhead_p50_us", "us", quantile(w.overhead_us, 0.5));
  add_metric(r, "net.overhead_p99_us", "us", quantile(w.overhead_us, 0.99));
  add_metric(r, "net.requests", "count", static_cast<double>(e.net_requests));
  add_metric(r, "serve.queue_wait_p50_us", "us", quantile(w.queue_wait_us, 0.5));
  add_metric(r, "serve.queue_wait_p99_us", "us", quantile(w.queue_wait_us, 0.99));
  add_metric(r, "serve.service_p50_us", "us", quantile(w.service_us, 0.5));
  add_metric(r, "serve.service_p99_us", "us", quantile(w.service_us, 0.99));
  add_metric(r, "serve.batch_rows_mean", "rows",
             ratio(static_cast<double>(e.batched), static_cast<double>(e.batches)));
  add_metric(r, "serve.cache_hit_ratio", "ratio",
             ratio(static_cast<double>(e.cache_hits),
                   static_cast<double>(e.cache_hits + e.cache_misses)));
  add_metric(r, "serve.cache_evictions", "count", static_cast<double>(e.evictions));
  add_metric(r, "chain.fetch_calls_per_row", "ratio",
             ratio(static_cast<double>(p.fetch_us.size()), rows));
  add_metric(r, "chain.fetch_mean_us", "us", mean(p.fetch_us));
  add_metric(r, "chain.fetch_p99_us", "us", quantile(p.fetch_us, 0.99));
  add_metric(r, "ml.infer_calls", "count", static_cast<double>(p.cascade_calls));
  add_metric(r, "ml.infer_rows_mean", "rows",
             ratio(static_cast<double>(p.cascade_rows),
                   static_cast<double>(p.cascade_calls)));
  add_metric(r, "ml.infer_us_per_row", "us",
             ratio(p.cascade_us, static_cast<double>(p.cascade_rows)));
  add_metric(r, "ml.stage0_us_per_row", "us",
             ratio(p.stage0_us, static_cast<double>(p.stage0_rows)));
  add_metric(r, "ml.stage1_us_per_row", "us",
             ratio(p.stage1_us, static_cast<double>(p.stage1_rows)));
  add_metric(r, "ml.escalation_ratio", "ratio",
             ratio(static_cast<double>(p.stage1_rows),
                   static_cast<double>(p.stage0_rows)));
  add_metric(r, "ml.rows_per_request", "ratio",
             ratio(static_cast<double>(p.cascade_rows), rows));
  const stream::StreamReport report = w.stream.value_or(stream::StreamReport{});
  add_metric(r, "stream.dedup_hit_ratio", "ratio", report.follower.dedup_hit_rate());
  add_metric(r, "stream.max_ingest_lag_blocks", "blocks",
             static_cast<double>(report.max_ingest_lag_blocks));
  add_metric(r, "stream.requery_share", "ratio",
             ratio(static_cast<double>(report.requery_submits),
                   static_cast<double>(report.submitted)));
  add_metric(r, "stream.starved_arrivals", "count",
             static_cast<double>(report.starved_arrivals));
  add_metric(r, "proc.ctx_switches_per_row", "ratio",
             ratio(static_cast<double>(w.context_switches), rows));
  add_metric(r, "proc.threads", "count", static_cast<double>(w.threads));
  add_metric(r, "proc.cpu_us_per_row", "us", median_over_blocks(w, cpu_per_row));
  add_metric(r, "trace.overhead_ratio", "ratio", overhead_ratio);
  add_metric(r, "shape.mean_code_bytes", "bytes", w.mean_code_bytes);
  add_metric(r, "shape.batch_dup_share", "ratio", duplicate_share(e));
  note(r, "traced window: %.0f client samples, %.0f fetch samples, %.0f spans dropped",
       static_cast<double>(w.queue_wait_us.size()),
       static_cast<double>(p.fetch_us.size()),
       static_cast<double>(p.spans_dropped));
  add_shape_notes(r, w);
}

void account(RunResult& r, const Window& w) {
  r.attempted += w.attempted;
  r.failed += w.errors;
  for (const std::string& problem : w.problems) r.problems.push_back(problem);
}

std::unique_ptr<Served> serve_inputs(const Inputs& in, LayerProbes* probes) {
  auto served = std::make_unique<Served>();
  served->stack = std::make_unique<ServingStack>(in.spec(), probes);
  return served;
}

/// The CPUs this process may run on; {-1} (no pinning) if unknown.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

/// Pins the calling thread to one CPU for its lifetime, then restores its
/// previous affinity. Threads started meanwhile inherit the pin.
class PinnedTo {
 public:
  explicit PinnedTo(int cpu) {
    CPU_ZERO(&saved_);
    if (cpu < 0 || pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  ~PinnedTo() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }

  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Times one set-up (inputs, fit, chain, bind) with this thread pinned to
/// `cpu`, then tears it down untimed. Pinning this thread, not a new one,
/// keeps the rounds in the main malloc arena, so they do not raise
/// rss_peak_mb.
double timed_setup(Workload workload, std::uint64_t seed, double horizon_s,
                   int cpu) {
  const PinnedTo pin(cpu);
  const Clock::time_point begin = Clock::now();
  const Inputs in = make_inputs(workload, seed, horizon_s);
  const std::unique_ptr<Served> served = serve_inputs(in, nullptr);
  return elapsed_s(begin, Clock::now());
}

/// One set-up pass: the mean of one set-up pinned to each CPU in turn. The
/// vCPUs of a shared host run at different speeds (one whose host sibling
/// is busy ran this set-up about 45% slower), and which ones are slow
/// changes from minute to minute; a set-up left to the scheduler lands on
/// one of them, so its time jumps between modes.
double setup_pass(Workload workload, std::uint64_t seed, double horizon_s,
                  const std::vector<int>& cpus) {
  double total = 0.0;
  for (const int cpu : cpus) total += timed_setup(workload, seed, horizon_s, cpu);
  return total / static_cast<double>(cpus.size());
}

}  // namespace

RunResult run_workload(const RunConfig& config) {
  RunResult result;
  const Workload workload = config.workload;
  const double window_s = config.trace ? config.seconds / 2 : config.seconds;
  const double horizon_s = kWarmupS + window_s;

  // The training pool is built on first use. Build it here, on this
  // unpinned thread, so its workers do not inherit a set-up round's pin.
  phishinghook::common::ThreadPool::global();
  std::vector<double> setups;
  if (!config.trace) {
    const std::vector<int> cpus = allowed_cpus();
    for (int pass = 0; pass < kSetupPasses; ++pass) {
      setups.push_back(setup_pass(workload, config.seed, horizon_s, cpus));
    }
    note(result, "set-up median %.4f s (%.4f to %.4f) over %.0f passes of %.0f CPUs",
         quantile(setups, 0.5), quantile(setups, 0.0), quantile(setups, 1.0),
         static_cast<double>(setups.size()), static_cast<double>(cpus.size()));
  }
  // The stack that serves the run, built once more on an unpinned thread.
  const Inputs inputs = make_inputs(workload, config.seed, horizon_s);
  std::unique_ptr<Served> served = serve_inputs(inputs, nullptr);
  fill_oracle(*served, inputs);
  note(result, "oracle holds %.0f addresses",
       static_cast<double>(served->oracle.size()));

  const Window plain = run_window(*served, inputs, window_s, nullptr);
  account(result, plain);
  if (!config.trace) {
    add_end_to_end(result, plain, quantile(setups, 0.5));
  } else {
    // Same inputs, decorated stack; the oracle carries over because the
    // fit and the deployments are deterministic.
    std::unique_ptr<Served> plain_served = std::move(served);
    plain_served->stack.reset();
    LayerProbes probes;
    served = serve_inputs(inputs, &probes);
    served->oracle = std::move(plain_served->oracle);
    served->addresses = std::move(plain_served->addresses);
    served->hexes = std::move(plain_served->hexes);
    served->mean_code_bytes = plain_served->mean_code_bytes;
    if (workload != Workload::kStreamFollow &&
        served->stack->deployed() != served->addresses) {
      result.problems.push_back("traced stack deployed different addresses");
    }
    Window traced = run_window(*served, inputs, window_s, &probes);
    account(result, traced);
    add_per_layer(result, traced,
                  ratio(headline_cost(workload, traced), headline_cost(workload, plain)));
    if (!config.trace_path.empty()) {
      std::vector<Span> spans = std::move(traced.probes->spans);
      spans.insert(spans.end(), traced.client_spans.begin(), traced.client_spans.end());
      link_fetches(spans, traced.request_rows);
      if (!write_chrome_trace(config.trace_path, spans)) {
        result.problems.push_back("cannot write trace " + config.trace_path);
      } else {
        result.notes.push_back("trace: " + config.trace_path);
      }
    }
  }
  result.correct = result.problems.empty() && result.failed == 0;
  return result;
}

}  // namespace perfbench

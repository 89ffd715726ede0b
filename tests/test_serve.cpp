// Serving subsystem: artifact round-trips, the sharded LRU score cache,
// service metrics, the batching scoring engine (including the
// multi-producer consistency check the TSan build exercises), wave
// admission through the callback primitive, and phook_scoreBatch over a
// loopback socket: request order, shed rows and the conservation law end
// to end, and frames freed after their replies.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "chain/chain_store.hpp"
#include "common/binary_io.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/bem.hpp"
#include "core/model_registry.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/random_forest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/artifact.hpp"
#include "serve/metrics.hpp"
#include "serve/rpc_frontend.hpp"
#include "serve/score_cache.hpp"
#include "serve/scoring_engine.hpp"
#include "synth/dataset_builder.hpp"

namespace phishinghook {
namespace {

// One small dataset shared by the whole suite (building it is the slow
// part; the serving tests only need codes + labels + the chain).
const synth::BuiltDataset& dataset() {
  static const synth::BuiltDataset built = [] {
    synth::DatasetConfig config;
    config.target_size = 160;
    config.seed = 97;
    return synth::DatasetBuilder(config).build();
  }();
  return built;
}

std::vector<const evm::Bytecode*> dataset_codes() {
  std::vector<const evm::Bytecode*> codes;
  for (const synth::LabeledContract& sample : dataset().samples) {
    codes.push_back(&sample.code);
  }
  return codes;
}

std::vector<int> dataset_labels() {
  std::vector<int> labels;
  for (const synth::LabeledContract& sample : dataset().samples) {
    labels.push_back(sample.phishing ? 1 : 0);
  }
  return labels;
}

core::HistogramAdapter fitted_adapter(
    std::unique_ptr<ml::TabularClassifier> model) {
  core::HistogramAdapter adapter(std::move(model), "test-detector");
  adapter.fit(dataset_codes(), dataset_labels());
  return adapter;
}

/// Sends one HTTP request (which must ask for Connection: close) to
/// 127.0.0.1:port; returns the response body ("" on any transport failure).
std::string http_body(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buffer[4096];
      ssize_t n = 0;
      while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
        response.append(buffer, static_cast<std::size_t>(n));
      }
    }
  }
  ::close(fd);
  const std::size_t head_end = response.find("\r\n\r\n");
  return head_end == std::string::npos ? std::string()
                                       : response.substr(head_end + 4);
}

/// One JSON-RPC POST; returns the response body.
std::string rpc_post(std::uint16_t port, const std::string& body) {
  return http_body(port, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                             std::to_string(body.size()) +
                             "\r\nConnection: close\r\n\r\n" + body);
}

/// One GET; returns the response body.
std::string http_get(std::uint16_t port, const std::string& target) {
  return http_body(port, "GET " + target +
                             " HTTP/1.1\r\nHost: x\r\n"
                             "Connection: close\r\n\r\n");
}

/// Admits `wave` through the engine's callback primitive and waits for
/// every row; nullopt when the engine refused the wave.
std::optional<std::vector<serve::ScoreResult>> submit_wave(
    serve::ScoringEngine& engine, const std::vector<evm::Address>& wave) {
  struct Rows {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<serve::ScoreResult> results;
    std::size_t left = 0;
  };
  auto rows = std::make_shared<Rows>();
  rows->results.resize(wave.size());
  rows->left = wave.size();
  if (!engine.try_submit_many(
          wave, {}, [rows](std::size_t index, serve::ScoreResult result) {
            std::lock_guard<std::mutex> lock(rows->mutex);
            rows->results[index] = std::move(result);
            if (--rows->left == 0) rows->cv.notify_all();
          })) {
    return std::nullopt;
  }
  std::unique_lock<std::mutex> lock(rows->mutex);
  rows->cv.wait(lock, [&] { return rows->left == 0; });
  return std::move(rows->results);
}

/// Scorer whose score_batch waits until open(): it holds the engine's
/// worker so a test can see the state before any row is scored.
class GatedScorer final : public ml::Scorer {
 public:
  explicit GatedScorer(ml::Scorer& inner) : inner_(&inner) {}

  void score_batch(const ml::BytecodeBatchView& view,
                   std::span<ml::ScoredRow> out) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    inner_->score_batch(view, out);
  }
  std::string name() const override { return inner_->name(); }

  void wait_entered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  ml::Scorer* inner_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

/// Scorer that opens a parallel_for_chunks region over its rows, as the
/// histogram transform and the flat-tree walk do, and counts the chunks
/// that ran on a thread other than the one that called score_batch.
class RegionScorer final : public ml::Scorer {
 public:
  void score_batch(const ml::BytecodeBatchView& view,
                   std::span<ml::ScoredRow> out) override {
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex chunk_mutex;
    std::vector<std::thread::id> chunk_threads;
    common::parallel_for_chunks(
        view.size(), [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            std::uint64_t sum = 0;
            for (std::uint8_t byte : view[i].bytes()) sum += byte;
            out[i].probability = static_cast<double>(sum % 1000) / 1000.0;
          }
          std::lock_guard<std::mutex> lock(chunk_mutex);
          chunk_threads.push_back(std::this_thread::get_id());
        });
    for (const std::thread::id id : chunk_threads) {
      ++chunks_;
      if (id != caller) ++foreign_chunks_;
    }
  }
  std::string name() const override { return "region-stub"; }

  std::uint64_t chunks() const { return chunks_.load(); }
  std::uint64_t foreign_chunks() const { return foreign_chunks_.load(); }

 private:
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> foreign_chunks_{0};
};

/// Redeploys `next` at `target` right after the first submission probe of
/// it: the write lands between the probe and the worker's fetch, as a
/// metamorphic contract's redeploy can.
class RedeployAfterProbe final : public chain::Explorer {
 public:
  RedeployAfterProbe(chain::ChainStore& chain, const evm::Address& target,
                     evm::Bytecode next)
      : chain::Explorer(chain), chain_(&chain), plain_(chain),
        target_(target), next_(std::move(next)) {}

  std::optional<chain::StoredCode> stored_code(
      const evm::Address& address,
      chain::ReadMode mode = chain::ReadMode::kWait) const override {
    std::optional<chain::StoredCode> read = plain_.stored_code(address, mode);
    if (mode == chain::ReadMode::kTry && address == target_ &&
        armed_.exchange(false)) {
      chain_->state().set_code(address, next_);
    }
    return read;
  }

 private:
  chain::ChainStore* chain_;
  chain::Explorer plain_;
  evm::Address target_;
  evm::Bytecode next_;
  mutable std::atomic<bool> armed_{true};
};

evm::Hash256 hash_of_byte(std::uint8_t b) {
  evm::Hash256 h{};
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = static_cast<std::uint8_t>(b + i);
  return h;
}

// --- result writer -----------------------------------------------------------

/// The result object as a JsonValue tree, the encoding the writer replaced:
/// write_result must produce its dump() byte for byte.
net::JsonValue result_tree(const serve::ScoreResult& result) {
  using net::JsonValue;
  JsonValue out;
  out.set("address", JsonValue::string(result.address.to_hex()));
  out.set("status", JsonValue::string(serve::to_string(result.status)));
  out.set("probability", JsonValue::number(result.probability));
  out.set("flagged", JsonValue::boolean(result.flagged));
  out.set("cache_hit", JsonValue::boolean(result.cache_hit));
  out.set("stage", JsonValue::number(static_cast<double>(result.stage)));
  if (!result.model.empty()) {
    out.set("model", JsonValue::string(result.model));
  }
  out.set("latency_us", JsonValue::number(result.latency_us));
  out.set("queue_wait_us", JsonValue::number(result.queue_wait_us));
  out.set("trace_id",
          JsonValue::number(static_cast<double>(result.trace_id)));
  if (!result.error.empty()) {
    out.set("error", JsonValue::string(result.error));
  }
  return out;
}

TEST(RpcResultWriter, MatchesTheJsonValueTreeByteForByte) {
  const std::vector<serve::ScoreStatus> statuses = {
      serve::ScoreStatus::kOk,           serve::ScoreStatus::kEmptyCode,
      serve::ScoreStatus::kDegraded,     serve::ScoreStatus::kExtractError,
      serve::ScoreStatus::kModelError,   serve::ScoreStatus::kShed};
  const std::vector<std::string> models = {"", "random-forest",
                                           "cascade(\"a\" -> b\\c)"};
  const std::vector<std::string> errors = {
      "", "eth_getCode failed", "quote \" backslash \\ newline \n tab \t",
      std::string("ctl \x01\x1f\x7f end"), "utf-8 \xc3\xa9 raw \xff\x80"};
  const std::vector<double> probabilities = {
      -0.0, 0.0, 0.1, 1.0, 0.7071067811865476,
      std::numeric_limits<double>::denorm_min(), 2.2250738585072e-310};
  const std::vector<double> latencies = {
      0.0, 12.5, 1171.337, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity()};
  const std::vector<std::uint64_t> trace_ids = {
      0, 1, 9000000000000000ull - 1, 9007199254740993ull,
      std::numeric_limits<std::uint64_t>::max()};

  std::size_t cases = 0;
  std::size_t i = 0;
  for (const serve::ScoreStatus status : statuses) {
    for (const std::string& model : models) {
      for (const std::string& error : errors) {
        for (const double probability : probabilities) {
          serve::ScoreResult result;
          result.address = evm::Address::from_hex(
              "0x279e2f385ce22f88650632d04260382bfb91808" +
              std::to_string(i % 10));
          result.status = status;
          result.probability = probability;
          result.flagged = i % 2 == 0;
          result.cache_hit = i % 3 == 0;
          result.stage = static_cast<std::uint32_t>(i % 2);
          result.model = model;
          result.error = error;
          result.latency_us = latencies[i % latencies.size()];
          result.queue_wait_us = latencies[(i + 2) % latencies.size()];
          result.trace_id = trace_ids[i % trace_ids.size()];
          ++i;

          std::string out = "prefix,";
          serve::write_result(out, result);
          ASSERT_EQ(out, "prefix," + result_tree(result).dump());
          std::string why;
          const std::optional<net::JsonValue> doc = net::JsonValue::parse(
              std::string_view(out).substr(7), &why);
          ASSERT_TRUE(doc.has_value()) << why << ": " << out;
          const double parsed = doc->find("probability")->as_number();
          EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
                    std::bit_cast<std::uint64_t>(probability))
              << out;
          EXPECT_EQ(doc->find("error") != nullptr, !error.empty());
          EXPECT_EQ(doc->find("model") != nullptr, !model.empty());
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, statuses.size() * models.size() * errors.size() *
                       probabilities.size());
}

// --- artifact round-trips ----------------------------------------------------

TEST(Artifact, RandomForestRoundTripIsBitIdentical) {
  ml::RandomForestConfig config;
  config.n_trees = 12;
  config.max_depth = 8;
  core::HistogramAdapter adapter =
      fitted_adapter(std::make_unique<ml::RandomForestClassifier>(config));

  std::stringstream buffer;
  serve::save_scorer_artifact(buffer, adapter);
  const std::unique_ptr<ml::Scorer> scorer =
      serve::load_scorer_artifact(buffer);
  auto* loaded = dynamic_cast<core::HistogramAdapter*>(scorer.get());
  ASSERT_NE(loaded, nullptr);

  EXPECT_EQ(loaded->name(), adapter.name());
  EXPECT_EQ(loaded->vocabulary().mnemonics(), adapter.vocabulary().mnemonics());

  // 100+ codes, exact equality — doubles travel as raw bits.
  std::vector<const evm::Bytecode*> codes = dataset_codes();
  ASSERT_GE(codes.size(), 100u);
  const std::vector<double> expected = adapter.predict_proba(codes);
  const std::vector<double> actual = loaded->predict_proba(codes);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "row " << i;
  }
}

TEST(Artifact, LogisticRegressionRoundTripIsBitIdentical) {
  ml::LogisticRegressionConfig config;
  config.epochs = 60;
  core::HistogramAdapter adapter = fitted_adapter(
      std::make_unique<ml::LogisticRegressionClassifier>(config));

  std::stringstream buffer;
  serve::save_scorer_artifact(buffer, adapter);
  const std::unique_ptr<ml::Scorer> scorer =
      serve::load_scorer_artifact(buffer);
  auto* loaded = dynamic_cast<core::HistogramAdapter*>(scorer.get());
  ASSERT_NE(loaded, nullptr);

  std::vector<const evm::Bytecode*> codes = dataset_codes();
  const std::vector<double> expected = adapter.predict_proba(codes);
  const std::vector<double> actual = loaded->predict_proba(codes);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "row " << i;
  }
}

TEST(Artifact, FileRoundTrip) {
  core::HistogramAdapter adapter = fitted_adapter(
      std::make_unique<ml::LogisticRegressionClassifier>());
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "phook_test_artifact.phookmdl";
  serve::save_scorer_artifact_file(path, adapter);
  const auto loaded = serve::load_scorer_artifact_file(path);
  EXPECT_EQ(loaded->name(), adapter.name());
  std::filesystem::remove(path);
}

TEST(Artifact, RejectsBadMagicAndVersionAndTruncation) {
  core::HistogramAdapter adapter = fitted_adapter(
      std::make_unique<ml::LogisticRegressionClassifier>());
  std::stringstream good;
  serve::save_scorer_artifact(good, adapter);
  const std::string bytes = good.str();

  {
    std::stringstream bad("XXXXXXXX" + bytes.substr(8));
    EXPECT_THROW(serve::load_scorer_artifact(bad), ParseError);
  }
  {
    std::string versioned = bytes;
    versioned[8] = 99;  // version field follows the 8-byte magic
    std::stringstream bad(versioned);
    EXPECT_THROW(serve::load_scorer_artifact(bad), ParseError);
  }
  {
    std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(serve::load_scorer_artifact(truncated), ParseError);
  }
}

TEST(Artifact, SaveBeforeFitThrows) {
  ml::RandomForestClassifier unfitted;
  std::stringstream buffer;
  EXPECT_THROW(unfitted.save(buffer), StateError);
}

TEST(Artifact, ClassifierFactoryRejectsUnknownTag) {
  std::stringstream buffer;
  common::write_string(buffer, "phook.mystery.v1");
  EXPECT_THROW(ml::TabularClassifier::load(buffer), ParseError);
}

// --- sharded score cache -----------------------------------------------------

TEST(ScoreCache, EvictsLeastRecentlyUsedInOrder) {
  serve::ShardedScoreCache cache(/*capacity=*/3, /*shards=*/1);
  const auto a = hash_of_byte(1), b = hash_of_byte(2), c = hash_of_byte(3),
             d = hash_of_byte(4);
  cache.put(a, 0.1);
  cache.put(b, 0.2);
  cache.put(c, 0.3);
  ASSERT_TRUE(cache.get(a).has_value());  // refresh a: LRU order is b, c, a
  cache.put(d, 0.4);                      // evicts b
  EXPECT_FALSE(cache.get(b).has_value());
  EXPECT_EQ(cache.get(a), (serve::CachedScore{0.1, 0}));
  EXPECT_EQ(cache.get(c), (serve::CachedScore{0.3, 0}));
  EXPECT_EQ(cache.get(d), (serve::CachedScore{0.4, 0}));

  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(ScoreCache, PutRefreshesExistingKey) {
  serve::ShardedScoreCache cache(2, 1);
  const auto a = hash_of_byte(1), b = hash_of_byte(2), c = hash_of_byte(3);
  cache.put(a, 0.1);
  cache.put(b, 0.2);
  cache.put(a, 0.9);  // refresh, not insert: b is now the LRU entry
  cache.put(c, 0.3);
  EXPECT_EQ(cache.get(a), (serve::CachedScore{0.9, 0}));
  EXPECT_FALSE(cache.get(b).has_value());
}

TEST(ScoreCache, ShardingSpreadsKeysAndIsolatesCapacity) {
  serve::ShardedScoreCache cache(/*capacity=*/64, /*shards=*/8);
  EXPECT_EQ(cache.shard_count(), 8u);
  EXPECT_EQ(cache.capacity(), 64u);

  std::set<std::size_t> shards_touched;
  for (int i = 0; i < 64; ++i) {
    evm::Bytecode code({static_cast<std::uint8_t>(i),
                        static_cast<std::uint8_t>(i >> 3), 0x60, 0x00});
    shards_touched.insert(cache.shard_index(code.code_hash()));
  }
  // Keccak output spreads 64 distinct codes over nearly all 8 shards.
  EXPECT_GE(shards_touched.size(), 6u);

  // Rounds shard counts up to a power of two.
  serve::ShardedScoreCache odd(30, 3);
  EXPECT_EQ(odd.shard_count(), 4u);
  EXPECT_EQ(odd.capacity(), 30u);  // 8+8+7+7, not 4*7

  EXPECT_THROW(serve::ShardedScoreCache(0, 1), InvalidArgument);
  EXPECT_THROW(serve::ShardedScoreCache(8, 0), InvalidArgument);
}

TEST(ScoreCache, CapacityMatchesRequestedBudgetExactly) {
  // Regression: bit_ceil(6)=8 shards with floor division used to report 96
  // entries for a 100-entry budget. The remainder now spreads across
  // shards so the requested budget is provisioned exactly.
  serve::ShardedScoreCache cache(100, 6);
  EXPECT_EQ(cache.shard_count(), 8u);
  EXPECT_EQ(cache.capacity(), 100u);

  // Fewer entries than shards: the shard count shrinks (power of two) so
  // no shard holds a zero budget.
  serve::ShardedScoreCache tiny(5, 8);
  EXPECT_EQ(tiny.shard_count(), 4u);
  EXPECT_EQ(tiny.capacity(), 5u);

  serve::ShardedScoreCache one(1, 16);
  EXPECT_EQ(one.shard_count(), 1u);
  EXPECT_EQ(one.capacity(), 1u);
}

TEST(ScoreCache, CountsHitsAndMisses) {
  serve::ShardedScoreCache cache(8, 2);
  const auto a = hash_of_byte(7);
  EXPECT_FALSE(cache.get(a).has_value());
  cache.put(a, 0.5);
  EXPECT_TRUE(cache.get(a).has_value());
  EXPECT_TRUE(cache.get(a).has_value());
  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 3.0);
}

TEST(ScoreCache, UncountedMissLeavesTheMissCountAlone) {
  serve::ShardedScoreCache cache(8, 2);
  const auto a = hash_of_byte(7);
  EXPECT_FALSE(cache.get(a, /*count_miss=*/false).has_value());
  EXPECT_EQ(cache.stats().misses, 0u);
  cache.put(a, 0.5);
  EXPECT_TRUE(cache.get(a, /*count_miss=*/false).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);  // hits are always counted
  EXPECT_EQ(cache.stats().misses, 0u);
}

// --- metrics -----------------------------------------------------------------

TEST(Metrics, HistogramQuantilesBracketRecordedValues) {
  serve::LatencyHistogram histogram;
  for (int i = 0; i < 99; ++i) histogram.record(100.0);  // bucket [64, 128)
  histogram.record(100000.0);  // one 100ms outlier
  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_NEAR(histogram.mean(), 1099.0, 1.0);
  EXPECT_EQ(histogram.max_value(), 100000.0);
  EXPECT_LE(histogram.quantile(0.50), 256.0);
  EXPECT_GE(histogram.quantile(0.995), 65536.0);
}

TEST(Metrics, ScopedTimerFeedsSink) {
  double recorded = -1.0;
  {
    common::ScopedTimer timer([&](double s) { recorded = s; });
  }
  EXPECT_GE(recorded, 0.0);

  recorded = -1.0;
  {
    common::ScopedTimer timer([&](double s) { recorded = s; });
    timer.cancel();
  }
  EXPECT_EQ(recorded, -1.0);

  int fires = 0;
  {
    common::ScopedTimer timer([&](double) { ++fires; });
    timer.stop();
  }
  EXPECT_EQ(fires, 1);  // stop() disarms the destructor
}

// --- scoring engine ----------------------------------------------------------

class ScoringEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    adapter_ = std::make_unique<core::HistogramAdapter>(fitted_adapter(
        std::make_unique<ml::RandomForestClassifier>(small_forest())));
    for (const synth::LabeledContract& sample : dataset().samples) {
      addresses_.push_back(sample.address);
    }
  }

  static ml::RandomForestConfig small_forest() {
    ml::RandomForestConfig config;
    config.n_trees = 8;
    config.max_depth = 6;
    return config;
  }

  /// Ground truth: the same codes scored directly, bypassing the engine.
  std::vector<double> direct_scores() {
    const core::BytecodeExtractionModule bem(*dataset().explorer);
    std::vector<double> out;
    for (const evm::Address& address : addresses_) {
      const core::ExtractedContract contract = bem.extract(address);
      out.push_back(contract.code.empty()
                        ? 0.0
                        : adapter_->predict_proba({&contract.code}).front());
    }
    return out;
  }

  /// Ground truth for a wave: its codes through one direct score_batch.
  std::vector<ml::ScoredRow> direct_batch(
      const std::vector<evm::Address>& wave) {
    const core::BytecodeExtractionModule bem(*dataset().explorer);
    std::vector<evm::Bytecode> codes;
    for (const evm::Address& address : wave) {
      codes.push_back(bem.extract(address).code);
    }
    std::vector<const evm::Bytecode*> views;
    for (const evm::Bytecode& code : codes) views.push_back(&code);
    std::vector<ml::ScoredRow> rows(views.size());
    adapter_->score_batch(ml::BytecodeBatchView(views), rows);
    return rows;
  }

  std::unique_ptr<core::HistogramAdapter> adapter_;
  std::vector<evm::Address> addresses_;
};

TEST_F(ScoringEngineTest, SingleThreadMatchesDirectScoring) {
  serve::EngineConfig config;
  config.workers = 1;
  config.max_batch = 16;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  const std::vector<serve::ScoreResult> results = engine.score_all(addresses_);
  const std::vector<double> expected = direct_scores();
  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].probability, expected[i]) << "address " << i;
    EXPECT_EQ(results[i].address, addresses_[i]);
    EXPECT_EQ(results[i].flagged, results[i].probability >= 0.5);
  }
}

TEST_F(ScoringEngineTest, MultiProducerMultiWorkerMatchesSingleThreaded) {
  serve::EngineConfig config;
  config.workers = 4;
  config.max_batch = 8;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);

  constexpr int kProducers = 4;
  std::vector<std::vector<serve::ScoreResult>> per_producer(kProducers);
  {
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::vector<std::future<serve::ScoreResult>> futures;
        for (const evm::Address& address : addresses_) {
          futures.push_back(engine.submit(address));
        }
        for (auto& future : futures) {
          per_producer[p].push_back(future.get());
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
  }

  const std::vector<double> expected = direct_scores();
  std::uint64_t hits = 0;
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(per_producer[p].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(per_producer[p][i].probability, expected[i])
          << "producer " << p << " address " << i;
      hits += per_producer[p][i].cache_hit ? 1 : 0;
    }
  }

  // 4 producers x N addresses with heavy on-chain duplication: the cache
  // must be carrying most of the load, whether a hit was answered at
  // submission or by a worker that found a score cached while its row
  // queued.
  const serve::CacheStats stats = engine.cache_stats();
  EXPECT_GT(stats.hits, stats.misses);
  // Each row counts once: a submission miss is counted by the worker.
  const std::uint64_t rows =
      static_cast<std::uint64_t>(kProducers) * addresses_.size();
  EXPECT_EQ(stats.hits + stats.misses, rows);
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(engine.metrics().requests_completed.value(), rows);
}

// Two batches on two workers meet the same new code: the second hands its
// row to the worker already scoring that code instead of running the model
// on it again, and the row counts as the hit it becomes once the score
// lands.
TEST_F(ScoringEngineTest, CodeBeingScoredIsNotScoredAgainByAnotherWorker) {
  chain::ChainStore chain;
  const chain::Explorer explorer(chain);
  const evm::Address deployer =
      evm::Address::from_hex("0x00000000000000000000000000000000000000aa");
  const evm::Bytecode& code = dataset().samples.front().code;
  const evm::Address first_twin =
      chain.register_contract(deployer, code).address;
  const evm::Address second_twin =
      chain.register_contract(deployer, code).address;

  GatedScorer gated(*adapter_);
  serve::EngineConfig config;
  config.workers = 2;
  serve::ScoringEngine engine(explorer, gated, config);
  std::future<serve::ScoreResult> first = engine.submit(first_twin);
  gated.wait_entered();
  std::future<serve::ScoreResult> second = engine.submit(second_twin);
  // Let the other worker fetch the twin and reach the claim.
  const serve::ServiceMetrics& m = engine.metrics();
  for (int spin = 0; spin < 5000 && m.stage_extract.count() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gated.open();

  const serve::ScoreResult a = first.get();
  const serve::ScoreResult b = second.get();
  EXPECT_EQ(a.status, serve::ScoreStatus::kOk);
  EXPECT_EQ(b.status, serve::ScoreStatus::kOk);
  EXPECT_EQ(a.probability, b.probability);
  EXPECT_FALSE(a.cache_hit);
  EXPECT_TRUE(b.cache_hit);
  EXPECT_EQ(m.model_rows.value(), 1u);
  EXPECT_EQ(m.batches.value(), 2u);
  const serve::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(ScoringEngineTest, CacheHitIsAnsweredOnTheSubmittingThread) {
  serve::EngineConfig config;
  config.workers = 2;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  const evm::Address target = addresses_.front();
  const serve::ScoreResult first = engine.submit(target).get();
  ASSERT_FALSE(first.cache_hit);
  const std::uint64_t batches = engine.metrics().batches.value();

  struct Landed {
    std::mutex mutex;
    std::optional<serve::ScoreResult> result;
    std::thread::id thread;
  };
  auto landed = std::make_shared<Landed>();
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  ASSERT_TRUE(engine.try_submit_many(
      {&target, 1}, {}, [landed](std::size_t, serve::ScoreResult result) {
        std::lock_guard<std::mutex> lock(landed->mutex);
        landed->result = std::move(result);
        landed->thread = std::this_thread::get_id();
      }));
  tracer.disable();
  std::ostringstream trace;
  tracer.write_chrome_trace(trace);
  tracer.clear();

  // Answered before try_submit_many returned, on this thread.
  std::lock_guard<std::mutex> lock(landed->mutex);
  ASSERT_TRUE(landed->result.has_value());
  EXPECT_EQ(landed->thread, std::this_thread::get_id());
  const serve::ScoreResult& hit = *landed->result;
  EXPECT_EQ(hit.status, serve::ScoreStatus::kOk);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.probability, first.probability);
  EXPECT_EQ(hit.model, first.model);
  EXPECT_EQ(hit.address, target);
  EXPECT_EQ(hit.queue_wait_us, 0.0);
  EXPECT_GT(hit.latency_us, 0.0);
  EXPECT_NE(hit.trace_id, 0u);

  // Counted like any other row, and no worker was involved.
  const serve::ServiceMetrics& m = engine.metrics();
  EXPECT_EQ(m.requests_submitted.value(), 2u);
  EXPECT_EQ(m.requests_submitted.value(),
            m.requests_completed.value() + m.requests_failed.value() +
                m.requests_shed.value());
  EXPECT_EQ(m.batches.value(), batches);
  EXPECT_EQ(m.request_latency.count(), 2u);
  EXPECT_EQ(m.stage_queue_wait.count(), 2u);
  EXPECT_EQ(m.stage_extract.count(), 2u);
  // Its extract stage is drawn on its lane.
  EXPECT_NE(trace.str().find("\"name\":\"req.extract\""), std::string::npos)
      << trace.str();
}

TEST_F(ScoringEngineTest, NothingIsAnsweredAtSubmissionAfterShutdown) {
  serve::EngineConfig config;
  config.workers = 2;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  const evm::Address target = addresses_.front();
  engine.submit(target).get();  // cached: the next ask would be a hit
  engine.shutdown();

  const serve::ServiceMetrics& m = engine.metrics();
  const std::uint64_t submitted = m.requests_submitted.value();
  const std::uint64_t hits = engine.cache_stats().hits;
  bool ran = false;
  EXPECT_FALSE(engine.try_submit_many(
      {&target, 1}, {}, [&ran](std::size_t, serve::ScoreResult) { ran = true; }));
  EXPECT_FALSE(ran);
  EXPECT_EQ(m.requests_submitted.value(), submitted);
  EXPECT_EQ(engine.cache_stats().hits, hits);
}

TEST_F(ScoringEngineTest, CacheHitsAreMarkedAndDeduplicated) {
  serve::EngineConfig config;
  config.workers = 1;
  config.max_batch = 4;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);

  const evm::Address target = addresses_.front();
  const serve::ScoreResult first = engine.submit(target).get();
  const serve::ScoreResult second = engine.submit(target).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.probability, second.probability);
}

TEST_F(ScoringEngineTest, EmptyCodeIsScoredZeroNotCrashed) {
  serve::EngineConfig config;
  config.workers = 1;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  const serve::ScoreResult result =
      engine.submit(evm::Address::from_hex(
                        "0x00000000000000000000000000000000000000ff"))
          .get();
  EXPECT_EQ(result.status, serve::ScoreStatus::kEmptyCode);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.probability, 0.0);
  EXPECT_FALSE(result.flagged);
  EXPECT_EQ(engine.metrics().empty_code_requests.value(), 1u);
}

TEST_F(ScoringEngineTest, SubmitAfterShutdownThrows) {
  serve::EngineConfig config;
  config.workers = 2;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  engine.submit(addresses_.front()).get();
  engine.shutdown();
  engine.shutdown();  // idempotent
  EXPECT_THROW(engine.submit(addresses_.front()), StateError);
}

TEST_F(ScoringEngineTest, WaveOfSixtyFourFillsExactlyTwoBatches) {
  serve::EngineConfig config;
  config.workers = 1;
  config.max_batch = 32;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);

  const std::vector<evm::Address> wave(addresses_.begin(),
                                       addresses_.begin() + 64);
  ASSERT_EQ(std::set<evm::Address>(wave.begin(), wave.end()).size(), 64u);
  const std::optional<std::vector<serve::ScoreResult>> results =
      submit_wave(engine, wave);
  ASSERT_TRUE(results.has_value());
  ASSERT_EQ(results->size(), wave.size());

  const std::vector<ml::ScoredRow> expected = direct_batch(wave);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const serve::ScoreResult& result = (*results)[i];
    EXPECT_EQ(result.address, wave[i]);
    ASSERT_EQ(result.status, serve::ScoreStatus::kOk) << "row " << i;
    EXPECT_EQ(result.probability, expected[i].probability) << "row " << i;
  }
  // The whole wave was queued before the idle worker woke, so it takes two
  // full batches and never an under-full one.
  EXPECT_EQ(engine.metrics().batches.value(), 2u);
  EXPECT_EQ(engine.metrics().batched_requests.value(), 64u);
}

// The engine's workers are the serving path's parallelism: a region the
// scorer opens runs whole on the worker that called score_batch, and the
// global pool sees no region, even when it has threads to spare. The
// scores are the ones the same scorer gives when its region fans out.
TEST_F(ScoringEngineTest, WorkersRunScorerRegionsInline) {
  const std::size_t pool_threads = common::ThreadPool::global().size();
  struct RestorePool {
    std::size_t threads;
    ~RestorePool() { common::ThreadPool::set_global_threads(threads); }
  } restore{pool_threads};
  common::ThreadPool::set_global_threads(4);
  const obs::Counter regions =
      obs::MetricsRegistry::global().counter("threadpool_regions_total");

  RegionScorer scorer;
  serve::EngineConfig config;
  config.workers = 2;
  const std::vector<evm::Address> wave(addresses_.begin(),
                                       addresses_.begin() + 64);
  std::optional<std::vector<serve::ScoreResult>> results;
  const std::uint64_t regions_before = regions.value();
  {
    serve::ScoringEngine engine(*dataset().explorer, scorer, config);
    results = submit_wave(engine, wave);
  }
  EXPECT_EQ(regions.value(), regions_before);
  ASSERT_TRUE(results.has_value());
  EXPECT_GT(scorer.chunks(), 0u);
  EXPECT_EQ(scorer.foreign_chunks(), 0u);

  // The same codes straight through the scorer on this thread: the region
  // fans out over the 4-thread pool.
  const core::BytecodeExtractionModule bem(*dataset().explorer);
  std::vector<evm::Bytecode> codes;
  for (const evm::Address& address : wave) {
    codes.push_back(bem.extract(address).code);
  }
  std::vector<const evm::Bytecode*> views;
  for (const evm::Bytecode& code : codes) views.push_back(&code);
  std::vector<ml::ScoredRow> expected(views.size());
  scorer.score_batch(ml::BytecodeBatchView(views), expected);
  EXPECT_GT(regions.value(), regions_before);
  EXPECT_GT(scorer.foreign_chunks(), 0u);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    ASSERT_EQ((*results)[i].status, serve::ScoreStatus::kOk) << "row " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>((*results)[i].probability),
              std::bit_cast<std::uint64_t>(expected[i].probability))
        << "row " << i;
  }
}

TEST_F(ScoringEngineTest, RpcScoreBatchOverLoopbackKeepsRequestOrder) {
  serve::EngineConfig config;
  config.workers = 2;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  serve::RpcFrontend frontend(engine);
  frontend.start(0);

  const std::vector<evm::Address> valid(addresses_.begin(),
                                        addresses_.begin() + 3);
  const std::string body =
      R"({"jsonrpc":"2.0","id":7,"method":"phook_scoreBatch","params":[[")" +
      valid[0].to_hex() + R"(","0xnothex",")" + valid[1].to_hex() +
      R"(",42,")" + valid[2].to_hex() + R"("]]})";
  const std::string response = rpc_post(frontend.port(), body);
  frontend.stop();

  const std::optional<net::JsonValue> doc = net::JsonValue::parse(response);
  ASSERT_TRUE(doc.has_value()) << response;
  const net::JsonValue* result = doc->find("result");
  ASSERT_NE(result, nullptr) << response;
  const net::JsonValue::Array& rows = result->as_array();
  ASSERT_EQ(rows.size(), 5u);

  const std::vector<ml::ScoredRow> expected = direct_batch(valid);
  const std::size_t valid_at[] = {0, 2, 4};
  for (std::size_t v = 0; v < valid.size(); ++v) {
    const net::JsonValue& row = rows[valid_at[v]];
    EXPECT_EQ(row.find("status")->as_string(), "ok");
    EXPECT_EQ(row.find("address")->as_string(), valid[v].to_hex());
    EXPECT_EQ(row.find("probability")->as_number(), expected[v].probability)
        << "valid entry " << v;
  }
  for (const std::size_t invalid_at : {std::size_t{1}, std::size_t{3}}) {
    EXPECT_EQ(rows[invalid_at].find("status")->as_string(),
              "invalid_address");
  }
  EXPECT_EQ(engine.metrics().requests_submitted.value(), 3u);
}

TEST_F(ScoringEngineTest, RpcScoreBatchOverflowIsShedInOrderAndConserved) {
  GatedScorer gated(*adapter_);
  serve::EngineConfig config;
  config.workers = 1;
  config.max_queue = 2;
  serve::ScoringEngine engine(*dataset().explorer, gated, config);
  serve::RpcFrontend frontend(engine);
  frontend.start(0);

  const std::vector<evm::Address> wave(addresses_.begin(),
                                       addresses_.begin() + 8);
  std::string body =
      R"({"jsonrpc":"2.0","id":3,"method":"phook_scoreBatch","params":[[)";
  for (std::size_t i = 0; i < wave.size(); ++i) {
    body += (i == 0 ? "\"" : ",\"") + wave[i].to_hex() + "\"";
  }
  body += "]]}";
  std::string response;
  std::thread client([&] { response = rpc_post(frontend.port(), body); });
  // The wave is admitted under one lock into an idle engine: two rows fill
  // the queue and reach the gated model, the other six are shed at once.
  gated.wait_entered();
  EXPECT_EQ(frontend.server().frames_in_flight(), 1u);
  gated.open();
  client.join();
  frontend.stop();

  const std::optional<net::JsonValue> doc = net::JsonValue::parse(response);
  ASSERT_TRUE(doc.has_value()) << response;
  const net::JsonValue* result = doc->find("result");
  ASSERT_NE(result, nullptr) << response;
  const net::JsonValue::Array& rows = result->as_array();
  ASSERT_EQ(rows.size(), wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) {
    EXPECT_EQ(rows[i].find("address")->as_string(), wave[i].to_hex());
    EXPECT_EQ(rows[i].find("status")->as_string(), i < 2 ? "ok" : "shed")
        << "row " << i;
  }
  const serve::ServiceMetrics& m = engine.metrics();
  EXPECT_EQ(m.requests_submitted.value(), wave.size());
  EXPECT_EQ(m.requests_shed.value(), 6u);
  EXPECT_EQ(m.requests_submitted.value(),
            m.requests_completed.value() + m.requests_failed.value() +
                m.requests_shed.value());
  obs::MetricsRegistry& net_metrics = frontend.server().metrics_registry();
  EXPECT_EQ(net_metrics.counter("net_requests_total").value(), 1u);
  EXPECT_EQ(net_metrics.counter("net_requests_total").value(),
            net_metrics.counter("net_responses_total").value());
}

// A batch's shared row state, the frame's Reply and the result thunk point
// at one another; any cycle among them keeps every frame alive. The ASan
// leg runs this.
// The front door's port also serves the operator: /metrics carries the
// engine's serve_* series and the server's net_* series, /healthz is the
// phook_health document, and a scrape counts once on each side of the
// net_requests_total == net_responses_total identity.
TEST_F(ScoringEngineTest, RpcFrontendServesMetricsAndHealthzOnItsPort) {
  serve::EngineConfig config;
  config.workers = 2;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  serve::RpcFrontend frontend(engine);
  frontend.start(0);

  const std::string scored = rpc_post(
      frontend.port(),
      R"({"jsonrpc":"2.0","id":1,"method":"phook_score","params":[")" +
          addresses_[0].to_hex() + R"("]})");
  EXPECT_NE(scored.find("\"result\""), std::string::npos) << scored;
  const std::string metrics = http_get(frontend.port(), "/metrics");
  const std::string health = http_get(frontend.port(), "/healthz");
  frontend.stop();

  // The engine's pull metrics are synced per scrape and the server's
  // connection gauges by the loop; the scrape itself is the second request.
  for (const char* line :
       {"# TYPE serve_requests_completed counter", "serve_cache_hit_rate ",
        "net_requests_total 2", "net_connections_accepted 2"}) {
    EXPECT_NE(metrics.find(line), std::string::npos) << line;
  }
  EXPECT_LT(metrics.find("serve_requests_completed"),
            metrics.find("net_requests_total"));
  const std::optional<net::JsonValue> doc = net::JsonValue::parse(health);
  ASSERT_TRUE(doc.has_value()) << health;
  EXPECT_EQ(doc->find("status")->as_string(), "ok");
  for (const char* key : {"engine", "cache", "net", "model"}) {
    EXPECT_NE(doc->find(key), nullptr) << key;
  }
  EXPECT_EQ(doc->find("net")->find("requests_received")->as_number(), 3.0);

  obs::MetricsRegistry& net_metrics = frontend.server().metrics_registry();
  EXPECT_EQ(net_metrics.counter("net_requests_total").value(), 3u);
  EXPECT_EQ(net_metrics.counter("net_responses_total").value(), 3u);
  // Scrapes are not JSON-RPC frames: only the phook_score frame is timed.
  EXPECT_EQ(net_metrics.histogram("net_request_total_us").count(), 1u);
}

TEST_F(ScoringEngineTest, RpcScoreBatchFramesAreFreedOnceAnswered) {
  serve::EngineConfig config;
  config.workers = 2;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  auto frontend = std::make_unique<serve::RpcFrontend>(engine);
  frontend->start(0);

  const std::string body =
      R"({"jsonrpc":"2.0","id":1,"method":"phook_scoreBatch","params":[[")" +
      addresses_[0].to_hex() + R"(","0xnothex",")" + addresses_[1].to_hex() +
      R"("]]})";
  std::size_t answered = 0;
  for (int call = 0; call < 2000; ++call) {
    if (rpc_post(frontend->port(), body).find("\"result\"") !=
        std::string::npos) {
      ++answered;
    }
  }
  EXPECT_EQ(answered, 2000u);
  // The last frame may still be unwinding on a worker after its response.
  const net::JsonRpcServer& server = frontend->server();
  for (int spin = 0; spin < 5000 && server.frames_in_flight() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (server.frames_in_flight() != 0) {
    ADD_FAILURE() << server.frames_in_flight() << " frames never freed";
    // stop() would wait on the leaked frames forever.
    (void)frontend.release();
    return;
  }
  frontend->stop();
}

/// Two dataset codes the detector scores differently.
std::pair<evm::Bytecode, evm::Bytecode> differently_scored(
    core::HistogramAdapter& adapter) {
  const evm::Bytecode& first = dataset().samples.front().code;
  const double first_p = adapter.predict_proba({&first}).front();
  for (const synth::LabeledContract& sample : dataset().samples) {
    if (adapter.predict_proba({&sample.code}).front() != first_p) {
      return {first, sample.code};
    }
  }
  ADD_FAILURE() << "every dataset code scores the same";
  return {first, first};
}

// A metamorphic contract (SELFDESTRUCT + CREATE2 redeploy in the wild)
// keeps its address and changes its code: it must never keep the old
// code's score, whether the answer comes at submission or from a worker.
TEST_F(ScoringEngineTest, RedeployedCodeNeverGetsTheOldScore) {
  const auto [old_code, new_code] = differently_scored(*adapter_);
  const double old_p = adapter_->predict_proba({&old_code}).front();
  const double new_p = adapter_->predict_proba({&new_code}).front();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    chain::ChainStore chain;
    const chain::Explorer explorer(chain);
    const evm::Address deployer = evm::Address::from_hex(
        "0x00000000000000000000000000000000000000aa");
    const evm::Address target =
        chain.register_contract(deployer, old_code).address;
    serve::EngineConfig config;
    config.workers = workers;
    serve::ScoringEngine engine(explorer, *adapter_, config);

    EXPECT_EQ(engine.submit(target).get().probability, old_p);
    const serve::ScoreResult cached = engine.submit(target).get();
    EXPECT_TRUE(cached.cache_hit);
    EXPECT_EQ(cached.probability, old_p);

    chain.state().set_code(target, new_code);
    const serve::ScoreResult redeployed = engine.submit(target).get();
    EXPECT_FALSE(redeployed.cache_hit) << workers << " workers";
    EXPECT_EQ(redeployed.probability, new_p) << workers << " workers";
    EXPECT_EQ(engine.submit(target).get().probability, new_p);

    // Back to the old code: both scores sit under their own hashes.
    chain.state().set_code(target, old_code);
    const serve::ScoreResult reverted = engine.submit(target).get();
    EXPECT_TRUE(reverted.cache_hit);
    EXPECT_EQ(reverted.probability, old_p) << workers << " workers";
  }
}

// The redeploy lands after the submission probe missed on the old code's
// hash and before the worker fetches: the row is answered as the new code,
// scored or found in the cache, and the new score is never filed under the
// old code's hash.
TEST_F(ScoringEngineTest, CodeChangedAfterTheProbeIsScoredAsTheNewCode) {
  const auto [old_code, new_code] = differently_scored(*adapter_);
  const double old_p = adapter_->predict_proba({&old_code}).front();
  const double new_p = adapter_->predict_proba({&new_code}).front();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (const bool new_code_cached : {false, true}) {
      chain::ChainStore chain;
      const evm::Address deployer = evm::Address::from_hex(
          "0x00000000000000000000000000000000000000aa");
      const evm::Address target =
          chain.register_contract(deployer, old_code).address;
      const evm::Address twin =
          chain.register_contract(deployer, old_code).address;
      const evm::Address holder =
          chain.register_contract(deployer, new_code).address;
      const RedeployAfterProbe redeploying(chain, target, new_code);
      serve::EngineConfig config;
      config.workers = workers;
      serve::ScoringEngine engine(redeploying, *adapter_, config);
      const std::string where = std::to_string(workers) + " workers, " +
                                (new_code_cached ? "new code cached" : "cold");
      if (new_code_cached) {
        EXPECT_EQ(engine.submit(holder).get().probability, new_p) << where;
      }

      const serve::ScoreResult changed = engine.submit(target).get();
      EXPECT_EQ(changed.status, serve::ScoreStatus::kOk) << where;
      EXPECT_EQ(changed.probability, new_p) << where;
      EXPECT_EQ(changed.cache_hit, new_code_cached) << where;
      EXPECT_EQ(chain.state().code_hash(target), new_code.code_hash());

      // `twin` still holds the old code, which was never scored: had the
      // worker keyed the cache by the probe's hash, it would hit on the
      // new score here.
      const serve::ScoreResult old = engine.submit(twin).get();
      EXPECT_FALSE(old.cache_hit) << where;
      EXPECT_EQ(old.probability, old_p) << where;
      const serve::ScoreResult again = engine.submit(target).get();
      EXPECT_TRUE(again.cache_hit) << where;
      EXPECT_EQ(again.probability, new_p) << where;
    }
  }
}

TEST_F(ScoringEngineTest, MetricsDumpAfterTraffic) {
  serve::EngineConfig config;
  config.workers = 2;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  engine.score_all(addresses_);
  engine.score_all(addresses_);  // second pass: warm cache

  std::ostringstream out;
  engine.dump_prometheus(out);
  const std::string text = out.str();
  const std::string count_key = "serve_request_latency_us_count ";
  const std::size_t at = text.find(count_key);
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_GT(std::stoull(text.substr(at + count_key.size())), 0u);
  EXPECT_GT(engine.metrics().batches.value(), 0u);
  EXPECT_GT(engine.metrics().batched_requests.value(), 0u);
  EXPECT_GT(engine.cache_stats().hit_rate(), 0.4);
}

}  // namespace
}  // namespace phishinghook

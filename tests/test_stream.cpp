// Streaming ingestion suite: incremental mining, the block follower's
// dedup accounting, the open-loop arrival model, bounded queues, the
// fault-schedule-under-streaming-order guarantee, and the coordinator's
// end-to-end lifecycle — including the conservation law
// submitted == completed + failed + shed after every drain, and a drain
// that waits for every engine callback.
//
// The TSan leg of ci.sh runs this whole file: three pipeline threads plus
// engine workers running the coordinator's callback race over the queues,
// the chain lock, and the metrics cells on purpose.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "chain/fault_injection.hpp"
#include "core/model_registry.hpp"
#include "ml/random_forest.hpp"
#include "obs/trace.hpp"
#include "serve/scoring_engine.hpp"
#include "stream/bounded_queue.hpp"
#include "stream/coordinator.hpp"
#include "stream/live_chain.hpp"
#include "synth/dataset_builder.hpp"

namespace phishinghook {
namespace {

// One small dataset shared by the whole suite — only used to fit the
// detector the coordinator tests score with (building it is the slow part).
const synth::BuiltDataset& dataset() {
  static const synth::BuiltDataset built = [] {
    synth::DatasetConfig config;
    config.target_size = 160;
    config.seed = 97;
    return synth::DatasetBuilder(config).build();
  }();
  return built;
}

core::HistogramAdapter& detector() {
  static core::HistogramAdapter adapter = [] {
    ml::RandomForestConfig config;
    config.n_trees = 8;
    config.max_depth = 6;
    core::HistogramAdapter fitted(
        std::make_unique<ml::RandomForestClassifier>(config), "stream-test");
    std::vector<const evm::Bytecode*> codes;
    std::vector<int> labels;
    for (const synth::LabeledContract& sample : dataset().samples) {
      codes.push_back(&sample.code);
      labels.push_back(sample.phishing ? 1 : 0);
    }
    fitted.fit(codes, labels);
    return fitted;
  }();
  return adapter;
}

/// Scorer whose score_batch waits until open(): it holds the engine's
/// worker so a test can see the pipeline with rows still in flight.
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

// ---------------------------------------------------------------- mining

TEST(ChainMining, MineNextBlockAdvancesHeadAndTimestamp) {
  chain::ChainStore chain;
  const std::uint64_t head0 = chain.head_block();
  const std::uint64_t ts0 = chain.head_timestamp();
  EXPECT_EQ(chain.mine_next_block(), head0 + 1);
  EXPECT_EQ(chain.head_timestamp(), ts0 + 12);
  EXPECT_EQ(chain.mine_next_block(5), head0 + 6);
  EXPECT_EQ(chain.head_timestamp(), ts0 + 6 * 12);
  EXPECT_THROW(chain.mine_next_block(0), InvalidArgument);
}

TEST(ChainMining, MonthRollsOverOnSlotBoundaryAndSaturates) {
  chain::ChainStore chain;
  ASSERT_EQ(chain.head_month().index, 0);
  // Mine exactly up to the next month's first timestamp.
  const std::uint64_t next_start = chain::Month{1}.start_timestamp();
  ASSERT_GT(next_start, chain.head_timestamp());
  const std::uint64_t slots =
      (next_start - chain.head_timestamp() + 11) / 12;
  chain.mine_next_block(slots);
  EXPECT_EQ(chain.head_month().index, 1);
  EXPECT_GE(chain.head_timestamp(), next_start);
  // A skip across several boundaries rolls every month it crossed; past
  // the study window the head month saturates at the last index.
  chain.mine_next_block(chain::Month::kCount * 32ull * 86400ull / 12ull);
  EXPECT_EQ(chain.head_month().index, chain::Month::kCount - 1);
}

TEST(ChainMining, ContractsAfterReturnsStrictSuffixInChainOrder) {
  chain::ChainStore chain;
  chain::Explorer explorer(chain);
  synth::MinerConfig config;
  config.seed = 5;
  synth::ChainMiner miner(chain, explorer, config);
  while (chain.contracts().size() < 6) miner.mine_next_block();
  const std::vector<chain::ContractRecord>& all = chain.contracts();
  const std::uint64_t cursor = all[1].block_number;
  const std::vector<chain::ContractRecord> tail = chain.contracts_after(cursor);
  ASSERT_EQ(tail.size(), all.size() - 2);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_GT(tail[i].block_number, cursor);
    EXPECT_EQ(tail[i].address, all[i + 2].address);
  }
  EXPECT_TRUE(chain.contracts_after(chain.head_block()).empty());
  EXPECT_EQ(chain.contracts_after(0).size(), all.size());
}

TEST(ChainMinerTest, SameSeedProducesIdenticalChainsAndLabels) {
  auto build = [] {
    auto chain = std::make_unique<chain::ChainStore>();
    auto explorer = std::make_unique<chain::Explorer>(*chain);
    synth::MinerConfig config;
    config.seed = 21;
    synth::ChainMiner miner(*chain, *explorer, config);
    for (int b = 0; b < 50; ++b) miner.mine_next_block();
    return std::make_tuple(std::move(chain), std::move(explorer),
                           miner.stats());
  };
  auto [chain_a, explorer_a, stats_a] = build();
  auto [chain_b, explorer_b, stats_b] = build();

  ASSERT_EQ(chain_a->contracts().size(), chain_b->contracts().size());
  ASSERT_GT(chain_a->contracts().size(), 0u);
  for (std::size_t i = 0; i < chain_a->contracts().size(); ++i) {
    const chain::ContractRecord& a = chain_a->contracts()[i];
    const chain::ContractRecord& b = chain_b->contracts()[i];
    EXPECT_EQ(a.address, b.address);
    EXPECT_EQ(a.code_hash, b.code_hash);
    EXPECT_EQ(a.block_number, b.block_number);
    EXPECT_EQ(explorer_a->is_flagged_phishing(a.address),
              explorer_b->is_flagged_phishing(b.address));
  }
  EXPECT_EQ(stats_a.blocks_mined, 50u);
  EXPECT_EQ(stats_a.deployments, stats_b.deployments);
  EXPECT_EQ(stats_a.phishing_deployments, stats_b.phishing_deployments);
  EXPECT_EQ(stats_a.clone_deployments, stats_b.clone_deployments);
  EXPECT_EQ(stats_a.deployments,
            stats_a.phishing_deployments + stats_a.benign_deployments);
}

// Readers share the chain lock and only the miner takes it exclusively.
// Four readers run every read shape in a loop while one thread mines 50
// blocks: each read is consistent (a code's hash belongs to its bytes, a
// crawl never returns a record past the head it reports), and readers that
// never wait for each other do not starve the miner (glibc's rwlock
// prefers readers).
TEST(LiveChainTest, SharedReadersStayConsistentWhileTheMinerWrites) {
  stream::LiveChain live;
  while (live.raw_chain().contracts().size() < 8) live.mine_next_block();
  const std::uint64_t blocks_before = live.miner_stats().blocks_mined;
  const chain::Explorer& explorer = live.explorer();

  constexpr std::uint64_t kBlocks = 50;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  std::atomic<bool> mined{false};
  std::atomic<bool> timed_out{false};
  std::atomic<std::uint64_t> code_reads{0};
  std::atomic<std::uint64_t> bad_reads{0};
  std::atomic<std::uint64_t> bad_tails{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t cursor = 0;
      std::vector<evm::Address> seen;
      for (std::uint64_t turn = 0; !mined.load(); ++turn) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true);
          return;
        }
        const chain::ChainTail tail = explorer.crawl_after(cursor);
        for (const chain::ContractRecord& record : tail.records) {
          if (record.block_number <= cursor ||
              record.block_number > tail.head_block) {
            bad_tails.fetch_add(1);
          }
          seen.push_back(record.address);
        }
        if (!tail.records.empty()) {
          cursor = tail.records.back().block_number;
        }
        const evm::Address& address = seen[(turn * 4 + r) % seen.size()];
        const chain::ReadMode mode =
            turn % 2 == 0 ? chain::ReadMode::kWait : chain::ReadMode::kTry;
        const std::optional<chain::StoredCode> stored =
            explorer.stored_code(address, mode);
        if (mode == chain::ReadMode::kWait && !stored) bad_reads.fetch_add(1);
        if (stored) {
          code_reads.fetch_add(1);
          if (stored->hash != stored->code->code_hash()) {
            bad_reads.fetch_add(1);
          }
        }
        (void)explorer.flag_of(address);
      }
    });
  }
  std::thread miner([&] {
    for (std::uint64_t b = 0; b < kBlocks; ++b) live.mine_next_block();
    mined.store(true);
  });
  miner.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_FALSE(timed_out.load()) << "the miner was starved by readers";
  EXPECT_EQ(live.miner_stats().blocks_mined, blocks_before + kBlocks);
  EXPECT_GT(code_reads.load(), 0u);
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_EQ(bad_tails.load(), 0u);
}

// ---------------------------------------------------------------- queue

TEST(BoundedQueueTest, FifoCloseAndCounters) {
  EXPECT_THROW(stream::BoundedQueue<int>(0), InvalidArgument);
  stream::BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  EXPECT_FALSE(queue.try_push(3));  // full
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_TRUE(queue.try_push(3));
  queue.close();
  EXPECT_FALSE(queue.push(4));      // closed: producer fails fast
  EXPECT_EQ(queue.pop(), 2);        // but queued items still drain...
  EXPECT_EQ(queue.pop(), 3);
  EXPECT_EQ(queue.pop(), std::nullopt);  // ...before end-of-stream shows
  EXPECT_EQ(queue.total_pushed(), 3u);
  EXPECT_EQ(queue.total_popped(), 3u);
}

TEST(BoundedQueueTest, ConcurrentProducersAndConsumersConserveItems) {
  stream::BoundedQueue<int> queue(8);
  constexpr int kPerProducer = 400;
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&queue] {
      for (int i = 0; i < kPerProducer; ++i) ASSERT_TRUE(queue.push(i));
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&queue, &consumed] {
      while (queue.pop().has_value()) consumed.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  queue.close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), 2 * kPerProducer);
  EXPECT_EQ(queue.total_pushed(), queue.total_popped());
}

TEST(BoundedQueueTest, PushBlockedOnFullQueueUnblocksAtClose) {
  stream::BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));
  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result.store(queue.push(2));  // blocks: queue is full
    push_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(push_returned.load());  // still parked on the bound
  queue.close();
  producer.join();
  EXPECT_TRUE(push_returned.load());
  // The blocked push must report failure (its item was dropped), while
  // what was already queued stays deliverable.
  EXPECT_FALSE(push_result.load());
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_EQ(queue.total_pushed(), 1u);
}

TEST(BoundedQueueTest, TryPushRacingCloseNeverLosesOrInventsItems) {
  stream::BoundedQueue<int> queue(16);
  std::atomic<int> admitted{0};
  std::thread producer([&] {
    for (int i = 0; i < 100000; ++i) {
      if (queue.try_push(i)) {
        admitted.fetch_add(1);
      } else if (queue.closed()) {
        break;
      }
      // Full-but-open: drop and keep going (open-loop producer shape).
    }
  });
  std::thread consumer([&] {
    // Drain concurrently so the producer sees both full and open states.
    for (int i = 0; i < 1000; ++i) queue.try_pop();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.close();
  producer.join();
  consumer.join();
  // Everything admitted before the close is either already popped or
  // still drainable — the close drops nothing that was accepted.
  std::uint64_t drained = queue.total_popped();
  while (queue.pop().has_value()) ++drained;
  EXPECT_EQ(drained, static_cast<std::uint64_t>(admitted.load()));
  EXPECT_EQ(queue.total_pushed(), static_cast<std::uint64_t>(admitted.load()));
  EXPECT_FALSE(queue.try_push(-1));  // closed stays closed
}

TEST(BoundedQueueTest, PopAfterCloseDrainsInOrderThenSignalsEndOfStream) {
  stream::BoundedQueue<int> queue(8);
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(queue.push(i));
  queue.close();
  for (int i = 1; i <= 5; ++i) EXPECT_EQ(queue.pop(), i);  // FIFO survives close
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_EQ(queue.try_pop(), std::nullopt);
  // pop() after end-of-stream stays nullopt (no re-arm, no hang).
  EXPECT_EQ(queue.pop(), std::nullopt);
}

// ------------------------------------------------------------- arrivals

TEST(LoadGeneratorTest, SeededScheduleIsBitReproducible) {
  stream::ArrivalConfig config = stream::LoadGenerator::steady_scenario();
  config.seed = 1234;
  stream::LoadGenerator a(config);
  stream::LoadGenerator b(config);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(a.next_arrival(), b.next_arrival()) << "arrival " << i;
  }
  EXPECT_EQ(a.virtual_time_s(), b.virtual_time_s());
}

TEST(LoadGeneratorTest, MeanGapMatchesRate) {
  stream::ArrivalConfig config;
  config.rate_per_s = 1000.0;
  config.seed = 7;
  stream::LoadGenerator gen(config);
  constexpr int kArrivals = 20000;
  for (int i = 0; i < kArrivals; ++i) gen.next_arrival();
  const double mean_gap = gen.virtual_time_s() / kArrivals;
  EXPECT_NEAR(mean_gap, 1.0 / config.rate_per_s, 0.1 / config.rate_per_s);
  EXPECT_FALSE(gen.in_burst(0.0));  // no burst configured
}

TEST(LoadGeneratorTest, BurstWindowsDominateTheArrivalCount) {
  stream::ArrivalConfig config = stream::LoadGenerator::mempool_burst_scenario();
  config.rate_per_s = 100.0;
  config.burst_rate_per_s = 10000.0;
  config.seed = 3;
  stream::LoadGenerator gen(config);
  int in_burst = 0;
  constexpr int kArrivals = 20000;
  for (int i = 0; i < kArrivals; ++i) {
    gen.next_arrival();
    if (gen.last_in_burst()) in_burst += 1;
  }
  // Burst windows are 10% of the time but carry 100x the rate, so they
  // must hold the large majority of arrivals (expected ~92%).
  EXPECT_GT(in_burst, kArrivals / 2);
}

TEST(LoadGeneratorTest, RejectsInvalidConfig) {
  stream::ArrivalConfig config;
  config.rate_per_s = 0.0;
  EXPECT_THROW(stream::LoadGenerator{config}, InvalidArgument);
  config = {};
  config.requery_fraction = 1.5;
  EXPECT_THROW(stream::LoadGenerator{config}, InvalidArgument);
  config = {};
  config.burst_rate_per_s = 100.0;
  config.burst_duration_s = 1.0;
  config.burst_every_s = 0.5;  // window wider than its period
  EXPECT_THROW(stream::LoadGenerator{config}, InvalidArgument);
}

// ------------------------------------------------- chaos under streaming

// Satellite: the chaos decorator's seeded fault schedule is a pure
// function of (seed, address, attempt), so reading the chain in streaming
// order (chunked, reordered polls) must observe exactly the faults a
// batch crawl observes.
TEST(FaultScheduleStreaming, ScheduleHoldsUnderStreamingOrder) {
  chain::ChainStore chain;
  chain::Explorer explorer(chain);
  synth::MinerConfig miner_config;
  miner_config.seed = 13;
  synth::ChainMiner miner(chain, explorer, miner_config);
  while (chain.contracts().size() < 30) miner.mine_next_block();

  chain::FaultConfig fault_config;
  fault_config.throw_rate = 0.4;
  fault_config.empty_rate = 0.2;
  fault_config.seed = 11;

  enum Outcome { kOk, kThrew, kEmpty };
  auto probe = [](const chain::Explorer& view,
                  const evm::Address& address) -> Outcome {
    try {
      return view.get_code(address).empty() ? kEmpty : kOk;
    } catch (const TransientError&) {
      return kThrew;
    }
  };
  using Key = std::pair<std::string, int>;  // (address hex, attempt)
  auto outcomes = [&](const chain::Explorer& view,
                      const std::vector<chain::ContractRecord>& order) {
    std::map<Key, Outcome> out;
    for (const chain::ContractRecord& record : order) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        out[{record.address.to_hex(), attempt}] = probe(view, record.address);
      }
    }
    return out;
  };

  // Batch order: the whole journal front to back, two attempts each.
  chain::FaultInjectingExplorer batch_view(explorer, fault_config);
  const auto batch = outcomes(batch_view, chain.contracts());

  // Streaming order: the same records ingested as reversed chunks of 7 —
  // a deliberately scrambled interleaving of the same per-address fetch
  // sequence.
  std::vector<chain::ContractRecord> scrambled;
  const std::vector<chain::ContractRecord>& records = chain.contracts();
  for (std::size_t chunk_end = records.size(); chunk_end > 0;) {
    const std::size_t chunk_begin = chunk_end >= 7 ? chunk_end - 7 : 0;
    for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
      scrambled.push_back(records[i]);
    }
    chunk_end = chunk_begin;
  }
  chain::FaultInjectingExplorer stream_view(explorer, fault_config);
  const auto streamed = outcomes(stream_view, scrambled);

  EXPECT_EQ(batch, streamed);
  EXPECT_EQ(batch_view.stats().throws, stream_view.stats().throws);
  EXPECT_EQ(batch_view.stats().empties, stream_view.stats().empties);
}

TEST(FaultScheduleStreaming, FollowerCountsFaultsAndStillForwards) {
  chain::ChainStore chain;
  chain::Explorer explorer(chain);
  synth::MinerConfig miner_config;
  miner_config.seed = 13;
  synth::ChainMiner miner(chain, explorer, miner_config);
  while (chain.contracts().size() < 30) miner.mine_next_block();

  chain::FaultConfig fault_config;
  fault_config.throw_rate = 0.4;
  fault_config.seed = 11;
  chain::FaultInjectingExplorer chaos(explorer, fault_config);

  stream::FollowerConfig follower_config;
  follower_config.start_block = 0;  // ingest the whole journal
  stream::BlockFollower follower(chaos, follower_config);
  const std::vector<chain::ContractRecord> forwarded = follower.poll();

  const stream::FollowerStats& stats = follower.stats();
  EXPECT_EQ(stats.deployments_seen, chain.contracts().size());
  // Faulted fetches are forwarded anyway — classification is the engine's
  // job — so nothing is lost to chaos.
  EXPECT_EQ(forwarded.size(), chain.contracts().size());
  EXPECT_EQ(stats.forwarded, stats.deployments_seen);
  EXPECT_EQ(stats.code_faults, chaos.stats().throws);
  EXPECT_GT(stats.code_faults, 0u);
  EXPECT_EQ(stats.dedup_unique + stats.dedup_hits + stats.code_faults +
                stats.empty_code,
            stats.deployments_seen);
}

// ------------------------------------------------------ explorer decorators

/// Overrides only the two code reads, counting them, the way a timing
/// decorator might; everything else is the base Explorer's.
class GetCodeCounter final : public chain::Explorer {
 public:
  explicit GetCodeCounter(const chain::Explorer& inner)
      : chain::Explorer(inner.chain()), inner_(&inner) {}

  std::string eth_get_code(const evm::Address& address) const override {
    calls_.fetch_add(1);
    return inner_->eth_get_code(address);
  }
  evm::Bytecode get_code(const evm::Address& address) const override {
    calls_.fetch_add(1);
    return inner_->get_code(address);
  }
  std::uint64_t calls() const { return calls_.load(); }

 private:
  const chain::Explorer* inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

// The stored_code such a decorator inherits reads through its get_code, so
// it sees every engine code read and each read takes the live chain's
// lock: the TSan leg runs this while the miner writes the chain. Since its
// get_code may block, a submission's try-read reports busy at once instead
// of reading through it.
TEST(ExplorerDecorators, GetCodeOnlyDecoratorSeesEveryEngineRead) {
  stream::LiveChain live;
  while (live.raw_chain().contracts().size() < 24) live.mine_next_block();
  std::vector<evm::Address> addresses;
  for (const chain::ContractRecord& record : live.raw_chain().contracts()) {
    addresses.push_back(record.address);
  }
  const GetCodeCounter counted(live.explorer());
  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  serve::ScoringEngine engine(counted, detector(), engine_config);

  std::atomic<bool> mining{true};
  std::thread miner([&] {
    while (mining.load()) {
      live.mine_next_block();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::uint64_t rows = 0;
  std::uint64_t hits = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (const serve::ScoreResult& result : engine.score_all(addresses)) {
      EXPECT_TRUE(result.ok()) << serve::to_string(result.status);
      ++rows;
      hits += result.cache_hit ? 1 : 0;
    }
  }
  mining.store(false);
  miner.join();

  EXPECT_GT(hits, 0u);
  // Every row queued and was read once, by the worker that fetched it.
  EXPECT_EQ(counted.calls(), rows);
  EXPECT_FALSE(
      counted.stored_code(addresses.front(), chain::ReadMode::kTry).has_value());
  EXPECT_EQ(counted.calls(), rows);
}

// ----------------------------------------------------------------- dedup

// Satellite: identical runtime bytecode at two different addresses must
// cost one extraction row, serve both requests, and bump the cache-hit
// counter. Run at 1 and 4 workers (the TSan leg covers the racy variant).
TEST(StreamDedup, IdenticalBytecodeTwoAddressesOneModelRow) {
  chain::ChainStore chain;
  chain::Explorer explorer(chain);
  common::Rng rng(42);
  const synth::SynthContract impl =
      synth::ContractSynthesizer().benign(chain::Month{0}, rng);
  const chain::ContractRecord first =
      chain.register_contract(synth::random_address(rng), impl.runtime);
  const chain::ContractRecord second =
      chain.register_contract(synth::random_address(rng), impl.runtime);
  ASSERT_NE(first.address, second.address);
  ASSERT_EQ(first.code_hash, second.code_hash);

  stream::FollowerConfig follower_config;
  follower_config.start_block = 0;
  stream::BlockFollower follower(explorer, follower_config);
  const std::vector<chain::ContractRecord> forwarded = follower.poll();
  EXPECT_EQ(forwarded.size(), 2u);  // duplicates forwarded by default
  EXPECT_EQ(follower.stats().dedup_unique, 1u);
  EXPECT_EQ(follower.stats().dedup_hits, 1u);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    serve::EngineConfig engine_config;
    engine_config.workers = workers;
    serve::ScoringEngine engine(explorer, detector(), engine_config);
    const serve::ScoreResult a = engine.submit(first.address).get();
    const serve::ScoreResult b = engine.submit(second.address).get();
    EXPECT_EQ(a.status, serve::ScoreStatus::kOk);
    EXPECT_EQ(b.status, serve::ScoreStatus::kOk);
    EXPECT_EQ(a.probability, b.probability);
    // One unique hash => exactly one row through the model, and the
    // second request was served from the score cache.
    EXPECT_EQ(engine.metrics().model_rows.value(), 1u);
    EXPECT_GE(engine.cache_stats().hits, 1u);
    EXPECT_TRUE(b.cache_hit);
  }
}

TEST(StreamDedup, DropDuplicatesSuppressesRepeatCode) {
  chain::ChainStore chain;
  chain::Explorer explorer(chain);
  common::Rng rng(42);
  const synth::SynthContract impl =
      synth::ContractSynthesizer().benign(chain::Month{0}, rng);
  chain.register_contract(synth::random_address(rng), impl.runtime);
  chain.register_contract(synth::random_address(rng), impl.runtime);

  stream::FollowerConfig config;
  config.start_block = 0;
  config.drop_duplicates = true;
  stream::BlockFollower follower(explorer, config);
  EXPECT_EQ(follower.poll().size(), 1u);
  EXPECT_EQ(follower.stats().dropped, 1u);
  EXPECT_EQ(follower.stats().forwarded, 1u);
}

TEST(StreamDedup, FollowerCountsReproducibleAcrossSameSeedChains) {
  auto run = [] {
    stream::LiveChain live;  // default miner seed
    for (int b = 0; b < 40; ++b) live.mine_next_block();
    stream::FollowerConfig config;
    config.start_block = 0;
    stream::BlockFollower follower(live.explorer(), config);
    follower.poll();
    return follower.stats();
  };
  const stream::FollowerStats a = run();
  const stream::FollowerStats b = run();
  EXPECT_GT(a.deployments_seen, 0u);
  EXPECT_EQ(a.deployments_seen, b.deployments_seen);
  EXPECT_EQ(a.dedup_unique, b.dedup_unique);
  EXPECT_EQ(a.dedup_hits, b.dedup_hits);
  EXPECT_EQ(a.forwarded, b.forwarded);
  // The miner's campaign structure guarantees real duplication.
  EXPECT_GT(a.dedup_hits, 0u);
}

// ------------------------------------------------------------ coordinator

TEST(StreamFollowerTest, AttachAtHeadSkipsHistory) {
  stream::LiveChain live;
  for (int b = 0; b < 10; ++b) live.mine_next_block();
  stream::BlockFollower follower(live.explorer());  // attach at head
  EXPECT_TRUE(follower.poll().empty());
  live.mine_next_block();
  const std::size_t new_deployments = follower.poll().size();
  EXPECT_EQ(follower.stats().deployments_seen, new_deployments);
  EXPECT_EQ(follower.cursor(), live.head_block());
}

stream::StreamReport run_coordinator(std::uint64_t max_requests,
                                     std::uint64_t max_blocks) {
  stream::LiveChain live;
  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  serve::ScoringEngine engine(live.explorer(), detector(), engine_config);
  stream::StreamConfig config;
  config.paced = false;
  config.follower.start_block = 0;
  config.poll_interval_us = 500;
  config.max_blocks = max_blocks;
  config.max_requests = max_requests;
  stream::StreamCoordinator coordinator(live, engine, config);
  coordinator.start();
  if (max_requests != 0) {
    while (!coordinator.finished()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  coordinator.drain();
  return coordinator.report();
}

TEST(StreamCoordinatorTest, ExactSubmissionCountAndAccounting) {
  const stream::StreamReport a = run_coordinator(/*max_requests=*/300,
                                                 /*max_blocks=*/40);
  const stream::StreamReport b = run_coordinator(300, 40);
  for (const stream::StreamReport& report : {a, b}) {
    EXPECT_EQ(report.submitted, 300u);
    EXPECT_TRUE(report.accounting_ok())
        << "submitted=" << report.submitted
        << " completed=" << report.completed << " failed=" << report.failed
        << " shed=" << report.shed;
    EXPECT_EQ(report.fresh_submits + report.requery_submits,
              report.submitted);
    EXPECT_EQ(report.miner.blocks_mined, 40u);
  }
  // Chain content is a pure function of the miner seed: both runs mined
  // the same deployments even though scheduling differed.
  EXPECT_EQ(a.miner.deployments, b.miner.deployments);
  EXPECT_EQ(a.miner.phishing_deployments, b.miner.phishing_deployments);
  EXPECT_EQ(a.miner.clone_deployments, b.miner.clone_deployments);
}

TEST(StreamCoordinatorTest, DrainFlushesEveryForwardedAddress) {
  const stream::StreamReport report = run_coordinator(/*max_requests=*/0,
                                                      /*max_blocks=*/30);
  EXPECT_TRUE(report.accounting_ok());
  // Full drain with no request cap: the generator flushed the entire
  // follower feed, so every deployment was submitted exactly once as a
  // fresh request.
  EXPECT_EQ(report.fresh_submits, report.follower.forwarded);
  EXPECT_EQ(report.follower.forwarded, report.follower.deployments_seen);
  EXPECT_EQ(report.follower.deployments_seen, report.miner.deployments);
  EXPECT_GT(report.submitted, 0u);
  EXPECT_GT(report.completed, 0u);
}

/// The live chain's view with its lock always taken when a submission
/// probes it: every try-read gives up, so every row meets the engine queue.
class BusyAtSubmission final : public chain::Explorer {
 public:
  explicit BusyAtSubmission(const chain::Explorer& inner)
      : chain::Explorer(inner.chain()), inner_(&inner) {}

  std::optional<chain::StoredCode> stored_code(
      const evm::Address& address,
      chain::ReadMode mode = chain::ReadMode::kWait) const override {
    if (mode == chain::ReadMode::kTry) return std::nullopt;
    return inner_->stored_code(address, mode);
  }

 private:
  const chain::Explorer* inner_;
};

TEST(StreamCoordinatorTest, OverloadedEngineShedsButConservesAccounting) {
  stream::LiveChain live;
  serve::EngineConfig engine_config;
  engine_config.workers = 1;
  engine_config.max_queue = 1;  // drastic admission control
  // Re-queries would be cache hits answered at submission, which never
  // queue; make every row queue so the flood meets the 1-deep queue.
  const BusyAtSubmission busy(live.explorer());
  serve::ScoringEngine engine(busy, detector(), engine_config);
  stream::StreamConfig config;
  config.paced = false;
  config.follower.start_block = 0;
  config.max_blocks = 20;
  config.max_requests = 400;
  stream::StreamCoordinator coordinator(live, engine, config);
  coordinator.start();
  while (!coordinator.finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  coordinator.drain();
  const stream::StreamReport report = coordinator.report();
  EXPECT_EQ(report.submitted, 400u);
  EXPECT_TRUE(report.accounting_ok());
  // A 1-deep queue against an unpaced flood must reject work.
  EXPECT_GT(report.shed, 0u);
}

TEST(StreamCoordinatorTest, DrainWaitsForEveryCallbackThenAccountingHolds) {
  stream::LiveChain live;
  GatedScorer gated(detector());
  serve::EngineConfig engine_config;
  engine_config.workers = 1;
  serve::ScoringEngine engine(live.explorer(), gated, engine_config);
  stream::StreamConfig config;
  config.paced = false;
  config.follower.start_block = 0;
  config.max_blocks = 10;
  config.max_requests = 50;
  stream::StreamCoordinator coordinator(live, engine, config);
  coordinator.start();
  gated.wait_entered();  // the engine's only worker is now held

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    coordinator.drain();
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load()) << "drain() returned with rows in flight";
  EXPECT_FALSE(coordinator.finished());
  gated.open();
  drainer.join();

  EXPECT_TRUE(coordinator.finished());
  const stream::StreamReport report = coordinator.report();
  EXPECT_GT(report.submitted, 0u);
  EXPECT_TRUE(report.accounting_ok())
      << "submitted=" << report.submitted
      << " completed=" << report.completed << " failed=" << report.failed
      << " shed=" << report.shed;
  EXPECT_EQ(engine.metrics().requests_submitted.value(), report.submitted);
}

TEST(StreamCoordinatorTest, MetricsExpositionCarriesStreamSeries) {
  stream::LiveChain live;
  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  serve::ScoringEngine engine(live.explorer(), detector(), engine_config);
  stream::StreamConfig config;
  config.paced = false;
  config.follower.start_block = 0;
  config.max_blocks = 5;
  config.max_requests = 20;
  stream::StreamCoordinator coordinator(live, engine, config);
  coordinator.start();
  while (!coordinator.finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  coordinator.drain();
  std::ostringstream out;
  coordinator.registry().write_prometheus(out);
  const std::string exposition = out.str();
  EXPECT_NE(exposition.find("stream_requests_submitted"), std::string::npos);
  EXPECT_NE(exposition.find("stream_ingest_lag_blocks"), std::string::npos);
  EXPECT_NE(exposition.find("stream_fresh_submits"), std::string::npos);
  EXPECT_NE(exposition.find("stream_requests_shed"), std::string::npos);
}

TEST(StreamTelemetryTest, OneTraceIdConnectsAtLeastFourPipelineStages) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(1 << 15);

  stream::LiveChain live;
  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  serve::ScoringEngine engine(live.explorer(), detector(), engine_config);
  stream::StreamConfig config;
  config.paced = false;
  config.follower.start_block = 0;
  config.poll_interval_us = 500;
  config.max_blocks = 10;
  config.max_requests = 40;
  stream::StreamCoordinator coordinator(live, engine, config);
  coordinator.start();
  while (!coordinator.finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  coordinator.drain();
  engine.shutdown();  // quiesce every recording thread before the export
  tracer.disable();

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string json = out.str();
  tracer.clear();

  // Group the async stage slices by trace id: each exported object is flat,
  // so scanning "{...}" substrings is enough.
  std::map<std::string, std::set<std::string>> stages_by_id;
  std::size_t at = 0;
  while ((at = json.find("{\"name\":\"", at)) != std::string::npos) {
    const std::size_t end = json.find('}', at);
    const std::string object = json.substr(at, end - at + 1);
    at = end;
    if (object.find("\"cat\":\"phook.req\"") == std::string::npos) continue;
    if (object.find("\"ph\":\"b\"") == std::string::npos) continue;
    const std::size_t name_begin = 9;  // after {"name":"
    const std::string name =
        object.substr(name_begin, object.find('"', name_begin) - name_begin);
    const std::size_t id_begin = object.find("\"id\":\"") + 6;
    const std::string id =
        object.substr(id_begin, object.find('"', id_begin) - id_begin);
    if (name != "request") stages_by_id[id].insert(name);
  }

  // The acceptance bar: a single request's journey is visible as one
  // connected lane across >= 4 pipeline stages. A fresh submission passes
  // ingest -> addr_queue -> engine queue -> extract (and usually predict).
  bool connected = false;
  for (const auto& [id, stages] : stages_by_id) {
    if (stages.count("req.ingest") != 0 && stages.count("req.addr_queue") != 0 &&
        stages.count("req.queue") != 0 && stages.count("req.extract") != 0) {
      connected = true;
      break;
    }
  }
  EXPECT_TRUE(connected)
      << "no trace id spans ingest/addr_queue/queue/extract; lanes seen: "
      << stages_by_id.size();

  // The flow arrows stitching the lane to the per-thread spans made it out
  // too, including the consumer-side finish.
  EXPECT_NE(json.find("\"cat\":\"phook.flow\",\"ph\":\"s\""),
            std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST(StreamTelemetryTest, WindowSloAndHealthSurfaceAfterDrain) {
  stream::LiveChain live;
  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  serve::ScoringEngine engine(live.explorer(), detector(), engine_config);
  stream::StreamConfig config;
  config.paced = false;
  config.follower.start_block = 0;
  config.max_blocks = 10;
  config.max_requests = 60;
  // A window far wider than the test runtime, so nothing decays between
  // the last result and the assertions below.
  config.window.window_seconds = 300.0;
  config.window.bucket_count = 10;
  config.slo.target_error_ratio = 0.5;
  stream::StreamCoordinator coordinator(live, engine, config);

  EXPECT_NE(coordinator.health_json().find("\"status\":\"idle\""),
            std::string::npos);
  coordinator.start();
  while (!coordinator.finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  coordinator.drain();

  // Every collected result landed in the sliding window.
  const stream::StreamReport report = coordinator.report();
  ASSERT_TRUE(report.accounting_ok());
  EXPECT_EQ(report.window.total, report.completed + report.failed + report.shed);
  EXPECT_GT(report.window.total, 0u);
  EXPECT_GT(report.window.rate_per_sec, 0.0);
  EXPECT_GT(report.window.p99_us, 0.0);
  EXPECT_GE(report.shed_pressure, 0.0);
  EXPECT_LE(report.shed_pressure, 1.0);

  // evaluate_slo publishes the windowed series into the stream registry.
  const obs::SloEvaluator::Evaluation eval = coordinator.evaluate_slo();
  EXPECT_EQ(eval.window.total, report.window.total);
  std::ostringstream out;
  coordinator.registry().write_prometheus(out);
  const std::string exposition = out.str();
  EXPECT_NE(exposition.find("stream_window_rate_per_sec"), std::string::npos);
  EXPECT_NE(exposition.find("stream_window_p99_us"), std::string::npos);
  EXPECT_NE(exposition.find("stream_error_burn_rate"), std::string::npos);
  EXPECT_NE(exposition.find("stream_shed_pressure"), std::string::npos);
  // The addr-queue hop recorded its hand-off waits.
  EXPECT_NE(exposition.find("stream_stage_wait_us{stage=\"addr_queue\""),
            std::string::npos);

  // /healthz-shaped state: drained, every queue closed, counts present.
  const std::string health = coordinator.health_json();
  EXPECT_NE(health.find("\"status\":\"drained\""), std::string::npos);
  EXPECT_NE(health.find("\"finished\":true"), std::string::npos);
  EXPECT_NE(health.find("\"queues\":{\"addresses\":{"), std::string::npos);
  EXPECT_NE(health.find("\"closed\":true"), std::string::npos);
}

TEST(StreamCoordinatorTest, StartTwiceThrows) {
  stream::LiveChain live;
  serve::ScoringEngine engine(live.explorer(), detector(), {});
  stream::StreamConfig config;
  config.paced = false;
  config.max_blocks = 1;
  config.max_requests = 1;
  stream::StreamCoordinator coordinator(live, engine, config);
  coordinator.start();
  EXPECT_THROW(coordinator.start(), StateError);
  coordinator.drain();
}

}  // namespace
}  // namespace phishinghook

// Tests of the benchmark itself: its statistics, its oracle, the purity of
// its inputs, and the transparency of its decorators.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>
#include <set>

#include "bench_stats.hpp"
#include "plan.hpp"
#include "stack.hpp"

namespace perfbench {
namespace {

TEST(Quantile, NearestRankOnKnownVectors) {
  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);  // 1..100
  EXPECT_EQ(quantile(hundred, 0.50), 50.0);
  EXPECT_EQ(quantile(hundred, 0.99), 99.0);
  EXPECT_EQ(quantile(hundred, 1.00), 100.0);
  EXPECT_EQ(quantile(hundred, 0.0), 1.0);

  EXPECT_EQ(quantile({5.0, 1.0, 3.0}, 0.5), 3.0);
  EXPECT_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.0);
  EXPECT_EQ(quantile({7.0}, 0.99), 7.0);
  EXPECT_EQ(quantile({}, 0.5), 0.0);

  // 0.99 * 1000 is 990 up to rounding; the rank must be exactly 990.
  std::vector<double> thousand(1000);
  std::iota(thousand.begin(), thousand.end(), 0.0);
  EXPECT_EQ(quantile(thousand, 0.99), 989.0);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
}

TEST(Quantile, MeanAndRatioHandleEmptyInput) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(mean({1.0, 2.0, 6.0}), 3.0);
  EXPECT_EQ(ratio(1.0, 0.0), 0.0);
  EXPECT_EQ(ratio(3.0, 2.0), 1.5);
}

std::vector<evm::Address> fake_addresses(std::size_t n) {
  std::vector<evm::Address> out;
  for (std::size_t i = 0; i < n; ++i) {
    std::array<std::uint8_t, 20> bytes{};
    bytes[19] = static_cast<std::uint8_t>(i + 1);
    out.push_back(evm::Address::from_bytes(bytes));
  }
  return out;
}

TEST(Oracle, FlagsAPerturbedProbability) {
  const auto cascade = fit_cascade(nullptr);
  const std::vector<evm::Bytecode> codes = synthesize_unique(12, 5);
  std::vector<const evm::Bytecode*> pointers;
  for (const evm::Bytecode& code : codes) pointers.push_back(&code);
  const std::vector<evm::Address> addresses = fake_addresses(codes.size());
  Oracle oracle;
  oracle.add(*cascade, addresses, pointers);
  ASSERT_EQ(oracle.size(), codes.size());

  const std::vector<double> reference =
      cascade->score_probabilities(ml::BytecodeBatchView(pointers));
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_TRUE(oracle.matches(addresses[i], reference[i]));
    EXPECT_FALSE(oracle.matches(addresses[i], std::nextafter(reference[i], 2.0)));
    EXPECT_FALSE(oracle.matches(addresses[i], reference[i] + 1e-12));
  }
  EXPECT_FALSE(oracle.matches(fake_addresses(40).back(), reference[0]));
}

TEST(Oracle, EmptyCodeReferencesZero) {
  const auto cascade = fit_cascade(nullptr);
  const evm::Bytecode empty;
  Oracle oracle;
  oracle.add(*cascade, fake_addresses(1), {&empty});
  EXPECT_TRUE(oracle.matches(fake_addresses(1)[0], 0.0));
}

TEST(Plan, SingleScheduleIsAPureFunctionOfTheSeed) {
  const SingleConfig config;
  const auto a = plan_single(config, 42, 3.0);
  const auto b = plan_single(config, 42, 3.0);
  const auto c = plan_single(config, 43, 3.0);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].at_s),
              std::bit_cast<std::uint64_t>(b[i].at_s));
    EXPECT_EQ(a[i].fresh, b[i].fresh);
    EXPECT_EQ(a[i].index, b[i].index);
  }
  EXPECT_TRUE(a.size() != c.size() || a[0].at_s != c[0].at_s);

  // A shorter horizon is a prefix, so warm-up and window share one plan.
  const auto prefix = plan_single(config, 42, 1.5);
  ASSERT_LT(prefix.size(), a.size());
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_EQ(prefix[i].at_s, a[i].at_s);
  }
  // Fresh arrivals never repeat a contract; hot ones stay in the hot set.
  std::uint32_t next_fresh = 0;
  for (const SingleArrival& arrival : a) {
    if (arrival.fresh) {
      EXPECT_EQ(arrival.index, next_fresh++);
    } else {
      EXPECT_LT(arrival.index, config.hot_set);
    }
  }
  EXPECT_EQ(fresh_needed(a), next_fresh);
}

TEST(Plan, AddressDrawsAreAPureFunctionOfTheSeed) {
  const BatchConfig config;
  EXPECT_EQ(plan_batch_order(config, 7), plan_batch_order(config, 7));
  EXPECT_NE(plan_batch_order(config, 7), plan_batch_order(config, 8));
  EXPECT_GE(config.pool, 2 * config.cache_capacity);

  const auto first = synthesize_unique(50, 9);
  const auto second = synthesize_unique(50, 9);
  ASSERT_EQ(first.size(), 50u);
  std::set<evm::Hash256> hashes;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]);
    hashes.insert(first[i].code_hash());
  }
  EXPECT_EQ(hashes.size(), first.size());

  const StreamPlan plan = plan_stream(3);
  EXPECT_EQ(plan.miner.seed, plan_stream(3).miner.seed);
  EXPECT_NE(plan.miner.seed, plan_stream(4).miner.seed);
  const auto probes_a = plan_probes(plan, 11, 2.0);
  const auto probes_b = plan_probes(plan, 11, 2.0);
  ASSERT_EQ(probes_a.size(), probes_b.size());
  for (std::size_t i = 0; i < probes_a.size(); ++i) {
    EXPECT_EQ(probes_a[i].at_s, probes_b[i].at_s);
    EXPECT_EQ(probes_a[i].draw, probes_b[i].draw);
  }
}

TEST(Decorators, TimedScorerRowsAreBitIdenticalToTheBareScorer) {
  const auto bare = fit_cascade(nullptr);
  LayerProbes probes;
  const auto staged = fit_cascade(&probes);
  TimedScorer decorated(*staged, "ml.cascade", probes.cascade, probes.spans);

  const std::vector<evm::Bytecode> codes = synthesize_unique(64, 21);
  std::vector<const evm::Bytecode*> pointers;
  for (const evm::Bytecode& code : codes) pointers.push_back(&code);
  std::vector<ml::ScoredRow> expected(codes.size());
  std::vector<ml::ScoredRow> got(codes.size());
  bare->score_batch(ml::BytecodeBatchView(pointers), expected);
  decorated.score_batch(ml::BytecodeBatchView(pointers), got);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(expected[i].probability),
              std::bit_cast<std::uint64_t>(got[i].probability));
    EXPECT_EQ(expected[i].stage, got[i].stage);
    EXPECT_EQ(expected[i].degraded, got[i].degraded);
  }
  EXPECT_EQ(decorated.name(), bare->name());
  EXPECT_EQ(decorated.stage_count(), bare->stage_count());
  EXPECT_EQ(probes.cascade.calls(), 1u);
  EXPECT_EQ(probes.cascade.rows(), codes.size());
  EXPECT_EQ(probes.stage0.rows(), codes.size());
  EXPECT_EQ(probes.stage1.rows(), staged->stats().escalations_total);
}

}  // namespace
}  // namespace perfbench

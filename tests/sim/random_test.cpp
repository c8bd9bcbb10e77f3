#include "sim/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

namespace wormcast {
namespace {

// std::mt19937_64 is the reference: the simulator's engine must produce
// its sequence bit for bit, so every recorded run stays reproducible.
constexpr std::uint64_t kOracleSeeds[] = {0, 1, 5489, ~std::uint64_t{0}};

TEST(Mt19937_64, MatchesTheStandardEngineForAMillionOutputs) {
  for (const std::uint64_t seed : kOracleSeeds) {
    std::mt19937_64 want(seed);
    Mt19937_64 got(seed);
    for (int i = 0; i < (1 << 20); ++i) {
      const std::uint64_t w = want();
      const std::uint64_t g = got();
      if (w != g) {
        ADD_FAILURE() << "seed " << seed << " output " << i << ": " << g
                      << " != " << w;
        break;
      }
    }
  }
}

TEST(Mt19937_64, MatchesTheStandardEngineThroughEveryDistribution) {
  // The four distributions RandomStream draws through, each consuming the
  // engine its own way (canonical doubles, rejection loops, Bernoulli).
  for (const std::uint64_t seed : kOracleSeeds) {
    std::mt19937_64 want(seed);
    Mt19937_64 got(seed);
    std::exponential_distribution<double> exp(1.0 / 500.0);
    std::geometric_distribution<std::int64_t> geo(1.0 / 385.0);
    std::uniform_int_distribution<std::int64_t> uni(-3, 1'000'003);
    std::uniform_int_distribution<std::int64_t> wide(
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max());
    std::bernoulli_distribution coin(0.1);
    for (int i = 0; i < 50'000; ++i) {
      ASSERT_EQ(exp(got), exp(want)) << "seed " << seed << " draw " << i;
      ASSERT_EQ(geo(got), geo(want)) << "seed " << seed << " draw " << i;
      ASSERT_EQ(uni(got), uni(want)) << "seed " << seed << " draw " << i;
      ASSERT_EQ(wide(got), wide(want)) << "seed " << seed << " draw " << i;
      ASSERT_EQ(coin(got), coin(want)) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RandomStream, DrawsMatchTheStandardEngine) {
  // RandomStream's own draw formulas over std::mt19937_64: what every
  // recorded digest was produced with.
  for (const std::uint64_t seed : kOracleSeeds) {
    RandomStream got(seed);
    std::mt19937_64 want(seed);
    for (int i = 0; i < 20'000; ++i) {
      std::exponential_distribution<double> exp(1.0 / 250.0);
      ASSERT_EQ(got.exp_interval(250.0),
                std::max<Time>(1, std::llround(exp(want))));
      std::geometric_distribution<std::int64_t> geo(1.0 / (400.0 - 16 + 1));
      ASSERT_EQ(got.geometric_length(400.0, 16), 16 + geo(want));
      std::uniform_int_distribution<std::int64_t> uni(0, 63);
      ASSERT_EQ(got.uniform(0, 63), uni(want));
      std::bernoulli_distribution coin(0.25);
      ASSERT_EQ(got.chance(0.25), coin(want));
    }
  }
}

/// The next `n` uniform draws of `rng`.
std::vector<std::int64_t> draws(RandomStream& rng, int n) {
  std::vector<std::int64_t> out;
  for (int i = 0; i < n; ++i) out.push_back(rng.uniform(0, 1 << 30));
  return out;
}

TEST(RandomStream, StateIsAllocatedOnTheFirstDrawOnly) {
  RandomStream rng(42);
  EXPECT_EQ(rng.state_bytes(), 0u);
  RandomStream child = rng.fork(7);
  const bool keyed_coin = rng.keyed_chance(0.5, 1, 2);
  const std::int64_t keyed_value = rng.keyed_uniform(0, 99, 3, 4, 5);
  RandomStream copy = rng;
  EXPECT_EQ(rng.state_bytes(), 0u);
  EXPECT_EQ(child.state_bytes(), 0u);
  EXPECT_EQ(copy.state_bytes(), 0u);

  static_cast<void>(rng.uniform(0, 9));
  EXPECT_GT(rng.state_bytes(), 0u);
  EXPECT_EQ(child.state_bytes(), 0u);
  EXPECT_EQ(copy.state_bytes(), 0u);
  // Forks and keyed draws read only the seed: a draw does not move them.
  RandomStream late_child = rng.fork(7);
  EXPECT_EQ(late_child.state_bytes(), 0u);
  EXPECT_EQ(draws(late_child, 5), draws(child, 5));
  EXPECT_EQ(rng.keyed_chance(0.5, 1, 2), keyed_coin);
  EXPECT_EQ(rng.keyed_uniform(0, 99, 3, 4, 5), keyed_value);
}

TEST(RandomStream, CopiesAndMovesContinueTheSequence) {
  RandomStream eager(99);
  const std::vector<std::int64_t> want = draws(eager, 40);
  const std::vector<std::int64_t> tail(want.begin() + 15, want.end());

  // Taken before the first draw: each replays the whole sequence.
  RandomStream lazy(99);
  RandomStream copied(lazy);
  RandomStream assigned(1);
  assigned = lazy;
  RandomStream moved(std::move(lazy));
  RandomStream move_assigned(1);
  move_assigned = RandomStream(99);
  EXPECT_EQ(draws(copied, 40), want);
  EXPECT_EQ(draws(assigned, 40), want);
  EXPECT_EQ(draws(moved, 40), want);
  EXPECT_EQ(draws(move_assigned, 40), want);

  // Taken after 15 draws: each continues from draw 15, and a copy owns its
  // state (drawing from it leaves the source where it was).
  RandomStream source(99);
  static_cast<void>(draws(source, 15));
  RandomStream copy_after(source);
  RandomStream assign_after(1);
  static_cast<void>(assign_after.uniform(0, 1));
  assign_after = source;
  EXPECT_EQ(draws(copy_after, 25), tail);
  EXPECT_EQ(draws(assign_after, 25), tail);
  RandomStream move_after(std::move(source));
  EXPECT_EQ(draws(move_after, 25), tail);
}

TEST(RandomStream, ExpIntervalHasRequestedMean) {
  RandomStream rng(1);
  const double mean = 500.0;
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(rng.exp_interval(mean));
  EXPECT_NEAR(total / n, mean, mean * 0.05);
}

TEST(RandomStream, ExpIntervalNeverBelowOne) {
  RandomStream rng(2);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.exp_interval(1.5), 1);
}

TEST(RandomStream, GeometricLengthHasRequestedMeanAndFloor) {
  RandomStream rng(3);
  const double mean = 400.0;
  const std::int64_t min_len = 16;
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto len = rng.geometric_length(mean, min_len);
    EXPECT_GE(len, min_len);
    total += static_cast<double>(len);
  }
  EXPECT_NEAR(total / n, mean, mean * 0.05);
}

TEST(RandomStream, UniformCoversRangeInclusive) {
  RandomStream rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomStream, ChanceRespectsProbability) {
  RandomStream rng(5);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.1) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.1, 0.01);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RandomStream, SameSeedSameSequence) {
  RandomStream a(77);
  RandomStream b(77);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
}

TEST(RandomStream, ForkedStreamsAreIndependentAndDeterministic) {
  RandomStream base(9);
  RandomStream f1 = base.fork(1);
  RandomStream f2 = base.fork(2);
  RandomStream f1_again = RandomStream(9).fork(1);
  bool all_equal = true;
  for (int i = 0; i < 50; ++i) {
    const auto a = f1.uniform(0, 1 << 30);
    const auto b = f2.uniform(0, 1 << 30);
    if (a != b) all_equal = false;
    EXPECT_EQ(a, f1_again.uniform(0, 1 << 30));
  }
  EXPECT_FALSE(all_equal);
}

TEST(RandomStream, ShuffleIsAPermutation) {
  RandomStream rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RandomStream, PickReturnsContainedElement) {
  RandomStream rng(12);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int x = rng.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

}  // namespace
}  // namespace wormcast

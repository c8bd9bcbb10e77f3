// SweepRunner: order-stable parallel execution of independent sweep
// points and deterministic seeds. These tests run under the TSan CI job.
// (Replication merge order is pinned by sweep_driver_test.)
#include "harness/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "sim/random.h"

namespace wormcast::harness {
namespace {

TEST(SweepRunner, RunsEveryPointExactlyOnce) {
  SweepRunner pool(4);
  std::vector<std::atomic<int>> hits(97);
  pool.run_indexed(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, SlotResultsKeepPointOrder) {
  SweepRunner pool(8);
  std::vector<int> out(50);
  pool.run_indexed(out.size(),
                   [&](std::size_t i) { out[i] = static_cast<int>(i * i); });
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(SweepRunner, ResultsIdenticalAcrossJobCounts) {
  auto compute = [](std::size_t i) {
    // A float-heavy computation whose result would expose any
    // job-count-dependent evaluation.
    RandomStream rng(point_seed(42, i));
    double acc = 0.0;
    for (int k = 0; k < 100; ++k) acc += rng.uniform(0, 1'000'000) * 1e-3;
    return acc;
  };
  auto sweep = [&](int jobs) {
    std::vector<double> out(23);
    SweepRunner(jobs).run_indexed(out.size(),
                                  [&](std::size_t i) { out[i] = compute(i); });
    return out;
  };
  const auto seq = sweep(1);
  const auto par = sweep(7);
  for (std::size_t i = 0; i < seq.size(); ++i) EXPECT_EQ(seq[i], par[i]);
}

TEST(SweepRunner, HandlesZeroPointsAndMoreJobsThanPoints) {
  SweepRunner pool(16);
  EXPECT_TRUE(pool.run_indexed(0, [](std::size_t) {}).empty());
  std::vector<int> out(3);
  pool.run_indexed(out.size(),
                   [&](std::size_t i) { out[i] = static_cast<int>(i) + 1; });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(SweepRunner, ReportsPerPointWallClock) {
  SweepRunner pool(2);
  const auto walls = pool.run_indexed(5, [](std::size_t) {
    volatile double sink = 0;
    for (int i = 0; i < 10'000; ++i) sink = sink + i;
  });
  ASSERT_EQ(walls.size(), 5u);
  for (const double w : walls) EXPECT_GE(w, 0.0);
}

TEST(SweepRunner, RethrowsFirstPointException) {
  SweepRunner pool(4);
  EXPECT_THROW(pool.run_indexed(10,
                                [](std::size_t i) {
                                  if (i == 3)
                                    throw std::runtime_error("point 3");
                                }),
               std::runtime_error);
}

TEST(PointSeed, IndexZeroKeepsBaseSeed) {
  EXPECT_EQ(point_seed(1234, 0), 1234u);
}

TEST(PointSeed, DerivedSeedsAreDistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = point_seed(7, i);
    EXPECT_EQ(s, point_seed(7, i));  // pure function
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across a sweep
  EXPECT_NE(point_seed(7, 1), point_seed(8, 1));
}

}  // namespace
}  // namespace wormcast::harness

// Concurrent-run isolation: two full Networks running on separate threads
// — with armed fault injection, tracing, and watchdogs — must produce
// exactly the results they produce when run sequentially. This is the
// executable form of the thread-safety audit behind the parallel sweep
// runner: no mutable statics or cross-instance state anywhere in src/.
// The TSan CI job (WORMCAST_SANITIZE=thread) runs this test to catch any
// future regression that the equality check alone might miss.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/network.h"
#include "harness/sweep_runner.h"
#include "net/topologies.h"
#include "traffic/groups.h"

namespace wormcast {
namespace {

struct RunResult {
  std::vector<std::pair<std::string, double>> counters;
  std::int64_t messages = 0;
  std::int64_t messages_completed = 0;
  std::int64_t retransmits = 0;
  std::int64_t faults_injected = 0;
  std::int64_t trace_events = 0;
};

/// A faulted, traced, watchdogged experiment — every per-instance
/// subsystem the audit cares about (FaultInjector, Tracer, Metrics,
/// DeadlockWatchdog, CounterRegistry) is live.
RunResult run_experiment(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.traffic.offered_load = 0.05;
  cfg.traffic.multicast_fraction = 0.5;
  cfg.traffic.mean_worm_len = 300.0;
  cfg.protocol.pool_bytes = 64 * 1024;
  cfg.protocol.ack_timeout = 15'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  cfg.protocol.max_attempts = 6;
  cfg.faults.worm_kill_rate = 0.05;
  cfg.faults.ctrl_loss_rate = 0.05;
  cfg.seed = seed;
  auto group = make_full_group(8);
  Network net(make_myrinet_testbed(), {group}, cfg);
  net.enable_tracing(4096);
  net.attach_watchdog(250'000);
  net.run(/*warmup=*/2'000, /*measure=*/60'000, /*drain_cap=*/200'000);

  RunResult r;
  CounterRegistry reg;
  net.register_counters(reg);
  r.counters = reg.snapshot();
  const Network::Summary s = net.summary();
  r.messages = s.messages;
  r.messages_completed = s.messages_completed;
  r.retransmits = s.retransmits;
  r.faults_injected = s.faults_injected;
  r.trace_events = net.sim().tracer().recorded();
  return r;
}

void expect_same(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.messages_completed, b.messages_completed);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.trace_events, b.trace_events);
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].first, b.counters[i].first);
    EXPECT_EQ(a.counters[i].second, b.counters[i].second)
        << "counter " << a.counters[i].first;
  }
}

TEST(ConcurrentIsolation, TwoNetworksOnThreadsMatchSequentialRuns) {
  const std::uint64_t seed_a = 21, seed_b = 77;
  // Reference: sequential, one at a time.
  const RunResult seq_a = run_experiment(seed_a);
  const RunResult seq_b = run_experiment(seed_b);
  ASSERT_GT(seq_a.messages, 0);
  ASSERT_GT(seq_b.messages, 0);
  EXPECT_GT(seq_a.faults_injected, 0);

  // Concurrent: both Networks alive and running simultaneously.
  RunResult par_a, par_b;
  std::thread ta([&] { par_a = run_experiment(seed_a); });
  std::thread tb([&] { par_b = run_experiment(seed_b); });
  ta.join();
  tb.join();

  expect_same(seq_a, par_a);
  expect_same(seq_b, par_b);
}

TEST(ConcurrentIsolation, SweepRunnerPointsMatchSequentialAtAnyJobCount) {
  const std::vector<std::uint64_t> seeds = {3, 5, 9, 21};
  auto sweep = [&](int jobs) {
    std::vector<RunResult> out(seeds.size());
    harness::SweepRunner(jobs).run_indexed(
        seeds.size(), [&](std::size_t i) { out[i] = run_experiment(seeds[i]); });
    return out;
  };
  const auto seq = sweep(1);
  const auto par = sweep(4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) expect_same(seq[i], par[i]);
}

}  // namespace
}  // namespace wormcast

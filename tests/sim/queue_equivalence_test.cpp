// Queue-equivalence suite: the calendar (timing wheel) and the flat binary
// heap implement the same total order (time, late, insertion sequence) and
// the same reclaim rule for cancelled entries, so an entire experiment must
// produce bit-identical results under either kind, queue peak included.
// These tests pin that on full simulations — the Section 8 testbed (heavy
// same-tick traffic, adapter timers, channel pumps) and a random-traffic
// torus sweep point (Poisson generators, retransmit timers, heavy
// cancellation) — so any divergence in firing order shows up as a
// macroscopic metric diff, not a subtle drift.
#include <gtest/gtest.h>

#include "myrinet_testbed.h"
#include "net/topologies.h"
#include "sim/random.h"
#include "traffic/groups.h"

namespace wormcast {
namespace {

bench::TestbedResult run_testbed_with(EventQueueKind kind, Time inject_period,
                                      int torus) {
  bench::TestbedOptions opts;
  opts.senders = torus > 0 ? torus * torus : 8;
  opts.packet_size = 1024;
  opts.span = torus > 0 ? 200'000 : 300'000;
  opts.queue = kind;
  opts.inject_period = inject_period;
  opts.torus = torus;
  opts.group_size = torus > 0 ? 4 : 0;
  return bench::run_testbed(opts);
}

void expect_identical(const bench::TestbedResult& a,
                      const bench::TestbedResult& b) {
  // Same firing order means the simulations are the same run: every
  // deterministic observable matches exactly, including the event count
  // and the app-poll count (unlike fast-forward, the queue kind does not
  // change which events exist). Same reclaim rule means the same peak.
  EXPECT_EQ(a.throughput_mbps, b.throughput_mbps);
  EXPECT_EQ(a.loss_rate, b.loss_rate);
  EXPECT_EQ(a.bytes_on_wire, b.bytes_on_wire);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.app_polls, b.app_polls);
  EXPECT_EQ(a.pool_fresh, b.pool_fresh);
  EXPECT_EQ(a.pool_reused, b.pool_reused);
  EXPECT_EQ(a.event_queue_peak, b.event_queue_peak);
}

TEST(QueueEquivalence, SaturatingTestbedIsBitIdentical) {
  const auto heap = run_testbed_with(EventQueueKind::kHeap,
                                     /*inject_period=*/0, /*torus=*/0);
  const auto cal = run_testbed_with(EventQueueKind::kCalendar,
                                    /*inject_period=*/0, /*torus=*/0);
  expect_identical(heap, cal);
  EXPECT_GT(heap.bytes_on_wire, 0);
}

TEST(QueueEquivalence, RateLimitedTorusIsBitIdentical) {
  // The hot-path bench's scale shape in miniature: a 4x4 torus of mostly
  // idle hosts sending to disjoint 4-host groups (fast-forward on, so the
  // drain-wake path and deadline jumps run under both queue kinds).
  const auto heap = run_testbed_with(EventQueueKind::kHeap,
                                     /*inject_period=*/40'000, /*torus=*/4);
  const auto cal = run_testbed_with(EventQueueKind::kCalendar,
                                    /*inject_period=*/40'000, /*torus=*/4);
  expect_identical(heap, cal);
  EXPECT_GT(heap.bytes_on_wire, 0);
}

double run_random_traffic(EventQueueKind kind, Scheme scheme,
                          double* utilization, std::size_t* queue_peak) {
  RandomStream group_rng(900);
  auto groups = make_random_groups(10, 10, 64, group_rng);
  ExperimentConfig cfg = bench::sim_defaults(scheme, 0.05, 0.10, 1);
  cfg.engine.queue = kind;
  Network net(make_torus(8, 8), std::move(groups), cfg);
  net.run(/*warmup=*/20'000, /*measure=*/60'000, /*drain_cap=*/100'000);
  const auto s = net.summary();
  *utilization = s.measured_utilization;
  *queue_peak = net.event_queue_peak();
  return s.mcast_latency_mean;
}

TEST(QueueEquivalence, RandomTrafficSweepPointIsBitIdentical) {
  // Poisson arrivals + geometric worm lengths + retransmit timers: the
  // cancel-heavy workload where a queue-order bug would skew latency.
  for (const Scheme scheme :
       {Scheme::kHamiltonianSF, Scheme::kTreeBroadcast}) {
    double util_heap = 0.0;
    double util_cal = 0.0;
    std::size_t peak_heap = 0;
    std::size_t peak_cal = 0;
    const double lat_heap = run_random_traffic(EventQueueKind::kHeap, scheme,
                                               &util_heap, &peak_heap);
    const double lat_cal = run_random_traffic(EventQueueKind::kCalendar,
                                              scheme, &util_cal, &peak_cal);
    EXPECT_EQ(lat_heap, lat_cal);
    EXPECT_EQ(util_heap, util_cal);
    EXPECT_EQ(peak_heap, peak_cal);
    EXPECT_GT(peak_heap, 0u);
    EXPECT_GT(util_heap, 0.0);
  }
}

}  // namespace
}  // namespace wormcast

// Seed stability under fault injection: the injector draws from its own
// forked stream, so the same seed must reproduce the same faults, the same
// recoveries and the same statistics, bit for bit.
#include <gtest/gtest.h>

#include <vector>

#include "core/network.h"
#include "net/topologies.h"

namespace wormcast {
namespace {

Network::Summary run_faulted(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.ack_timeout = 20'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  cfg.protocol.pool_bytes = 128 * 1024;
  cfg.faults.worm_kill_rate = 0.05;
  cfg.faults.ctrl_loss_rate = 0.05;
  cfg.faults.rx_drop_rate = 0.02;
  cfg.traffic.offered_load = 0.05;
  cfg.traffic.multicast_fraction = 0.3;
  cfg.seed = seed;
  MulticastGroupSpec group;
  group.id = 0;
  for (HostId h = 0; h < 8; ++h) group.members.push_back(h);
  Network net(make_myrinet_testbed(), {group}, cfg);
  net.run(/*warmup=*/2'000, /*measure=*/30'000, /*drain_cap=*/300'000);
  return net.summary();
}

TEST(FaultDeterminism, SameSeedSameStatistics) {
  const Network::Summary a = run_faulted(1234);
  const Network::Summary b = run_faulted(1234);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.messages_completed, b.messages_completed);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.ack_timeouts, b.ack_timeouts);
  EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.nacks, b.nacks);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.deliveries_failed, b.deliveries_failed);
  EXPECT_EQ(a.outstanding, b.outstanding);
  // Latencies are sums of integer byte-times; identical runs give bitwise
  // identical doubles.
  EXPECT_EQ(a.mcast_latency_mean, b.mcast_latency_mean);
  EXPECT_EQ(a.mcast_latency_p95, b.mcast_latency_p95);
  EXPECT_EQ(a.mcast_completion_mean, b.mcast_completion_mean);
  EXPECT_EQ(a.throughput_per_host, b.throughput_per_host);
  EXPECT_GT(a.faults_injected, 0) << "scenario must actually exercise faults";
}

// link_down() is a pure predicate: callers may query it any number of
// times (e.g. once per byte) without inflating the drop counter; only the
// site that actually discards a worm calls note_outage_drop().
TEST(FaultDeterminism, LinkDownQueryNeverCounts) {
  FaultInjector faults(RandomStream(1));
  const int channel_tag = 0;  // address used as the channel identity key
  faults.schedule_outage(&channel_tag, 10, 20);
  EXPECT_FALSE(faults.link_down(&channel_tag, 5));
  EXPECT_TRUE(faults.link_down(&channel_tag, 15));
  EXPECT_TRUE(faults.link_down(&channel_tag, 15));  // double query, no effect
  EXPECT_FALSE(faults.link_down(&channel_tag, 25));
  EXPECT_EQ(faults.outage_drops(), 0);
  faults.note_outage_drop();
  EXPECT_EQ(faults.outage_drops(), 1);
  // Permanent death: an outage that never ends, counted separately.
  faults.kill_link(&channel_tag);
  EXPECT_TRUE(faults.link_down(&channel_tag, 1'000'000'000));
  EXPECT_EQ(faults.links_killed(), 1);
  EXPECT_EQ(faults.outage_drops(), 1);
}

// link_down() answers from per-channel window indexes; it must agree with
// a brute-force scan of every window, including overlapping windows added
// out of order, a global outage, a permanent kill and a flap cycle with an
// outage on top of it.
TEST(FaultDeterminism, LinkDownMatchesBruteForceScan) {
  struct Window {
    const void* channel;  // nullptr = every channel
    Time from;
    Time until;
  };
  const int a = 0, b = 0, c = 0, d = 0;  // channel identity keys
  constexpr Time kHorizon = 3'000;
  const std::vector<Window> outages = {
      {&a, 400, 900}, {&a, 100, 300}, {&a, 150, 1'200}, {&a, 150, 160},
      {&a, 1'500, 1'501}, {&a, 1'400, 1'600}, {&b, 50, 70},
      {nullptr, 2'000, 2'100}, {nullptr, 2'050, 2'060}, {&c, 600, 2'400}};

  // The flap windows are the injector's own draws: read them back off an
  // injector holding nothing else.
  const auto schedule_flaps = [&](FaultInjector& f) {
    return f.schedule_flaps(&c, 10, kHorizon, 40, 60, /*key=*/77);
  };
  FaultInjector flaps_only(RandomStream(5));
  const int flap_count = schedule_flaps(flaps_only);
  EXPECT_GT(flap_count, 10);
  std::vector<Window> flaps;
  for (Time t = 0, start = -1; t <= kHorizon; ++t) {
    const bool down = flaps_only.link_down(&c, t);
    if (down && start < 0) start = t;
    if (!down && start >= 0) {
      flaps.push_back({&c, start, t});
      start = -1;
    }
  }
  EXPECT_EQ(static_cast<int>(flaps.size()), flap_count);

  FaultInjector faults(RandomStream(5));
  EXPECT_EQ(schedule_flaps(faults), flap_count);
  for (const Window& w : outages)
    faults.schedule_outage(w.channel, w.from, w.until);
  const auto covered = [](const std::vector<Window>& list, const void* ch,
                           Time t) {
    for (const Window& w : list)
      if ((w.channel == nullptr || w.channel == ch) && t >= w.from &&
          t < w.until)
        return true;
    return false;
  };
  const auto brute_force = [&](const void* ch, Time t, bool killed) {
    return (killed && ch == &b) || covered(outages, ch, t) ||
           covered(flaps, ch, t);
  };
  for (const bool killed : {false, true}) {
    if (killed) faults.kill_link(&b);
    for (const void* ch : {static_cast<const void*>(&a),
                           static_cast<const void*>(&b),
                           static_cast<const void*>(&c),
                           static_cast<const void*>(&d)}) {
      for (Time t = 0; t <= kHorizon; ++t) {
        ASSERT_EQ(faults.link_down(ch, t), brute_force(ch, t, killed))
            << "channel " << (ch == &a ? 'a' : ch == &b ? 'b' : ch == &c ? 'c' : 'd')
            << " t=" << t << (killed ? " after kill" : "");
      }
    }
  }
  EXPECT_TRUE(faults.link_down(&b, 1'000'000'000));
  EXPECT_FALSE(faults.link_down(&d, 1'000));
}

TEST(FaultDeterminism, DifferentSeedDifferentFaults) {
  const Network::Summary a = run_faulted(1234);
  const Network::Summary b = run_faulted(987654321);
  // With tens of fault rolls per run the chance of a full collision across
  // these fields is negligible.
  EXPECT_TRUE(a.faults_injected != b.faults_injected ||
              a.mcast_latency_mean != b.mcast_latency_mean ||
              a.messages != b.messages);
}

}  // namespace
}  // namespace wormcast

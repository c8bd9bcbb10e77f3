// Switch-level multicasting (Section 3): fabric replication along the
// encoded tree, root-flood broadcast, scheme (b) fragmentation, and
// scheme (c) flushing of unicasts blocked on multicast-IDLE ports.
#include <gtest/gtest.h>

#include "core/network.h"
#include "net/mcast_route_builder.h"
#include "net/topologies.h"

namespace wormcast {
namespace {

ExperimentConfig switch_cfg(SwitchMcastScheme scheme) {
  ExperimentConfig cfg;
  cfg.switch_mcast.scheme = scheme;
  // Scheme (a) requires every worm to stay on the up/down spanning tree.
  cfg.routing.tree_links_only = true;
  return cfg;
}

TEST(McastRouteBuilder, PathsMergeIntoATree) {
  const Topology topo = make_torus(4, 4);
  UpDownOptions opts;
  opts.tree_links_only = true;
  const UpDownRouting routing(topo, opts);
  const auto branches =
      build_mcast_branches(routing, 0, {0, 3, 7, 11, 14});
  // Encodes and splits without error; total leaf count = 4 destinations.
  const auto enc = EncodedMcastRoute::encode(branches);
  std::function<int(const std::vector<McastRouteTree>&)> leaves =
      [&](const std::vector<McastRouteTree>& ts) {
        int n = 0;
        for (const auto& t : ts)
          n += t.children.empty() ? 1 : leaves(t.children);
        return n;
      };
  EXPECT_EQ(leaves(enc.decode()), 4);
}

TEST(McastRouteBuilder, NoDestinationsThrows) {
  const Topology topo = make_star(3);
  const UpDownRouting routing(topo);
  EXPECT_THROW(build_mcast_branches(routing, 1, {1}),
               std::invalid_argument);
}

class SwitchMcastSchemeTest
    : public ::testing::TestWithParam<SwitchMcastScheme> {};

TEST_P(SwitchMcastSchemeTest, MulticastReachesExactlyTheGroup) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {1, 3, 4, 6};
  Network net(make_torus(3, 3), {group}, switch_cfg(GetParam()));
  auto ctx = net.send_switch_multicast(1, 0, 300);
  net.run_to_quiescence();
  EXPECT_EQ(ctx->destinations_reached, 3);
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    const bool member = h == 3 || h == 4 || h == 6;
    EXPECT_EQ(net.adapter(h).payload_bytes_received(), member ? 300 : 0)
        << "host " << h;
  }
  EXPECT_EQ(net.fabric().total_overflows(), 0);
  EXPECT_GE(net.switch_mcast_engine().connections_opened(), 1);
}

TEST_P(SwitchMcastSchemeTest, BroadcastReachesEveryOtherHost) {
  Network net(make_torus(3, 3), {}, switch_cfg(GetParam()));
  auto ctx = net.send_switch_broadcast(4, 250);
  net.run_to_quiescence();
  EXPECT_EQ(ctx->destinations_reached, 8);
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    if (h == 4) continue;
    EXPECT_EQ(net.adapter(h).payload_bytes_received(), 250) << "host " << h;
  }
  EXPECT_EQ(net.metrics().outstanding(), 0);
}

TEST_P(SwitchMcastSchemeTest, BackToBackBroadcastsAllComplete) {
  Network net(make_torus(3, 3), {}, switch_cfg(GetParam()));
  for (int i = 0; i < 6; ++i)
    net.send_switch_broadcast(static_cast<HostId>(i % 9), 100 + i);
  net.run_to_quiescence();
  EXPECT_EQ(net.metrics().outstanding(), 0);
  EXPECT_EQ(net.metrics().messages_completed(), 6);
}

TEST_P(SwitchMcastSchemeTest, MulticastCompetingWithUnicastTraffic) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 3};
  Network net(make_line(4), {group}, switch_cfg(GetParam()));
  // A long unicast occupies the s2->s3 link, stalling one multicast branch.
  Demand uni;
  uni.src = 2;
  uni.dst = 3;
  uni.length = 3000;
  net.inject(uni);
  net.run_until(100);
  auto ctx = net.send_switch_multicast(0, 0, 500);
  // A later unicast that needs the port the multicast branch holds.
  net.run_until(400);
  Demand blocked;
  blocked.src = 1;
  blocked.dst = 2;
  blocked.length = 2000;
  net.inject(blocked);
  net.run_to_quiescence();
  // Everything is eventually delivered under every scheme.
  EXPECT_EQ(ctx->destinations_reached, 2);
  EXPECT_EQ(net.metrics().outstanding(), 0)
      << "undelivered with scheme " << static_cast<int>(GetParam());
  EXPECT_EQ(net.fabric().total_overflows(), 0);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SwitchMcastSchemeTest,
                         ::testing::Values(SwitchMcastScheme::kIdleFill,
                                           SwitchMcastScheme::kInterrupt,
                                           SwitchMcastScheme::kFlushUnicast),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case SwitchMcastScheme::kIdleFill:
                               return "idle_fill";
                             case SwitchMcastScheme::kInterrupt:
                               return "interrupt";
                             case SwitchMcastScheme::kFlushUnicast:
                               return "flush_unicast";
                           }
                           return "unknown";
                         });

TEST(SwitchMcast, FlushUnicastActuallyFlushes) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 3};
  ExperimentConfig cfg = switch_cfg(SwitchMcastScheme::kFlushUnicast);
  cfg.switch_mcast.idle_flush_threshold = 64;
  Network net(make_line(4), {group}, cfg);
  // Stall the multicast branch toward host 3 with a long unicast.
  Demand uni;
  uni.src = 2;
  uni.dst = 3;
  uni.length = 6000;
  net.inject(uni);
  net.run_until(100);
  net.send_switch_multicast(0, 0, 800);
  // While the multicast idles on the s2->h2 port, a unicast to host 2
  // arrives and must be flushed, then retransmitted and delivered.
  net.run_until(600);
  Demand blocked;
  blocked.src = 1;
  blocked.dst = 2;
  blocked.length = 2000;
  net.inject(blocked);
  net.run_to_quiescence();
  EXPECT_GE(net.switch_mcast_engine().unicasts_flushed(), 1);
  EXPECT_GE(net.metrics().retransmits(), 1);
  EXPECT_EQ(net.metrics().outstanding(), 0);
  // The flushed unicast was still delivered exactly once.
  EXPECT_EQ(net.adapter(2).payload_bytes_received(), 800 + 2000);
}

// Scheme (c)'s flush handler with the fault-injection subsystem armed: the
// switch-side flush is the only fault that fires, so the flushed unicast
// must be retransmitted exactly once, delivered exactly once, and the
// engine's flush counter must agree with the run summary.
TEST(SwitchMcast, FlushedUnicastUnderArmedFaultsRetransmitsOnce) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 3};
  ExperimentConfig cfg = switch_cfg(SwitchMcastScheme::kFlushUnicast);
  cfg.switch_mcast.idle_flush_threshold = 64;
  cfg.protocol.retry_jitter = 0;
  // Back off past the stalling unicast so the single retry finds the port
  // clean instead of being flushed a second time.
  cfg.protocol.retry_backoff = 8'000;
  Network net(make_line(4), {group}, cfg);
  // Arm the injector without any probabilistic fault: a momentary outage
  // window before traffic exists keeps every hook site live for the run.
  net.faults().schedule_outage(nullptr, 0, 1);
  Demand uni;
  uni.src = 2;
  uni.dst = 3;
  uni.length = 6000;
  net.inject(uni);
  net.run_until(100);
  net.send_switch_multicast(0, 0, 800);
  net.run_until(600);
  Demand blocked;
  blocked.src = 1;
  blocked.dst = 2;
  blocked.length = 2000;
  net.inject(blocked);
  net.run_to_quiescence();

  ASSERT_TRUE(net.faults().armed());
  const Network::Summary s = net.summary();
  EXPECT_EQ(s.unicasts_flushed, 1);
  EXPECT_EQ(net.switch_mcast_engine().unicasts_flushed(), 1)
      << "summary must mirror the engine counter";
  EXPECT_EQ(s.retransmits, 1) << "the flush retry, and only it";
  EXPECT_EQ(s.outstanding, 0);
  // Exactly once: the multicast copy plus the one retried unicast.
  EXPECT_EQ(net.adapter(2).payload_bytes_received(), 800 + 2000);
}

TEST(SwitchMcast, InterruptProducesFragmentsUnderContention) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 3};
  ExperimentConfig cfg = switch_cfg(SwitchMcastScheme::kInterrupt);
  cfg.switch_mcast.interrupt_check = 16;
  Network net(make_line(4), {group}, cfg);
  Demand uni;
  uni.src = 2;
  uni.dst = 3;
  uni.length = 6000;
  net.inject(uni);
  net.run_until(100);
  auto ctx = net.send_switch_multicast(0, 0, 800);
  net.run_to_quiescence();
  EXPECT_EQ(ctx->destinations_reached, 2);
  // The stalled branch forced at least one extra fragment beyond the
  // initial per-branch fragments.
  EXPECT_GT(net.switch_mcast_engine().fragments_sent(),
            net.switch_mcast_engine().connections_opened());
  EXPECT_EQ(net.metrics().outstanding(), 0);
}

}  // namespace
}  // namespace wormcast

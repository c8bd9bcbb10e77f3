// End-to-end smoke tests: full stack (fabric + adapters + protocols) on
// small topologies, checked for exact delivery and sane latencies.
#include <gtest/gtest.h>

#include "core/network.h"
#include "net/topologies.h"

namespace wormcast {
namespace {

ExperimentConfig quiet_config(Scheme scheme) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = scheme;
  return cfg;
}

TEST(EndToEnd, UnicastAcrossOneSwitch) {
  Network net(make_star(2), {}, quiet_config(Scheme::kHamiltonianSF));
  Demand d;
  d.src = 0;
  d.dst = 1;
  d.length = 100;
  net.inject(d);
  net.run_to_quiescence();
  EXPECT_EQ(net.metrics().messages_completed(), 1);
  EXPECT_EQ(net.adapter(1).worms_received(), 1);
  EXPECT_EQ(net.adapter(1).payload_bytes_received(), 100);
  EXPECT_EQ(net.metrics().unicast_latency().count(), 1);
  // Lower bound: tx overhead + wire length + propagation over two links.
  EXPECT_GT(net.metrics().unicast_latency().mean(), 100.0);
  EXPECT_LT(net.metrics().unicast_latency().mean(), 400.0);
}

TEST(EndToEnd, UnicastAcrossLineOfSwitches) {
  Network net(make_line(4), {}, quiet_config(Scheme::kHamiltonianSF));
  Demand d;
  d.src = 0;
  d.dst = 3;
  d.length = 500;
  net.inject(d);
  net.run_to_quiescence();
  EXPECT_EQ(net.metrics().messages_completed(), 1);
  EXPECT_EQ(net.adapter(3).payload_bytes_received(), 500);
  EXPECT_EQ(net.fabric().total_overflows(), 0);
}

TEST(EndToEnd, ManyUnicastsAllDelivered) {
  Network net(make_torus(4, 4), {}, quiet_config(Scheme::kHamiltonianSF));
  for (HostId s = 0; s < net.num_hosts(); ++s) {
    Demand d;
    d.src = s;
    d.dst = (s + 5) % net.num_hosts();
    d.length = 200 + s;
    net.inject(d);
  }
  net.run_to_quiescence();
  EXPECT_EQ(net.metrics().messages_completed(), net.num_hosts());
  EXPECT_EQ(net.metrics().outstanding(), 0);
  EXPECT_EQ(net.fabric().total_overflows(), 0);
}

class McastSchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(McastSchemeTest, SingleMulticastReachesAllMembers) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 3, 5, 6};
  Network net(make_torus(3, 3), {group}, quiet_config(GetParam()));
  Demand d;
  d.src = 3;
  d.multicast = true;
  d.group = 0;
  d.length = 256;
  net.inject(d);
  net.run_to_quiescence();
  EXPECT_EQ(net.metrics().messages_completed(), 1)
      << "outstanding=" << net.metrics().outstanding();
  // Every member but the origin received the payload exactly once.
  for (const HostId m : group.members) {
    if (m == 3) continue;
    EXPECT_EQ(net.adapter(m).payload_bytes_received(), 256) << "member " << m;
  }
  EXPECT_EQ(net.metrics().mcast_latency().count(), 4);
  EXPECT_EQ(net.fabric().total_overflows(), 0);
}

TEST_P(McastSchemeTest, BackToBackMulticastsComplete) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 1, 2, 3, 4, 5, 6, 7};
  Network net(make_torus(3, 3), {group}, quiet_config(GetParam()));
  for (int i = 0; i < 10; ++i) {
    Demand d;
    d.src = static_cast<HostId>((i * 3) % 8);
    d.multicast = true;
    d.group = 0;
    d.length = 64 + i;
    net.inject(d);
  }
  net.run_to_quiescence();
  EXPECT_EQ(net.metrics().messages_completed(), 10)
      << "outstanding=" << net.metrics().outstanding();
  EXPECT_EQ(net.metrics().outstanding(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, McastSchemeTest,
                         ::testing::Values(Scheme::kRepeatedUnicast,
                                           Scheme::kHamiltonianSF,
                                           Scheme::kHamiltonianCT,
                                           Scheme::kTreeSF, Scheme::kTreeCT,
                                           Scheme::kTreeBroadcast),
                         [](const auto& param_info) {
                           std::string n = scheme_name(param_info.param);
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(EndToEnd, TrafficDrivenRunDeliversEverything) {
  RandomStream rng(42);
  auto groups = make_random_groups(3, 4, 16, rng);
  ExperimentConfig cfg = quiet_config(Scheme::kTreeSF);
  cfg.traffic.offered_load = 0.02;
  cfg.traffic.multicast_fraction = 0.2;
  cfg.traffic.mean_worm_len = 200.0;
  Network net(make_torus(4, 4), groups, cfg);
  net.run(/*warmup=*/20'000, /*measure=*/100'000);
  const auto s = net.summary();
  EXPECT_GT(s.messages, 50);
  EXPECT_EQ(s.outstanding, 0) << "oldest age " << s.oldest_outstanding_age;
  EXPECT_EQ(s.fabric_overflows, 0);
  EXPECT_GT(s.mcast_latency_mean, 0.0);
  EXPECT_GT(s.unicast_latency_mean, 0.0);
}

}  // namespace
}  // namespace wormcast

// Total ordering (Sections 5 and 6): serialized schemes deliver every
// group's messages in the same order at every member; the repeated-unicast
// baseline cannot enforce it (the paper's criticism).
#include <gtest/gtest.h>

#include "core/network.h"
#include "net/topologies.h"

namespace wormcast {
namespace {

/// Injects `n` multicasts from rotating origins at staggered times.
void blast(Network& net, GroupId group, const std::vector<HostId>& members,
           int n) {
  for (int i = 0; i < n; ++i) {
    const Time when = 1 + 950 * i;  // overlapping but distinct start times
    net.sim().at(when, [&net, group, &members, i] {
      Demand d;
      d.src = members[static_cast<std::size_t>(i) % members.size()];
      d.multicast = true;
      d.group = group;
      d.length = 300;
      net.inject(d);
    });
  }
}

void expect_identical_orders(Network& net, GroupId group,
                             const std::vector<HostId>& members) {
  const std::vector<std::uint64_t>* reference = nullptr;
  HostId ref_host = kNoHost;
  for (const HostId m : members) {
    const auto* order = net.metrics().order_of(m, group);
    if (order == nullptr) continue;  // a member that only originated
    if (reference == nullptr) {
      reference = order;
      ref_host = m;
      continue;
    }
    // Members that originated some messages see fewer entries; orders must
    // agree on the common subsequence of messages both delivered.
    std::vector<std::uint64_t> a = *reference;
    std::vector<std::uint64_t> b = *order;
    std::vector<std::uint64_t> a_common;
    std::vector<std::uint64_t> b_common;
    for (const auto id : a)
      if (std::find(b.begin(), b.end(), id) != b.end()) a_common.push_back(id);
    for (const auto id : b)
      if (std::find(a.begin(), a.end(), id) != a.end()) b_common.push_back(id);
    EXPECT_EQ(a_common, b_common)
        << "hosts " << ref_host << " and " << m << " disagree on order";
  }
}

class OrderedSchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(OrderedSchemeTest, AllMembersSeeTheSameOrder) {
  const std::vector<HostId> members{0, 2, 4, 5, 7, 8};
  MulticastGroupSpec g{0, members};
  ExperimentConfig cfg;
  cfg.protocol.scheme = GetParam();
  cfg.protocol.total_ordering = true;
  Network net(make_torus(3, 3), {g}, cfg);
  blast(net, 0, members, 24);
  net.run_to_quiescence();
  EXPECT_EQ(net.metrics().outstanding(), 0);
  expect_identical_orders(net, 0, members);
}

TEST_P(OrderedSchemeTest, OrderingHoldsUnderBufferPressure) {
  const std::vector<HostId> members{0, 1, 2, 3, 4, 5};
  MulticastGroupSpec g{0, members};
  ExperimentConfig cfg;
  cfg.protocol.scheme = GetParam();
  cfg.protocol.total_ordering = true;
  cfg.protocol.pool_bytes = 1400;  // forces NACKs and retransmissions
  cfg.protocol.retry_backoff = 600;
  Network net(make_torus(3, 3), {g}, cfg);
  blast(net, 0, members, 24);
  net.run_until(3'000'000);
  EXPECT_EQ(net.metrics().outstanding(), 0);
  // Retransmissions occurred, yet the order is still total.
  expect_identical_orders(net, 0, members);
}

INSTANTIATE_TEST_SUITE_P(Schemes, OrderedSchemeTest,
                         ::testing::Values(Scheme::kHamiltonianSF,
                                           Scheme::kHamiltonianCT,
                                           Scheme::kTreeSF, Scheme::kTreeCT),
                         [](const auto& param_info) {
                           std::string n = scheme_name(param_info.param);
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(Ordering, SerializerAssignsMonotoneSequenceNumbers) {
  MulticastGroupSpec g{0, {0, 1, 2, 3}};
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kTreeSF;
  Network net(make_star(4), {g}, cfg);
  blast(net, 0, g.members, 10);
  net.run_to_quiescence();
  EXPECT_EQ(net.metrics().messages_completed(), 10);
  EXPECT_EQ(net.metrics().outstanding(), 0);
}

TEST(Ordering, UnorderedHamiltonianStillDeliversEverything) {
  // Without serialization the circuit starts at the originator: delivery
  // order may differ between members, but reliability is unaffected.
  MulticastGroupSpec g{0, {0, 1, 2, 3, 4, 5}};
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.total_ordering = false;
  Network net(make_torus(3, 3), {g}, cfg);
  blast(net, 0, g.members, 24);
  net.run_to_quiescence();
  EXPECT_EQ(net.metrics().outstanding(), 0);
  EXPECT_EQ(net.metrics().messages_completed(), 24);
}

TEST(Ordering, CircuitConfirmModeReturnsWormToOriginator) {
  MulticastGroupSpec g{0, {0, 1, 2, 3}};
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.circuit_confirm = true;
  Network net(make_star(4), {g}, cfg);
  Demand d;
  d.src = 1;
  d.multicast = true;
  d.group = 0;
  d.length = 200;
  net.inject(d);
  net.run_to_quiescence();
  EXPECT_EQ(net.metrics().messages_completed(), 1);
  // The originator received its own worm back (the confirmation copy).
  EXPECT_EQ(net.adapter(1).worms_received(), 1);
}

}  // namespace
}  // namespace wormcast

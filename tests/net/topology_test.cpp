#include "net/topology.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/topologies.h"
#include "net/updown.h"
#include "sim/random.h"

namespace wormcast {
namespace {

TEST(Topology, ConnectAssignsSequentialPorts) {
  Topology t;
  const NodeId a = t.add_switch();
  const NodeId b = t.add_switch();
  const NodeId c = t.add_switch();
  const LinkId ab = t.connect(a, b);
  const LinkId ac = t.connect(a, c);
  EXPECT_EQ(t.link(ab).port_a, 0);
  EXPECT_EQ(t.link(ac).port_a, 1);
  EXPECT_EQ(t.peer(ab, a), b);
  EXPECT_EQ(t.peer(ab, b), a);
  EXPECT_EQ(t.port_on(ab, b), 0);
  EXPECT_EQ(t.neighbor_via(a, 1), c);
}

TEST(Topology, HostBookkeeping) {
  Topology t;
  const NodeId sw = t.add_switch();
  const NodeId h0 = t.add_host();
  const NodeId h1 = t.add_host();
  t.connect(h0, sw);
  t.connect(h1, sw);
  EXPECT_EQ(t.num_hosts(), 2);
  EXPECT_EQ(t.node_of_host(0), h0);
  EXPECT_EQ(t.node_of_host(1), h1);
  EXPECT_EQ(t.switch_of_host(0), sw);
  EXPECT_EQ(t.switch_of_host(1), sw);
  EXPECT_NO_THROW(t.validate());
}

TEST(Topology, ValidateRejectsMultiPortHost) {
  Topology t;
  const NodeId sw1 = t.add_switch();
  const NodeId sw2 = t.add_switch();
  t.connect(sw1, sw2);
  const NodeId h = t.add_host();
  t.connect(h, sw1);
  t.connect(h, sw2);
  EXPECT_THROW(t.validate(), std::logic_error);
}

TEST(Topology, ValidateRejectsDisconnected) {
  Topology t;
  t.add_switch();
  t.add_switch();
  EXPECT_THROW(t.validate(), std::logic_error);
}

TEST(Topology, RejectsSelfLinkAndBadDelay) {
  Topology t;
  const NodeId a = t.add_switch();
  const NodeId b = t.add_switch();
  EXPECT_THROW(t.connect(a, a), std::logic_error);
  EXPECT_THROW(t.connect(a, b, 0), std::logic_error);
}

TEST(Topologies, TorusHasExpectedShape) {
  const Topology t = make_torus(8, 8);
  EXPECT_EQ(t.num_switches(), 64);
  EXPECT_EQ(t.num_hosts(), 64);
  // 2 fabric links per switch (right+down with wraparound) + 1 host link.
  EXPECT_EQ(t.num_links(), 64 * 2 + 64);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    if (t.node(n).kind == NodeKind::kSwitch) {
      EXPECT_EQ(t.node(n).ports.size(), 5u);  // 4 mesh + 1 host
    }
  }
}

TEST(Topologies, SmallTorusAvoidsDuplicateLinks) {
  const Topology t = make_torus(2, 2);
  // 2x2: wraparound would duplicate; expect 4 unique fabric links + hosts.
  EXPECT_EQ(t.num_links(), 4 + 4);
  EXPECT_NO_THROW(t.validate());
}

TEST(Topologies, ShufflenetShape) {
  const Topology t = make_bidir_shufflenet(2, 3);
  EXPECT_EQ(t.num_switches(), 24);  // 3 columns x 8
  EXPECT_EQ(t.num_hosts(), 24);
  EXPECT_NO_THROW(t.validate());
  // Each switch originates p=2 forward links: 48 fabric links (some pairs
  // may merge when both directions coincide).
  EXPECT_GE(t.num_links() - 24, 40);
  EXPECT_LE(t.num_links() - 24, 48);
}

TEST(Topologies, MyrinetTestbedShape) {
  const Topology t = make_myrinet_testbed();
  EXPECT_EQ(t.num_switches(), 4);
  EXPECT_EQ(t.num_hosts(), 8);
  EXPECT_EQ(t.num_links(), 3 + 8);
  // Two hosts per switch.
  for (HostId h = 0; h < 8; ++h)
    EXPECT_EQ(t.switch_of_host(h), h / 2);
}

TEST(Topologies, StarAndLine) {
  const Topology star = make_star(5);
  EXPECT_EQ(star.num_switches(), 1);
  EXPECT_EQ(star.num_hosts(), 5);
  const Topology line = make_line(3);
  EXPECT_EQ(line.num_switches(), 3);
  EXPECT_EQ(line.num_links(), 2 + 3);
}

TEST(Topologies, RandomMeshIsValidAndConnected) {
  RandomStream rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Topology t = make_random_mesh(12, 3.0, rng);
    EXPECT_EQ(t.num_switches(), 12);
    EXPECT_EQ(t.num_hosts(), 12);
    EXPECT_NO_THROW(t.validate());
  }
}

int degree_of(const Topology& t, NodeId n) {
  return static_cast<int>(t.node(n).ports.size());
}

TEST(Topologies, ClosStageCountsAndDegrees) {
  std::vector<int> levels;
  const Topology t = make_clos(4, 8, 4, kDefaultLinkDelay, kDefaultLinkDelay,
                               &levels);
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.num_switches(), 4 + 8);
  EXPECT_EQ(t.num_hosts(), 8 * 4);
  EXPECT_EQ(t.num_links(), 4 * 8 + 8 * 4);  // spine-leaf bipartite + hosts
  ASSERT_EQ(static_cast<int>(levels.size()), t.num_nodes());
  // Spines first (stage 0), then leaves (stage 1), hosts stage 2.
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(levels[n], 0) << "spine " << n;
    EXPECT_EQ(degree_of(t, n), 8) << "spine degree = leaves";
  }
  for (NodeId n = 4; n < 12; ++n) {
    EXPECT_EQ(levels[n], 1) << "leaf " << n;
    EXPECT_EQ(degree_of(t, n), 4 + 4) << "leaf degree = spines + hosts";
  }
  for (HostId h = 0; h < t.num_hosts(); ++h) {
    EXPECT_EQ(levels[t.node_of_host(h)], 2);
    // Hosts hang off leaves in id order, hosts_per_leaf at a time.
    EXPECT_EQ(t.switch_of_host(h), 4 + h / 4);
  }
}

TEST(Topologies, FatTreeStageCountsAndDegrees) {
  const int k = 4;
  std::vector<int> levels;
  const Topology t =
      make_fat_tree(k, kDefaultLinkDelay, kDefaultLinkDelay, &levels);
  EXPECT_NO_THROW(t.validate());
  const int cores = (k / 2) * (k / 2);
  EXPECT_EQ(t.num_switches(), cores + k * (k / 2) * 2);  // + aggs + edges
  EXPECT_EQ(t.num_hosts(), k * k * k / 4);
  // Every switch in a k-ary fat tree has degree k.
  for (NodeId n = 0; n < t.num_switches(); ++n)
    EXPECT_EQ(degree_of(t, n), k) << "switch " << n;
  ASSERT_EQ(static_cast<int>(levels.size()), t.num_nodes());
  for (NodeId n = 0; n < cores; ++n) EXPECT_EQ(levels[n], 0);
  int aggs = 0;
  int edges = 0;
  for (NodeId n = cores; n < t.num_switches(); ++n) {
    EXPECT_TRUE(levels[n] == 1 || levels[n] == 2);
    (levels[n] == 1 ? aggs : edges) += 1;
  }
  EXPECT_EQ(aggs, k * (k / 2));
  EXPECT_EQ(edges, k * (k / 2));
  for (HostId h = 0; h < t.num_hosts(); ++h)
    EXPECT_EQ(levels[t.node_of_host(h)], 3);
  EXPECT_THROW(make_fat_tree(3), std::invalid_argument);  // odd k
}

// Walks every host-pair route and asserts the up*/down* shape under the
// stage labels: once a hop moves to a larger (label, id) — i.e. down — no
// later hop may move up again. An up-after-down turn is exactly the cycle
// ingredient up/down routing exists to exclude (Section 2); with
// level_override the orientation comes from stage labels, so the invariant
// must be re-proven against those labels, not BFS distance.
void expect_no_down_up_turn(const Topology& t, const std::vector<int>& levels,
                            const UpDownRouting& routing) {
  const auto up = [&](NodeId from, NodeId to) {
    return std::make_pair(levels[to], to) < std::make_pair(levels[from], from);
  };
  for (HostId src = 0; src < t.num_hosts(); ++src) {
    for (HostId dst = 0; dst < t.num_hosts(); ++dst) {
      if (src == dst) continue;
      const SourceRoute r = routing.route(src, dst);
      NodeId at = t.switch_of_host(src);
      bool went_down = false;
      for (std::size_t hop = 0; hop + 1 < r.size(); ++hop) {
        // The final port exits to the destination host; the ones before
        // it are switch-to-switch traversals.
        const NodeId next = t.neighbor_via(at, r.at(hop));
        if (up(at, next)) {
          EXPECT_FALSE(went_down)
              << "illegal down->up turn on route " << src << "->" << dst
              << " at node " << at;
        } else {
          went_down = true;
        }
        at = next;
      }
      EXPECT_EQ(t.neighbor_via(at, r.at(r.size() - 1)),
                t.node_of_host(dst));
    }
  }
}

TEST(Topologies, ClosRoutesAreUpDownDeadlockFree) {
  std::vector<int> levels;
  const Topology t = make_clos(3, 4, 2, kDefaultLinkDelay, kDefaultLinkDelay,
                               &levels);
  UpDownOptions opts;
  opts.level_override = levels;
  const UpDownRouting routing(t, opts);
  // Stage labels must pick a spine as root, not the higher-degree leaves.
  EXPECT_LT(routing.root(), 3);
  expect_no_down_up_turn(t, levels, routing);
}

TEST(Topologies, FatTreeRoutesAreUpDownDeadlockFree) {
  std::vector<int> levels;
  const Topology t =
      make_fat_tree(4, kDefaultLinkDelay, kDefaultLinkDelay, &levels);
  UpDownOptions opts;
  opts.level_override = levels;
  const UpDownRouting routing(t, opts);
  EXPECT_LT(routing.root(), 4);  // a core switch
  expect_no_down_up_turn(t, levels, routing);
}

TEST(Topologies, TorusAtScaleIsConnected) {
  const Topology t = make_torus(32, 32);
  EXPECT_EQ(t.num_switches(), 32 * 32);
  EXPECT_EQ(t.num_hosts(), 32 * 32);
  EXPECT_EQ(t.num_links(), 2 * 32 * 32 + 32 * 32);  // torus mesh + host links
  EXPECT_NO_THROW(t.validate());  // includes the connectivity check
  // Every switch reaches the root: no -1 (cut-off) BFS levels.
  const UpDownRouting routing(t, UpDownOptions{});
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    EXPECT_GE(routing.level(n), 0) << "node " << n;
}

}  // namespace
}  // namespace wormcast

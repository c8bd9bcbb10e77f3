// Up/down routing: legality (no down->up transition), reachability,
// determinism, spanning-tree restriction. Property-style sweeps over
// several topologies.
#include "net/updown.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "net/topologies.h"
#include "sim/random.h"

namespace wormcast {
namespace {

/// Walks a source route through the topology and returns the node sequence
/// (switches) it traverses; EXPECTs it ends at `dst`'s host node.
std::vector<NodeId> walk_route(const Topology& t, HostId src, HostId dst,
                               const SourceRoute& route) {
  std::vector<NodeId> nodes;
  NodeId at = t.switch_of_host(src);
  for (std::size_t i = 0; i < route.size(); ++i) {
    nodes.push_back(at);
    at = t.neighbor_via(at, route.at(i));
  }
  EXPECT_EQ(at, t.node_of_host(dst)) << "route does not end at destination";
  return nodes;
}

/// Asserts the up/down rule: zero or more up traversals then zero or more
/// down traversals, never up after down.
void expect_legal(const Topology& t, const UpDownRouting& r, HostId src,
                  HostId dst) {
  const SourceRoute route = r.route(src, dst);
  ASSERT_GE(route.size(), 1u);
  NodeId at = t.switch_of_host(src);
  bool gone_down = false;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {  // last hop = host link
    const LinkId l = t.link_at(at, route.at(i));
    const bool up = r.is_up_traversal(l, at);
    if (up) {
      EXPECT_FALSE(gone_down) << "up traversal after down";
    }
    if (!up) gone_down = true;
    at = t.neighbor_via(at, route.at(i));
  }
}

struct TopoCase {
  const char* name;
  Topology topo;
};

class UpDownPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  static Topology make(int which) {
    RandomStream rng(99);
    switch (which) {
      case 0: return make_torus(4, 4);
      case 1: return make_bidir_shufflenet(2, 3);
      case 2: return make_myrinet_testbed();
      case 3: return make_line(5);
      case 4: return make_star(6);
      default: return make_random_mesh(10, 3.0, rng);
    }
  }
};

TEST_P(UpDownPropertyTest, AllPairsLegalAndTerminate) {
  const Topology t = make(GetParam());
  const UpDownRouting r(t);
  for (HostId s = 0; s < t.num_hosts(); ++s) {
    for (HostId d = 0; d < t.num_hosts(); ++d) {
      if (s == d) continue;
      expect_legal(t, r, s, d);
      walk_route(t, s, d, r.route(s, d));
    }
  }
}

TEST_P(UpDownPropertyTest, RoutesAreDeterministic) {
  const Topology t = make(GetParam());
  const UpDownRouting r1(t);
  const UpDownRouting r2(t);
  for (HostId s = 0; s < t.num_hosts(); ++s)
    for (HostId d = 0; d < t.num_hosts(); ++d) {
      if (s == d) continue;
      EXPECT_EQ(r1.route(s, d).ports(), r2.route(s, d).ports());
    }
}

TEST_P(UpDownPropertyTest, HopCountSymmetryBounds) {
  const Topology t = make(GetParam());
  const UpDownRouting r(t);
  for (HostId s = 0; s < t.num_hosts(); ++s)
    for (HostId d = s + 1; d < t.num_hosts(); ++d) {
      const int ab = r.hop_count(s, d);
      const int ba = r.hop_count(d, s);
      EXPECT_GE(ab, 2);
      // Legal shortest paths in both directions have equal length (the
      // reverse of a legal up*down* path is legal).
      EXPECT_EQ(ab, ba);
    }
}

TEST_P(UpDownPropertyTest, TreeOnlyRoutesStayOnTree) {
  const Topology t = make(GetParam());
  UpDownRouting::Options opts;
  opts.tree_links_only = true;
  const UpDownRouting r(t, opts);
  const UpDownRouting full(t);
  for (HostId s = 0; s < t.num_hosts(); ++s)
    for (HostId d = 0; d < t.num_hosts(); ++d) {
      if (s == d) continue;
      const SourceRoute route = r.route(s, d);
      NodeId at = t.switch_of_host(s);
      for (std::size_t i = 0; i + 1 < route.size(); ++i) {
        const LinkId l = t.link_at(at, route.at(i));
        EXPECT_TRUE(r.on_tree(l));
        at = t.neighbor_via(at, route.at(i));
      }
      // Tree-only paths can never be shorter than unrestricted ones.
      EXPECT_GE(r.hop_count(s, d), full.hop_count(s, d));
    }
}

std::string topo_case_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[] = {"torus4x4", "shufflenet", "myrinet",
                                      "line5",    "star6",      "random_mesh"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(Topologies, UpDownPropertyTest, ::testing::Range(0, 6),
                         topo_case_name);

// --- Reference oracle --------------------------------------------------------
// The per-pair search the router once ran for every uncached query: a fresh
// (node, phase) BFS over the whole fabric for one switch pair, neighbours in
// port order. UpDownRouting now answers from one search per source switch;
// it must give the same answer (and the same errors) for every pair.

struct RefPath {
  std::vector<NodeId> nodes;  // switch sequence from_sw..to_sw
  std::vector<LinkId> links;  // links between consecutive switches
};

/// Shortest legal path from_sw -> to_sw over `r`'s live labelled links;
/// nullopt when none survives. `tree_only` mirrors the routing's option.
std::optional<RefPath> ref_legal_path(const Topology& t, const UpDownRouting& r,
                                      bool tree_only, NodeId from_sw,
                                      NodeId to_sw) {
  struct Pred {
    NodeId node = kNoNode;
    int phase = -1;
    LinkId link = kNoLink;
  };
  const auto n_nodes = static_cast<std::size_t>(t.num_nodes());
  std::vector<std::array<int, 2>> dist(n_nodes, {-1, -1});
  std::vector<std::array<Pred, 2>> pred(n_nodes);
  std::deque<std::pair<NodeId, int>> frontier;
  dist[from_sw][0] = 0;
  frontier.push_back({from_sw, 0});
  while (!frontier.empty()) {
    const auto [n, ph] = frontier.front();
    frontier.pop_front();
    for (const TopoPort& p : t.node(n).ports) {
      const LinkId l = p.link;
      if (!r.link_alive(l) || r.up_end(l) == kNoNode) continue;
      if (tree_only && !r.on_tree(l)) continue;
      const NodeId m = t.peer(l, n);
      if (t.node(m).kind != NodeKind::kSwitch) continue;
      const bool up = r.is_up_traversal(l, n);
      if (up && ph == 1) continue;
      const int nph = up ? 0 : 1;
      if (dist[m][nph] != -1) continue;
      dist[m][nph] = dist[n][ph] + 1;
      pred[m][nph] = Pred{n, ph, l};
      frontier.push_back({m, nph});
    }
  }
  int end_phase = -1;
  if (dist[to_sw][0] != -1 &&
      (dist[to_sw][1] == -1 || dist[to_sw][0] <= dist[to_sw][1]))
    end_phase = 0;
  else if (dist[to_sw][1] != -1)
    end_phase = 1;
  if (end_phase == -1) return std::nullopt;
  RefPath out;
  NodeId n = to_sw;
  int ph = end_phase;
  while (!(n == from_sw && dist[n][ph] == 0)) {
    const Pred& pr = pred[n][ph];
    out.nodes.push_back(n);
    out.links.push_back(pr.link);
    n = pr.node;
    ph = pr.phase;
  }
  out.nodes.push_back(from_sw);
  std::reverse(out.nodes.begin(), out.nodes.end());
  std::reverse(out.links.begin(), out.links.end());
  return out;
}

std::vector<PortId> ref_ports(const Topology& t, const RefPath& path) {
  std::vector<PortId> ports;
  for (std::size_t i = 0; i < path.links.size(); ++i)
    ports.push_back(t.port_on(path.links[i], path.nodes[i]));
  return ports;
}

/// Checks hop_count, route, switch_path and route_to_root against the
/// oracle for every ordered host pair, in shuffled order so consecutive
/// queries hop between source switches.
void expect_matches_oracle(const Topology& t, const UpDownRouting& r,
                           bool tree_only, std::uint64_t seed) {
  std::vector<std::pair<HostId, HostId>> pairs;
  for (HostId s = 0; s < t.num_hosts(); ++s)
    for (HostId d = 0; d < t.num_hosts(); ++d)
      if (s != d) pairs.emplace_back(s, d);
  RandomStream rng(seed);
  rng.shuffle(pairs);
  for (const auto& [s, d] : pairs) {
    SCOPED_TRACE(::testing::Message() << "pair " << s << "->" << d);
    const NodeId from_sw = t.switch_of_host(s);
    const NodeId to_sw = t.switch_of_host(d);
    const auto ref = ref_legal_path(t, r, tree_only, from_sw, to_sw);
    if (r.level(from_sw) == -1 || r.level(to_sw) == -1 || !ref) {
      EXPECT_THROW((void)r.hop_count(s, d), std::logic_error);
      EXPECT_THROW((void)r.route(s, d), std::logic_error);
    } else {
      EXPECT_EQ(r.hop_count(s, d), static_cast<int>(ref->links.size()) + 2);
      std::vector<PortId> ports = ref_ports(t, *ref);
      ports.push_back(t.port_on(t.node(t.node_of_host(d)).ports[0].link, to_sw));
      EXPECT_EQ(r.route(s, d).ports(), ports);
    }
    if (ref) {
      EXPECT_EQ(r.switch_path(s, d), ref->nodes);
    } else {
      EXPECT_THROW((void)r.switch_path(s, d), std::logic_error);
    }
    // Another source switch between pair queries.
    const NodeId d_sw = to_sw;
    if (d_sw == r.root()) {
      EXPECT_TRUE(r.route_to_root(d).ports().empty());
    } else if (const auto up = r.level(d_sw) == -1
                                   ? std::nullopt
                                   : ref_legal_path(t, r, tree_only, d_sw,
                                                    r.root())) {
      EXPECT_EQ(r.route_to_root(d).ports(), ref_ports(t, *up));
    } else {
      // Cut off, or (stage labels after link deaths) connected but with
      // no legal up*/down* path left to the root.
      EXPECT_THROW((void)r.route_to_root(d), std::logic_error);
    }
  }
}

/// Distinct switches among the hosts' attachment points.
std::size_t host_switches(const Topology& t) {
  std::set<NodeId> sws;
  for (HostId h = 0; h < t.num_hosts(); ++h) sws.insert(t.switch_of_host(h));
  return sws.size();
}

struct OracleCase {
  Topology topo;
  std::vector<int> levels;  // level_override; empty = BFS labels
};

class UpDownOracleTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  static OracleCase make(int which) {
    OracleCase c;
    RandomStream rng(99);
    switch (which) {
      case 0: c.topo = make_torus(4, 4); break;
      case 1: c.topo = make_bidir_shufflenet(2, 3); break;
      case 2: c.topo = make_myrinet_testbed(); break;
      case 3: c.topo = make_line(5); break;
      case 4: c.topo = make_star(6); break;
      case 5: c.topo = make_random_mesh(10, 3.0, rng); break;
      case 6:
        c.topo = make_clos(3, 4, 2, kDefaultLinkDelay, kDefaultLinkDelay,
                           &c.levels);
        break;
      case 7:
        c.topo = make_fat_tree(4, kDefaultLinkDelay, kDefaultLinkDelay,
                               &c.levels);
        break;
      default:
        // More than 64 switches: per-switch masks and rows span words.
        c.topo = make_torus(9, 9);
        break;
    }
    return c;
  }
};

TEST_P(UpDownOracleTest, MatchesPerPairSearch) {
  const int which = std::get<0>(GetParam());
  const bool tree_only = std::get<1>(GetParam());
  const OracleCase c = make(which);
  const Topology& t = c.topo;
  UpDownOptions opts;
  opts.tree_links_only = tree_only;
  opts.level_override = c.levels;
  UpDownRouting r(t, opts);
  const auto s_count = static_cast<std::size_t>(t.num_switches());

  // Rows are allocated lazily, one per source switch hop_count() asks
  // about, and route queries allocate none.
  EXPECT_EQ(r.hop_row_bytes(), 0u);
  (void)r.route(0, t.num_hosts() - 1);
  EXPECT_EQ(r.hop_row_bytes(), 0u);
  (void)r.hop_count(0, t.num_hosts() - 1);
  EXPECT_LE(r.hop_row_bytes(), 2 * s_count);

  expect_matches_oracle(t, r, tree_only, 1);
  EXPECT_LE(r.hop_row_bytes(), 2 * s_count * host_switches(t));

  // Permanent link deaths: two switch-to-switch links, then every
  // switch-to-switch link of a non-root switch, which cuts it (and its
  // hosts) off. Each rebuild drops the rows.
  std::vector<LinkId> fabric_links;
  for (LinkId l = 0; l < t.num_links(); ++l)
    if (t.node(t.link(l).node_a).kind == NodeKind::kSwitch &&
        t.node(t.link(l).node_b).kind == NodeKind::kSwitch)
      fabric_links.push_back(l);
  for (std::size_t i = 1; i < fabric_links.size() && i <= 4; i += 3) {
    r.fail_link(fabric_links[i]);
    EXPECT_EQ(r.hop_row_bytes(), 0u);
    expect_matches_oracle(t, r, tree_only, 2 + i);
  }
  const NodeId victim = t.switch_of_host(t.num_hosts() - 1);
  if (victim != r.root() && !fabric_links.empty()) {
    for (const TopoPort& p : t.node(victim).ports)
      if (t.node(t.peer(p.link, victim)).kind == NodeKind::kSwitch)
        r.fail_link(p.link);
    EXPECT_EQ(r.level(victim), -1);
    EXPECT_THROW((void)r.route(0, t.num_hosts() - 1), std::logic_error);
    EXPECT_THROW((void)r.hop_count(t.num_hosts() - 1, 0), std::logic_error);
    expect_matches_oracle(t, r, tree_only, 7);
  }

  // Root migration to another switch still connected to the old root,
  // with a hop row filled beforehand.
  for (HostId h = 0; h < t.num_hosts(); ++h) {
    const NodeId sw = t.switch_of_host(h);
    if (sw == r.root() || r.level(sw) == -1) continue;
    (void)r.hop_count(h, h == 0 ? 1 : 0);
    EXPECT_GT(r.hop_row_bytes(), 0u);
    r.set_root(sw);
    EXPECT_EQ(r.hop_row_bytes(), 0u);
    expect_matches_oracle(t, r, tree_only, 8);
    break;
  }
}

std::string oracle_case_name(
    const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
  static const char* const names[] = {"torus4x4",    "shufflenet", "myrinet",
                                      "line5",       "star6",      "random_mesh",
                                      "clos_staged", "fat_tree_staged",
                                      "torus9x9"};
  return std::string(names[std::get<0>(info.param)]) +
         (std::get<1>(info.param) ? "_tree_only" : "");
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, UpDownOracleTest,
    ::testing::Combine(::testing::Range(0, 9), ::testing::Bool()),
    oracle_case_name);

/// hop_count() between one host of every switch and one host of every
/// other switch, against the oracle path length (or it must throw).
void expect_hops_match_oracle(const Topology& t, const UpDownRouting& r,
                              bool tree_only) {
  std::vector<HostId> reps;
  std::set<NodeId> seen;
  for (HostId h = 0; h < t.num_hosts(); ++h)
    if (seen.insert(t.switch_of_host(h)).second) reps.push_back(h);
  for (const HostId s : reps) {
    for (const HostId d : reps) {
      if (s == d) continue;
      SCOPED_TRACE(::testing::Message() << "pair " << s << "->" << d);
      const NodeId from_sw = t.switch_of_host(s);
      const NodeId to_sw = t.switch_of_host(d);
      const auto ref = r.level(from_sw) == -1 || r.level(to_sw) == -1
                           ? std::nullopt
                           : ref_legal_path(t, r, tree_only, from_sw, to_sw);
      if (ref) {
        EXPECT_EQ(r.hop_count(s, d), static_cast<int>(ref->links.size()) + 2);
      } else {
        EXPECT_THROW((void)r.hop_count(s, d), std::logic_error);
      }
    }
  }
}

TEST(UpDownHopRows, FillSpansTwoPassesAndMatchesTheOracle) {
  // 81 switches with two hosts each: a request for every host names 81
  // distinct source switches, so it takes a 64-source pass and a 17-source
  // pass. Shuffled requests with duplicates map pass bits to switches in
  // no particular order.
  const Topology t = make_torus(9, 9, 2);
  const auto s_count = static_cast<std::size_t>(t.num_switches());
  for (const bool tree_only : {false, true}) {
    SCOPED_TRACE(tree_only ? "tree links only" : "all links");
    UpDownOptions opts;
    opts.tree_links_only = tree_only;
    UpDownRouting r(t, opts);

    // A few rows first: a later request skips them.
    r.fill_hop_rows({5, 4, 5});
    EXPECT_EQ(r.hop_row_bytes(), 2 * s_count);
    std::vector<HostId> hosts = t.all_hosts();
    RandomStream rng(17);
    rng.shuffle(hosts);
    r.fill_hop_rows(hosts);
    EXPECT_EQ(r.hop_row_bytes(), 2 * s_count * s_count);
    expect_hops_match_oracle(t, r, tree_only);

    // After link deaths every row goes; a request spanning two passes
    // again skips the cut-off switch.
    std::vector<LinkId> fabric_links;
    for (LinkId l = 0; l < t.num_links(); ++l)
      if (t.node(t.link(l).node_a).kind == NodeKind::kSwitch &&
          t.node(t.link(l).node_b).kind == NodeKind::kSwitch)
        fabric_links.push_back(l);
    r.fail_link(fabric_links[3]);
    r.fail_link(fabric_links[40]);
    const NodeId victim = t.switch_of_host(t.num_hosts() - 1);
    ASSERT_NE(victim, r.root());
    for (const TopoPort& p : t.node(victim).ports)
      if (t.node(t.peer(p.link, victim)).kind == NodeKind::kSwitch)
        r.fail_link(p.link);
    ASSERT_EQ(r.level(victim), -1);
    EXPECT_EQ(r.hop_row_bytes(), 0u);
    r.fill_hop_rows(hosts);
    EXPECT_EQ(r.hop_row_bytes(), 2 * s_count * (s_count - 1));
    expect_hops_match_oracle(t, r, tree_only);
  }
}

TEST(UpDown, RootSelectionPrefersHighestDegree) {
  const Topology t = make_star(4);  // hub has degree 4
  const UpDownRouting r(t);
  EXPECT_EQ(r.root(), 0);  // the hub switch
  EXPECT_EQ(r.level(r.root()), 0);
}

TEST(UpDown, ExplicitRootIsHonoured) {
  const Topology t = make_line(4);
  UpDownRouting::Options opts;
  opts.root = 2;
  const UpDownRouting r(t, opts);
  EXPECT_EQ(r.root(), 2);
  EXPECT_EQ(r.level(2), 0);
  EXPECT_EQ(r.level(0), 2);
}

TEST(UpDown, UpEndIsCloserToRoot) {
  const Topology t = make_torus(4, 4);
  const UpDownRouting r(t);
  for (LinkId l = 0; l < t.num_links(); ++l) {
    const NodeId up = r.up_end(l);
    const NodeId down = t.peer(l, up);
    EXPECT_LE(r.level(up), r.level(down));
    if (r.level(up) == r.level(down)) {
      EXPECT_LT(up, down);
    }
  }
}

TEST(UpDown, DownTreePortsPointAwayFromRoot) {
  const Topology t = make_line(3);
  const UpDownRouting r(t);
  const NodeId root = r.root();
  for (const PortId p : r.down_tree_ports(root)) {
    const LinkId l = t.link_at(root, p);
    EXPECT_TRUE(r.on_tree(l));
    EXPECT_EQ(r.up_end(l), root);
  }
  // Every node except the root hangs off exactly one up tree link, so the
  // down-tree ports across all switches + hosts cover n-1 links.
  std::size_t covered = 0;
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    if (t.node(n).kind == NodeKind::kSwitch)
      covered += r.down_tree_ports(n).size();
  EXPECT_EQ(covered, static_cast<std::size_t>(t.num_nodes() - 1));
}

TEST(UpDown, RouteToRootEndsAtRoot) {
  const Topology t = make_torus(3, 3);
  const UpDownRouting r(t);
  for (HostId h = 0; h < t.num_hosts(); ++h) {
    const SourceRoute route = r.route_to_root(h);
    NodeId at = t.switch_of_host(h);
    for (std::size_t i = 0; i < route.size(); ++i)
      at = t.neighbor_via(at, route.at(i));
    EXPECT_EQ(at, r.root());
  }
}

TEST(UpDown, RouteToSelfThrows) {
  const Topology t = make_star(2);
  const UpDownRouting r(t);
  EXPECT_THROW(r.route(1, 1), std::logic_error);
}

TEST(UpDown, SetRootRecomputesInPlaceToFreshEquivalent) {
  const Topology t = make_torus(4, 4);
  UpDownRouting migrated(t);
  const NodeId new_root = t.switch_of_host(10);
  ASSERT_NE(migrated.root(), new_root);
  migrated.set_root(new_root);
  EXPECT_EQ(migrated.root(), new_root);

  // In-place migration matches a routing built at the new root directly.
  UpDownRouting::Options opts;
  opts.root = new_root;
  const UpDownRouting fresh(t, opts);
  for (HostId s = 0; s < t.num_hosts(); ++s)
    for (HostId d = 0; d < t.num_hosts(); ++d) {
      if (s == d) continue;
      EXPECT_EQ(migrated.route(s, d).ports(), fresh.route(s, d).ports());
    }
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    EXPECT_EQ(migrated.level(n), fresh.level(n));
}

TEST(UpDown, SetRootAllPairsStayLegal) {
  RandomStream rng(5);
  const Topology t = make_random_mesh(10, 3.0, rng);
  UpDownRouting r(t);
  for (HostId h = 0; h < t.num_hosts(); h += 3) {
    r.set_root(t.switch_of_host(h));
    for (HostId s = 0; s < t.num_hosts(); ++s)
      for (HostId d = 0; d < t.num_hosts(); ++d) {
        if (s == d) continue;
        expect_legal(t, r, s, d);
        walk_route(t, s, d, r.route(s, d));
      }
  }
}

TEST(UpDown, SetRootToHostThrows) {
  const Topology t = make_star(3);
  UpDownRouting r(t);
  EXPECT_THROW(r.set_root(t.node_of_host(0)), std::logic_error);
}

TEST(UpDown, LevelOverrideMustLabelEveryNode) {
  std::vector<int> levels;
  const Topology t = make_clos(2, 3, 2, kDefaultLinkDelay, kDefaultLinkDelay,
                               &levels);
  UpDownOptions opts;
  opts.level_override = {0, 1};  // too short: hosts must be labelled too
  EXPECT_THROW(UpDownRouting(t, opts), std::logic_error);
}

TEST(UpDown, LevelOverridePicksLowestStageRoot) {
  // On a Clos the degree heuristic would root at a leaf (leaf degree =
  // spines + hosts > spine degree = leaves); stage labels must put the
  // root in the spine stage instead.
  std::vector<int> levels;
  const Topology t = make_clos(2, 4, 3, kDefaultLinkDelay, kDefaultLinkDelay,
                               &levels);
  const UpDownRouting plain(t);
  EXPECT_GE(plain.root(), 2) << "degree heuristic roots at a leaf";
  UpDownOptions opts;
  opts.level_override = levels;
  const UpDownRouting staged(t, opts);
  EXPECT_EQ(staged.root(), 0) << "lowest (stage, id) switch";
}

TEST(UpDown, LevelOverrideOrientsLinksByStage) {
  std::vector<int> levels;
  const Topology t = make_clos(3, 3, 1, kDefaultLinkDelay, kDefaultLinkDelay,
                               &levels);
  UpDownOptions opts;
  opts.level_override = levels;
  const UpDownRouting r(t, opts);
  for (LinkId l = 0; l < t.num_links(); ++l) {
    const NodeId up = r.up_end(l);
    const NodeId down = t.peer(l, up);
    // The up end always carries the smaller (stage, id): every spine-leaf
    // link points up at the spine, every host link up at the leaf.
    EXPECT_LT(std::make_pair(levels[up], up),
              std::make_pair(levels[down], down))
        << "link " << l;
  }
  // All host pairs remain routable through any spine orientation.
  for (HostId s = 0; s < t.num_hosts(); ++s)
    for (HostId d = 0; d < t.num_hosts(); ++d)
      if (s != d) {
        EXPECT_NO_THROW(r.route(s, d));
      }
}

}  // namespace
}  // namespace wormcast

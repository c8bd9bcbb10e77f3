#include "core/group_tables.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <unordered_map>
#include <vector>

#include "net/topologies.h"
#include "sim/random.h"

namespace wormcast {
namespace {

class GroupTablesTest : public ::testing::Test {
 protected:
  GroupTablesTest() : topo_(make_torus(4, 4)), routing_(topo_) {}
  Topology topo_;
  UpDownRouting routing_;
};

TEST_F(GroupTablesTest, CircuitOrdersByIncreasingId) {
  CircuitTable c({9, 3, 12, 7});
  EXPECT_EQ(c.order(), (std::vector<HostId>{3, 7, 9, 12}));
  EXPECT_EQ(c.lowest(), 3);
  EXPECT_EQ(c.highest(), 12);
  EXPECT_EQ(c.next(3), 7);
  EXPECT_EQ(c.next(9), 12);
  EXPECT_EQ(c.next(12), 3);  // wrap-around: the one ID reversal
  EXPECT_TRUE(c.contains(7));
  EXPECT_FALSE(c.contains(8));
  EXPECT_THROW(static_cast<void>(c.next(8)), std::invalid_argument);
}

TEST_F(GroupTablesTest, CircuitRejectsBadGroups) {
  EXPECT_THROW(CircuitTable(std::vector<HostId>{}), std::invalid_argument);
  EXPECT_THROW(CircuitTable(std::vector<HostId>{1, 1}), std::invalid_argument);
}

TEST_F(GroupTablesTest, CircuitHopLengthSumsLegs) {
  CircuitTable c({0, 1});
  const int expected = routing_.hop_count(0, 1) + routing_.hop_count(1, 0);
  EXPECT_EQ(c.circuit_hop_length(routing_), expected);
  EXPECT_EQ(CircuitTable({5}).circuit_hop_length(routing_), 0);
}

TEST_F(GroupTablesTest, TreeRootIsLowestAndParentsHaveLowerIds) {
  TreeTable t({11, 2, 8, 5, 14}, routing_);
  EXPECT_EQ(t.root(), 2);
  EXPECT_EQ(t.parent(2), kNoHost);
  for (const HostId m : t.members()) {
    if (m == t.root()) continue;
    EXPECT_LT(t.parent(m), m) << "child " << m;
    // Child lists are consistent with parents.
    const auto& sibs = t.children(t.parent(m));
    EXPECT_NE(std::find(sibs.begin(), sibs.end(), m), sibs.end());
  }
}

TEST_F(GroupTablesTest, TreeSpansAllMembers) {
  TreeTable t({0, 3, 6, 9, 12, 15}, routing_);
  int reached = 0;
  std::vector<HostId> stack{t.root()};
  while (!stack.empty()) {
    const HostId h = stack.back();
    stack.pop_back();
    ++reached;
    for (const HostId c : t.children(h)) stack.push_back(c);
  }
  EXPECT_EQ(reached, t.size());
}

TEST_F(GroupTablesTest, FanoutCapIsRespected) {
  TreeTable t({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, routing_, /*max_fanout=*/2);
  for (const HostId m : t.members())
    EXPECT_LE(t.children(m).size(), 2u);
  EXPECT_GE(t.depth(), 2);  // 10 members in a binary tree need depth >= 3
}

TEST_F(GroupTablesTest, UnlimitedFanoutGivesShallowerOrEqualTree) {
  const std::vector<HostId> members{0, 2, 4, 6, 8, 10, 12, 14};
  TreeTable capped(members, routing_, 2);
  TreeTable open(members, routing_, 0);
  EXPECT_LE(open.depth(), capped.depth());
}

TEST_F(GroupTablesTest, ChildrenAscendById) {
  TreeTable t({0, 1, 2, 3, 4, 5, 6, 7}, routing_);
  for (const HostId m : t.members()) {
    const auto& kids = t.children(m);
    EXPECT_TRUE(std::is_sorted(kids.begin(), kids.end()));
  }
}

TEST_F(GroupTablesTest, GroupTablesLookups) {
  MulticastGroupSpec g0{0, {1, 4, 7}};
  MulticastGroupSpec g1{1, {0, 2, 4, 6}};
  GroupTables tables({g0, g1}, routing_);
  EXPECT_EQ(tables.group_size(0), 3);
  EXPECT_EQ(tables.group_size(1), 4);
  EXPECT_TRUE(tables.is_member(0, 4));
  EXPECT_FALSE(tables.is_member(0, 0));
  EXPECT_EQ(tables.tree(1).root(), 0);
  EXPECT_EQ(tables.circuit(0).lowest(), 1);
  EXPECT_THROW(static_cast<void>(tables.circuit(9)), std::invalid_argument);
}

TEST_F(GroupTablesTest, SingleMemberGroup) {
  TreeTable t({5}, routing_);
  EXPECT_EQ(t.root(), 5);
  EXPECT_TRUE(t.children(5).empty());
  EXPECT_EQ(t.depth(), 0);
}

// --- in-place repair (crash-stop member removal) ----------------------------

TEST_F(GroupTablesTest, CircuitRemoveSplicesInOrder) {
  CircuitTable c({3, 7, 9, 12});
  EXPECT_TRUE(c.remove(9));
  EXPECT_EQ(c.order(), (std::vector<HostId>{3, 7, 12}));
  EXPECT_EQ(c.next(7), 12);  // predecessor re-linked past the dead member
  EXPECT_EQ(c.next(12), 3);  // the single wrap reversal survives
  EXPECT_FALSE(c.remove(9));  // not a member any more
  EXPECT_TRUE(c.remove(12));  // removing the highest moves the wrap
  EXPECT_EQ(c.next(7), 3);
}

TEST_F(GroupTablesTest, TreeRemoveMemberKeepsParentIdInvariant) {
  TreeTable t({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, routing_, /*max_fanout=*/2);
  // Pick an internal member so subtrees actually re-parent.
  HostId victim = kNoHost;
  for (const HostId m : t.members())
    if (m != t.root() && !t.children(m).empty()) victim = m;
  ASSERT_NE(victim, kNoHost);
  const auto orphans = t.children(victim);

  const TreeTable::RemovalResult r = t.remove_member(victim, routing_, 2);
  ASSERT_TRUE(r.removed);
  EXPECT_FALSE(r.root_promoted);
  EXPECT_EQ(r.subtrees_reparented, static_cast<int>(orphans.size()));
  EXPECT_EQ(r.reattached.size(), orphans.size());
  EXPECT_FALSE(t.contains(victim));
  for (const auto& [orphan, parent] : r.reattached) {
    EXPECT_LT(parent, orphan) << "adopter must keep parent-ID < child-ID";
    EXPECT_EQ(t.parent(orphan), parent);
  }
  // Global invariants after repair: spanning, parents below children.
  int reached = 0;
  std::vector<HostId> stack{t.root()};
  while (!stack.empty()) {
    const HostId h = stack.back();
    stack.pop_back();
    ++reached;
    for (const HostId c : t.children(h)) {
      EXPECT_LT(h, c);
      stack.push_back(c);
    }
  }
  EXPECT_EQ(reached, t.size());
}

TEST_F(GroupTablesTest, TreeRootRemovalPromotesLowestSurvivor) {
  TreeTable t({2, 5, 8, 11, 14}, routing_);
  ASSERT_EQ(t.root(), 2);
  const TreeTable::RemovalResult r = t.remove_member(2, routing_, 0);
  ASSERT_TRUE(r.removed);
  EXPECT_TRUE(r.root_promoted);
  EXPECT_EQ(t.root(), 5);
  EXPECT_EQ(t.parent(5), kNoHost);
  for (const HostId m : t.members()) {
    if (m != t.root()) {
      EXPECT_LT(t.parent(m), m);
    }
  }
}

TEST_F(GroupTablesTest, GroupTablesRemoveMemberRepairsEveryGroup) {
  MulticastGroupSpec g0{0, {1, 4, 7}};
  MulticastGroupSpec g1{1, {0, 2, 4, 6}};
  MulticastGroupSpec solo{2, {4}};
  GroupTables tables({g0, g1, solo}, routing_);

  const GroupTables::RepairStats stats = tables.remove_member(4);
  // Spliced out of both real groups; the sole-member group is left intact
  // (nothing to repair, no surviving sender).
  EXPECT_EQ(stats.circuits_spliced, 2);
  EXPECT_EQ(tables.circuit(0).order(), (std::vector<HostId>{1, 7}));
  EXPECT_FALSE(tables.circuit(1).contains(4));
  EXPECT_FALSE(tables.tree(1).contains(4));
  EXPECT_TRUE(tables.circuit(2).contains(4));
  // Every reattachment record is tagged with its group and names a
  // surviving adopter.
  for (const auto& r : stats.reattachments) {
    EXPECT_NE(r.group, kNoGroup);
    EXPECT_LT(r.new_parent, r.orphan);
    EXPECT_TRUE(tables.tree(r.group).contains(r.new_parent));
  }
}

// --- in-place join (dynamic membership splice-in) ---------------------------

TEST_F(GroupTablesTest, CircuitInsertSplicesAtSortedPosition) {
  CircuitTable c({3, 7, 12});
  EXPECT_EQ(c.insert(9), 7);  // 7's successor changes from 12 to 9
  EXPECT_EQ(c.order(), (std::vector<HostId>{3, 7, 9, 12}));
  EXPECT_EQ(c.next(7), 9);
  EXPECT_EQ(c.next(9), 12);
  EXPECT_EQ(c.insert(9), kNoHost);  // already a member: no-op
  // Inserting below the lowest: the highest member's wrap edge retargets.
  EXPECT_EQ(c.insert(1), 12);
  EXPECT_EQ(c.order(), (std::vector<HostId>{1, 3, 7, 9, 12}));
  EXPECT_EQ(c.next(12), 1);
  // Inserting above the highest: the wrap moves onto the joiner.
  EXPECT_EQ(c.insert(14), 12);
  EXPECT_EQ(c.next(12), 14);
  EXPECT_EQ(c.next(14), 1);
}

TEST_F(GroupTablesTest, TreeAddMemberAttachesWithoutMovingEdges) {
  TreeTable t({2, 5, 8, 11}, routing_, /*max_fanout=*/2);
  std::unordered_map<HostId, HostId> before;
  for (const HostId m : t.members()) before[m] = t.parent(m);

  const TreeTable::AddResult r = t.add_member(9, routing_, 2);
  ASSERT_TRUE(r.added);
  EXPECT_FALSE(r.became_root);
  EXPECT_LT(r.parent, 9) << "greedy attach must keep parent-ID < child-ID";
  EXPECT_EQ(t.parent(9), r.parent);
  EXPECT_TRUE(t.contains(9));
  EXPECT_EQ(t.size(), 5);
  // Incremental: no existing member's parent changed.
  for (const auto& [m, p] : before) EXPECT_EQ(t.parent(m), p);
  // Idempotent on re-add.
  EXPECT_FALSE(t.add_member(9, routing_, 2).added);
}

TEST_F(GroupTablesTest, TreeAddMemberBelowRootAdoptsNewRoot) {
  TreeTable t({4, 6, 10}, routing_);
  ASSERT_EQ(t.root(), 4);
  const TreeTable::AddResult r = t.add_member(1, routing_, 0);
  ASSERT_TRUE(r.added);
  EXPECT_TRUE(r.became_root);
  EXPECT_EQ(t.root(), 1);
  EXPECT_EQ(t.parent(1), kNoHost);
  // The old root is the new root's only child; nobody else re-parented.
  EXPECT_EQ(t.parent(4), 1);
  EXPECT_EQ(t.children(1), (std::vector<HostId>{4}));
  for (const HostId m : t.members()) {
    if (m != t.root()) {
      EXPECT_LT(t.parent(m), m);
    }
  }
}

TEST_F(GroupTablesTest, GroupTablesAddMemberSplicesCircuitAndTree) {
  MulticastGroupSpec g0{0, {1, 4, 7}};
  GroupTables tables({g0}, routing_);

  const GroupTables::JoinResult r = tables.add_member(0, 5);
  ASSERT_TRUE(r.joined);
  EXPECT_EQ(r.circuit_pred, 4);
  EXPECT_TRUE(tables.is_member(0, 5));
  EXPECT_EQ(tables.circuit(0).order(), (std::vector<HostId>{1, 4, 5, 7}));
  EXPECT_TRUE(tables.tree(0).contains(5));
  EXPECT_LT(tables.tree(0).parent(5), 5);
  // Re-join after a voluntary leave restores membership cleanly.
  tables.remove_member_from(0, 5);
  EXPECT_FALSE(tables.is_member(0, 5));
  const GroupTables::JoinResult again = tables.add_member(0, 5);
  EXPECT_TRUE(again.joined);
  EXPECT_EQ(tables.circuit(0).order(), (std::vector<HostId>{1, 4, 5, 7}));
  // Already a member: idempotent no-op.
  EXPECT_FALSE(tables.add_member(0, 5).joined);
}

// --- Differential oracle ------------------------------------------------------
// TreeTable as it was when it kept its edges in hash maps keyed by host ID.
// The flat tables must give the same trees and the same repair/join
// results for every member set, fanout cap and operation sequence.

class MapTreeTable {
 public:
  using EdgeCost = TreeTable::EdgeCost;

  MapTreeTable(std::vector<HostId> members, const EdgeCost& cost,
               int max_fanout)
      : members_(std::move(members)) {
    std::sort(members_.begin(), members_.end());
    root_ = members_.front();
    parent_[root_] = kNoHost;
    children_[root_] = {};
    for (std::size_t i = 1; i < members_.size(); ++i) {
      const HostId m = members_[i];
      HostId best = kNoHost;
      int best_cost = 0;
      for (std::size_t j = 0; j < i; ++j) {
        const HostId candidate = members_[j];
        if (max_fanout > 0 &&
            static_cast<int>(children_[candidate].size()) >= max_fanout)
          continue;
        const int c = cost(candidate, m);
        if (best == kNoHost || c < best_cost) {
          best = candidate;
          best_cost = c;
        }
      }
      parent_[m] = best;
      children_[best].push_back(m);
      children_[m] = {};
    }
  }

  [[nodiscard]] HostId root() const { return root_; }
  [[nodiscard]] const std::vector<HostId>& members() const { return members_; }
  [[nodiscard]] HostId parent(HostId h) const { return parent_.at(h); }
  [[nodiscard]] const std::vector<HostId>& children(HostId h) const {
    return children_.at(h);
  }
  [[nodiscard]] int depth() const {
    int max_depth = 0;
    for (const HostId m : members_) {
      int d = 0;
      for (HostId n = m; n != root_; n = parent_.at(n)) ++d;
      max_depth = std::max(max_depth, d);
    }
    return max_depth;
  }

  TreeTable::RemovalResult remove_member(HostId h, const EdgeCost& cost,
                                         int max_fanout) {
    TreeTable::RemovalResult result;
    const auto it = std::lower_bound(members_.begin(), members_.end(), h);
    if (it == members_.end() || *it != h) return result;
    result.removed = true;
    members_.erase(it);
    std::vector<HostId> orphans = children_[h];
    children_.erase(h);
    if (h == root_) {
      root_ = members_.front();
      parent_[root_] = kNoHost;
      orphans.erase(std::find(orphans.begin(), orphans.end(), root_));
      result.root_promoted = true;
    } else {
      std::vector<HostId>& siblings = children_[parent_.at(h)];
      siblings.erase(std::find(siblings.begin(), siblings.end(), h));
    }
    parent_.erase(h);
    for (const HostId o : orphans) {
      const HostId best = greedy_parent(o, cost, max_fanout);
      parent_[o] = best;
      std::vector<HostId>& kids = children_[best];
      kids.insert(std::lower_bound(kids.begin(), kids.end(), o), o);
      result.reattached.emplace_back(o, best);
      ++result.subtrees_reparented;
    }
    return result;
  }

  TreeTable::AddResult add_member(HostId h, const EdgeCost& cost,
                                  int max_fanout) {
    TreeTable::AddResult result;
    const auto it = std::lower_bound(members_.begin(), members_.end(), h);
    if (it != members_.end() && *it == h) return result;
    members_.insert(it, h);
    result.added = true;
    children_[h] = {};
    if (h < root_) {
      parent_[h] = kNoHost;
      parent_[root_] = h;
      children_[h].push_back(root_);
      root_ = h;
      result.became_root = true;
      return result;
    }
    const HostId best = greedy_parent(h, cost, max_fanout);
    parent_[h] = best;
    std::vector<HostId>& kids = children_[best];
    kids.insert(std::lower_bound(kids.begin(), kids.end(), h), h);
    result.parent = best;
    return result;
  }

 private:
  HostId greedy_parent(HostId h, const EdgeCost& cost, int max_fanout) {
    HostId best = kNoHost;
    int best_cost = 0;
    for (bool relax_cap : {false, true}) {
      for (const HostId candidate : members_) {
        if (candidate >= h) break;
        if (!relax_cap && max_fanout > 0 &&
            static_cast<int>(children_[candidate].size()) >= max_fanout)
          continue;
        const int c = cost(candidate, h);
        if (best == kNoHost || c < best_cost) {
          best = candidate;
          best_cost = c;
        }
      }
      if (best != kNoHost) break;
    }
    return best;
  }

  HostId root_ = kNoHost;
  std::vector<HostId> members_;
  std::unordered_map<HostId, HostId> parent_;
  std::unordered_map<HostId, std::vector<HostId>> children_;
};

void expect_same_tree(const TreeTable& t, const MapTreeTable& ref) {
  ASSERT_EQ(t.members(), ref.members());
  EXPECT_EQ(t.root(), ref.root());
  EXPECT_EQ(t.depth(), ref.depth());
  for (const HostId m : ref.members()) {
    EXPECT_EQ(t.parent(m), ref.parent(m)) << "member " << m;
    EXPECT_EQ(t.children(m), ref.children(m)) << "member " << m;
  }
}

TEST(TreeTableDifferential, MatchesTheMapTables) {
  const Topology topo = make_torus(6, 6);
  const UpDownRouting routing(topo);
  const int hosts = topo.num_hosts();
  // Hop counts tie often; the keyed metric (0..3) ties even more and is
  // not symmetric.
  const TreeTable::EdgeCost hop = [&routing](HostId p, HostId c) {
    return routing.hop_count(p, c);
  };
  const RandomStream keys(77);
  const TreeTable::EdgeCost keyed = [&keys](HostId p, HostId c) {
    return static_cast<int>(keys.keyed_uniform(
        0, 3, static_cast<std::uint64_t>(p), static_cast<std::uint64_t>(c)));
  };
  RandomStream rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const int cap = std::array<int, 3>{0, 2, 3}[trial % 3];
    const TreeTable::EdgeCost& cost = (trial / 3) % 2 == 0 ? hop : keyed;
    std::vector<HostId> pool = topo.all_hosts();
    rng.shuffle(pool);
    pool.resize(static_cast<std::size_t>(rng.uniform(1, 12)));
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " cap " << cap);
    TreeTable t(pool, cost, cap);
    MapTreeTable ref(pool, cost, cap);
    expect_same_tree(t, ref);
    for (int op = 0; op < 40; ++op) {
      const auto h = static_cast<HostId>(rng.uniform(0, hosts - 1));
      if (rng.chance(0.5) && t.size() > 1) {
        // Mostly members, sometimes a non-member (a no-op).
        const HostId victim =
            rng.chance(0.8)
                ? t.members()[static_cast<std::size_t>(
                      rng.uniform(0, t.size() - 1))]
                : h;
        const TreeTable::RemovalResult got =
            t.remove_member(victim, cost, cap);
        const TreeTable::RemovalResult want =
            ref.remove_member(victim, cost, cap);
        EXPECT_EQ(got.removed, want.removed);
        EXPECT_EQ(got.root_promoted, want.root_promoted);
        EXPECT_EQ(got.subtrees_reparented, want.subtrees_reparented);
        EXPECT_EQ(got.reattached, want.reattached);
      } else {
        const TreeTable::AddResult got = t.add_member(h, cost, cap);
        const TreeTable::AddResult want = ref.add_member(h, cost, cap);
        EXPECT_EQ(got.added, want.added);
        EXPECT_EQ(got.became_root, want.became_root);
        EXPECT_EQ(got.parent, want.parent);
      }
      expect_same_tree(t, ref);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace wormcast

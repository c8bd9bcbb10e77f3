#include "core/group_tables.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace wormcast

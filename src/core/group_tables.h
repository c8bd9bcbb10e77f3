// Per-group multicast structures (Sections 5 and 6).
//
// Hamiltonian circuit: members ordered by increasing host ID; the multicast
// propagates low-to-high with a single wrap-around (the one ID-order
// reversal the two-buffer-class rule allows).
//
// Rooted tree: the root is the lowest-ID member and every child has a
// higher ID than its parent. We build the cheapest such tree greedily:
// members are inserted in increasing ID order and each attaches to the
// already-inserted member with the smallest unicast hop count (ties to the
// lowest ID; fanout capped), so the parent always carries a lower ID.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/tree_strategy.h"
#include "net/updown.h"
#include "sim/types.h"
#include "traffic/groups.h"

namespace wormcast {

/// Hamiltonian circuit over one group's members.
class CircuitTable {
 public:
  CircuitTable() = default;
  explicit CircuitTable(std::vector<HostId> members);  // any order; sorted

  [[nodiscard]] const std::vector<HostId>& order() const { return order_; }
  [[nodiscard]] int size() const { return static_cast<int>(order_.size()); }
  [[nodiscard]] HostId lowest() const { return order_.front(); }
  [[nodiscard]] HostId highest() const { return order_.back(); }
  [[nodiscard]] bool contains(HostId h) const;
  /// Successor on the circuit (wraps highest -> lowest).
  [[nodiscard]] HostId next(HostId h) const;
  /// Total unicast hop count around the circuit (Figure 8's cost metric).
  [[nodiscard]] int circuit_hop_length(const UpDownRouting& routing) const;

  /// Splices a dead member out: its predecessor re-links directly to its
  /// successor. Because the circuit is the sorted member list, erasing one
  /// element preserves ascending-ID order with the single wrap reversal, so
  /// the two-buffer-class rule of Section 5 keeps holding on the repaired
  /// circuit. Returns false if `h` was not a member.
  bool remove(HostId h);

  /// Splices a joining member in at its sorted position (the inverse of
  /// remove: ascending-ID order, and hence the single wrap reversal, is
  /// preserved by construction). Returns the joiner's new predecessor —
  /// the member whose successor changed — or kNoHost if `h` was already
  /// a member.
  HostId insert(HostId h);

  /// The first member with an ID above `h`, wrapping to the lowest.
  /// Unlike next(), `h` need not be a member: an ex-member still relaying
  /// in-flight traffic after its voluntary leave uses this to keep the
  /// chain alive when its downstream stop departs too.
  [[nodiscard]] HostId successor_of(HostId h) const;

  /// Estimated resident bytes (memory audit).
  [[nodiscard]] std::size_t heap_bytes_estimate() const {
    return order_.capacity() * sizeof(HostId);
  }

 private:
  std::vector<HostId> order_;  // ascending IDs
};

/// Rooted multicast tree over one group's members (Figure 9).
class TreeTable {
 public:
  /// Cost of attaching `child` (second argument) under `parent` (first);
  /// the greedy construction minimizes it per insertion. The plain metric
  /// is the unicast hop count; tree strategies substitute their own (e.g.
  /// load-penalized) metric via GroupTables.
  using EdgeCost = std::function<int(HostId, HostId)>;

  TreeTable() = default;
  /// Builds the ID-ordered greedy tree. `max_fanout` caps children per
  /// node (0 = unlimited).
  TreeTable(std::vector<HostId> members, const EdgeCost& cost,
            int max_fanout = 0);
  /// Convenience: edge cost = `routing`'s unicast hop count.
  TreeTable(std::vector<HostId> members, const UpDownRouting& routing,
            int max_fanout = 0);

  [[nodiscard]] HostId root() const { return root_; }
  [[nodiscard]] int size() const { return static_cast<int>(members_.size()); }
  [[nodiscard]] const std::vector<HostId>& members() const { return members_; }
  [[nodiscard]] bool contains(HostId h) const;
  /// kNoHost for the root.
  [[nodiscard]] HostId parent(HostId h) const;
  /// Ascending-ID children list.
  [[nodiscard]] const std::vector<HostId>& children(HostId h) const;
  /// Depth of the tree (root = 0).
  [[nodiscard]] int depth() const;

  struct RemovalResult {
    bool removed = false;
    bool root_promoted = false;
    int subtrees_reparented = 0;
    /// Each orphaned subtree root and the surviving member that adopted it.
    std::vector<std::pair<HostId, HostId>> reattached;  // (orphan, parent)
  };
  /// Removes a dead member in place. Its orphaned children (whole subtrees)
  /// re-attach greedily to the surviving member with a lower ID, spare
  /// fanout and the smallest hop count (cap relaxed if every candidate is
  /// full), so the parent-ID < child-ID invariant survives repair. If the
  /// root died, the lowest surviving ID — necessarily one of the root's own
  /// children — is promoted in place.
  RemovalResult remove_member(HostId h, const EdgeCost& cost, int max_fanout);
  RemovalResult remove_member(HostId h, const UpDownRouting& routing,
                              int max_fanout);

  struct AddResult {
    bool added = false;
    /// The joiner's ID undercut the old root's: it was adopted as the new
    /// root with the old root as its only child (the one shape that keeps
    /// parent-ID < child-ID without re-parenting anyone else).
    bool became_root = false;
    HostId parent = kNoHost;  // the joiner's parent (kNoHost when root)
  };
  /// Attaches a joining member in place using the construction rule: greedy
  /// min-hop parent among lower-ID members with fanout slack (cap relaxed
  /// only when every candidate is full). A joiner below the current root
  /// becomes the new root instead. No existing edge moves either way.
  AddResult add_member(HostId h, const EdgeCost& cost, int max_fanout);
  AddResult add_member(HostId h, const UpDownRouting& routing, int max_fanout);

  /// Estimated resident bytes (memory audit): the member, parent and
  /// children vectors plus every children list.
  [[nodiscard]] std::size_t heap_bytes_estimate() const {
    std::size_t bytes = (members_.capacity() + parent_.capacity()) *
                            sizeof(HostId) +
                        children_.capacity() * sizeof(std::vector<HostId>);
    for (const auto& kids : children_) bytes += kids.capacity() * sizeof(HostId);
    return bytes;
  }

 private:
  /// Position of `h` in members_; throws if `h` is not a member.
  [[nodiscard]] std::size_t index_of(HostId h) const;
  /// Greedy parent for `h` among the members below position `end` (all of
  /// which have lower IDs): min cost among those with fanout slack, ties to
  /// the lowest ID; a second round ignores the cap only when every
  /// candidate is full. kNoHost if `end` is 0.
  [[nodiscard]] HostId best_parent(HostId h, std::size_t end,
                                   const EdgeCost& cost, int max_fanout) const;
  /// Records `parent` for the member at position `i` and inserts it into
  /// the parent's children in ascending-ID order.
  void attach(std::size_t i, HostId parent);

  HostId root_ = kNoHost;
  // By position in the ascending members_: parent_[i] is members_[i]'s
  // parent (kNoHost for the root), children_[i] its ascending children.
  std::vector<HostId> members_;
  std::vector<HostId> parent_;
  std::vector<std::vector<HostId>> children_;
};

/// All groups' circuits and trees, built once per experiment and repaired
/// in place when the failure detector declares a member dead.
class GroupTables {
 public:
  /// `strategy`, when given, supplies the per-group tree attach-cost metric
  /// (TreeStrategy::attach_cost); it must outlive the tables. Without one,
  /// the metric is `routing`'s unicast hop count (the paper's rule).
  GroupTables(const std::vector<MulticastGroupSpec>& specs,
              const UpDownRouting& routing, int max_tree_fanout = 0,
              const TreeStrategy* strategy = nullptr);

  [[nodiscard]] const CircuitTable& circuit(GroupId g) const;
  [[nodiscard]] const TreeTable& tree(GroupId g) const;
  [[nodiscard]] bool is_member(GroupId g, HostId h) const;
  [[nodiscard]] int group_size(GroupId g) const;

  [[nodiscard]] std::vector<GroupId> groups_containing(HostId h) const;

  /// One orphaned subtree adopted during a repair: protocols use this to
  /// know which *new* children need copies of in-flight messages (and only
  /// those — a child missing from a task's sends usually means the message
  /// arrived *from* it).
  struct Reattachment {
    GroupId group = kNoGroup;
    HostId orphan = kNoHost;
    HostId new_parent = kNoHost;
  };

  struct RepairStats {
    int circuits_spliced = 0;
    int subtrees_reparented = 0;
    int roots_promoted = 0;
    std::vector<Reattachment> reattachments;
  };
  /// Splices `h` out of every circuit and tree it belongs to. Groups where
  /// `h` is the sole member are left intact (nothing to repair; no sender
  /// survives to use them). Every protocol instance shares these tables by
  /// reference, so one call heals the whole network.
  RepairStats remove_member(HostId h);

  /// Splices `h` out of one group only — the voluntary-leave path. Same
  /// in-place circuit splice and orphan re-adoption as a failure repair,
  /// but scoped to `g` (a leave is per-group; a crash is per-host). A
  /// sole-member group is left intact, like remove_member.
  RepairStats remove_member_from(GroupId g, HostId h);

  struct JoinResult {
    bool joined = false;       // false: already a member (idempotent no-op)
    bool became_root = false;  // tree adopted the joiner as its new root
    HostId tree_parent = kNoHost;
    HostId circuit_pred = kNoHost;  // member whose circuit successor changed
  };
  /// Splices `h` into group `g`'s circuit (sorted position) and tree
  /// (greedy attach, or new-root adoption when `h` undercuts the root).
  /// Incremental: no other member's circuit successor or tree parent
  /// changes, except the old root gaining a parent on adoption.
  JoinResult add_member(GroupId g, HostId h);

 private:
  /// The attach-cost metric for group `g` (strategy-supplied or plain hop
  /// count). The returned callable borrows `this`: use-and-drop only.
  [[nodiscard]] TreeTable::EdgeCost edge_cost(GroupId g) const;

  const UpDownRouting& routing_;
  int max_tree_fanout_ = 0;
  const TreeStrategy* strategy_ = nullptr;
  std::unordered_map<GroupId, CircuitTable> circuits_;
  std::unordered_map<GroupId, TreeTable> trees_;

 public:
  /// Estimated resident bytes across every group's circuit and tree
  /// (memory audit, mem_tables_bytes).
  [[nodiscard]] std::size_t heap_bytes_estimate() const {
    std::size_t bytes = sizeof(GroupTables) +
                        circuits_.bucket_count() * sizeof(void*) +
                        trees_.bucket_count() * sizeof(void*);
    for (const auto& [g, c] : circuits_)
      bytes += sizeof(std::pair<GroupId, CircuitTable>) + 32 +
               c.heap_bytes_estimate();
    for (const auto& [g, t] : trees_)
      bytes += sizeof(std::pair<GroupId, TreeTable>) + 32 +
               t.heap_bytes_estimate();
    return bytes;
  }
};

}  // namespace wormcast

#include "core/group_tables.h"

#include <algorithm>
#include <stdexcept>

namespace wormcast {

CircuitTable::CircuitTable(std::vector<HostId> members)
    : order_(std::move(members)) {
  if (order_.empty()) throw std::invalid_argument("empty multicast group");
  std::sort(order_.begin(), order_.end());
  if (std::adjacent_find(order_.begin(), order_.end()) != order_.end())
    throw std::invalid_argument("duplicate member in multicast group");
}

bool CircuitTable::contains(HostId h) const {
  return std::binary_search(order_.begin(), order_.end(), h);
}

HostId CircuitTable::next(HostId h) const {
  const auto it = std::lower_bound(order_.begin(), order_.end(), h);
  if (it == order_.end() || *it != h)
    throw std::invalid_argument("host not in group");
  const auto next_it = it + 1;
  return next_it == order_.end() ? order_.front() : *next_it;
}

HostId CircuitTable::successor_of(HostId h) const {
  const auto it = std::upper_bound(order_.begin(), order_.end(), h);
  return it == order_.end() ? order_.front() : *it;
}

bool CircuitTable::remove(HostId h) {
  const auto it = std::lower_bound(order_.begin(), order_.end(), h);
  if (it == order_.end() || *it != h) return false;
  if (order_.size() == 1)
    throw std::logic_error("cannot splice the last circuit member");
  order_.erase(it);  // sorted order (and hence the one wrap reversal) survives
  return true;
}

HostId CircuitTable::insert(HostId h) {
  const auto it = std::lower_bound(order_.begin(), order_.end(), h);
  if (it != order_.end() && *it == h) return kNoHost;
  const auto idx = static_cast<std::size_t>(it - order_.begin());
  order_.insert(it, h);
  // Predecessor on the circuit: the element before the insertion point,
  // wrapping to the (new) highest when the joiner became the lowest.
  return idx == 0 ? order_.back() : order_[idx - 1];
}

int CircuitTable::circuit_hop_length(const UpDownRouting& routing) const {
  if (order_.size() < 2) return 0;
  int total = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const HostId from = order_[i];
    const HostId to = order_[(i + 1) % order_.size()];
    total += routing.hop_count(from, to);
  }
  return total;
}

namespace {

TreeTable::EdgeCost hop_cost(const UpDownRouting& routing) {
  return [&routing](HostId parent, HostId child) {
    return routing.hop_count(parent, child);
  };
}

}  // namespace

TreeTable::TreeTable(std::vector<HostId> members, const EdgeCost& cost,
                     int max_fanout)
    : members_(std::move(members)) {
  if (members_.empty()) throw std::invalid_argument("empty multicast group");
  std::sort(members_.begin(), members_.end());
  if (std::adjacent_find(members_.begin(), members_.end()) != members_.end())
    throw std::invalid_argument("duplicate member in multicast group");
  root_ = members_.front();
  parent_.assign(members_.size(), kNoHost);
  children_.resize(members_.size());
  // i members with a cap c >= 1 have i * c > i - 1 child slots, so the
  // construction always finds a parent with slack; the cap never relaxes.
  for (std::size_t i = 1; i < members_.size(); ++i)
    attach(i, best_parent(members_[i], i, cost, max_fanout));
}

TreeTable::TreeTable(std::vector<HostId> members, const UpDownRouting& routing,
                     int max_fanout)
    : TreeTable(std::move(members), hop_cost(routing), max_fanout) {}

std::size_t TreeTable::index_of(HostId h) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), h);
  if (it == members_.end() || *it != h)
    throw std::invalid_argument("host not in group");
  return static_cast<std::size_t>(it - members_.begin());
}

HostId TreeTable::best_parent(HostId h, std::size_t end, const EdgeCost& cost,
                              int max_fanout) const {
  HostId best = kNoHost;
  int best_cost = 0;
  for (const bool relaxed : {false, true}) {
    for (std::size_t j = 0; j < end; ++j) {
      if (!relaxed && max_fanout > 0 &&
          static_cast<int>(children_[j].size()) >= max_fanout)
        continue;
      const int c = cost(members_[j], h);
      if (best == kNoHost || c < best_cost) {
        best = members_[j];
        best_cost = c;
      }
    }
    if (best != kNoHost) break;  // cap relaxed only when every slot is full
  }
  return best;
}

void TreeTable::attach(std::size_t i, HostId parent) {
  parent_[i] = parent;
  std::vector<HostId>& kids = children_[index_of(parent)];
  kids.insert(std::lower_bound(kids.begin(), kids.end(), members_[i]),
              members_[i]);
}

bool TreeTable::contains(HostId h) const {
  return std::binary_search(members_.begin(), members_.end(), h);
}

HostId TreeTable::parent(HostId h) const { return parent_[index_of(h)]; }

const std::vector<HostId>& TreeTable::children(HostId h) const {
  return children_[index_of(h)];
}

TreeTable::RemovalResult TreeTable::remove_member(HostId h,
                                                  const UpDownRouting& routing,
                                                  int max_fanout) {
  return remove_member(h, hop_cost(routing), max_fanout);
}

TreeTable::RemovalResult TreeTable::remove_member(HostId h,
                                                  const EdgeCost& cost,
                                                  int max_fanout) {
  RemovalResult result;
  const auto it = std::lower_bound(members_.begin(), members_.end(), h);
  if (it == members_.end() || *it != h) return result;
  if (members_.size() == 1)
    throw std::logic_error("cannot remove the last tree member");
  result.removed = true;
  const auto pos = it - members_.begin();
  const HostId old_parent = parent_[static_cast<std::size_t>(pos)];
  std::vector<HostId> orphans =
      std::move(children_[static_cast<std::size_t>(pos)]);
  members_.erase(it);
  parent_.erase(parent_.begin() + pos);
  children_.erase(children_.begin() + pos);
  if (h == root_) {
    // The new root is the lowest surviving ID. Its old parent had an even
    // lower ID, and only the dead root qualified — so the new root is
    // always a direct child of the dead root and already orphaned.
    root_ = members_.front();
    parent_.front() = kNoHost;
    orphans.erase(std::find(orphans.begin(), orphans.end(), root_));
    result.root_promoted = true;
  } else {
    // Detach the dead node from its parent's child list.
    std::vector<HostId>& siblings = children_[index_of(old_parent)];
    siblings.erase(std::find(siblings.begin(), siblings.end(), h));
  }

  // Re-attach each orphaned subtree at its (surviving) root: greedy
  // min-hop parent among lower-ID members with fanout slack, exactly the
  // construction rule, so parent < child keeps holding.
  for (const HostId o : orphans) {
    const std::size_t oi = index_of(o);
    const HostId best = best_parent(o, oi, cost, max_fanout);
    attach(oi, best);
    result.reattached.emplace_back(o, best);
    ++result.subtrees_reparented;
  }
  return result;
}

TreeTable::AddResult TreeTable::add_member(HostId h,
                                           const UpDownRouting& routing,
                                           int max_fanout) {
  return add_member(h, hop_cost(routing), max_fanout);
}

TreeTable::AddResult TreeTable::add_member(HostId h, const EdgeCost& cost,
                                           int max_fanout) {
  AddResult result;
  const auto it = std::lower_bound(members_.begin(), members_.end(), h);
  if (it != members_.end() && *it == h) return result;
  const auto pos = it - members_.begin();
  members_.insert(it, h);
  parent_.insert(parent_.begin() + pos, kNoHost);
  children_.emplace(children_.begin() + pos);
  result.added = true;
  if (h < root_) {
    // New-root adoption: the joiner takes the root slot and the old root
    // becomes its only child. Every existing parent/child edge survives,
    // so in-flight relays through the old root still reach its subtree.
    attach(1, h);
    root_ = h;
    result.became_root = true;
    return result;
  }
  // Greedy construction rule: min-hop lower-ID parent with fanout slack;
  // the cap is relaxed only when every candidate is full.
  const auto i = static_cast<std::size_t>(pos);
  result.parent = best_parent(h, i, cost, max_fanout);
  attach(i, result.parent);
  return result;
}

int TreeTable::depth() const {
  // Every parent has a lower ID, so it sits earlier in members_ and its
  // depth is known by the time its children are reached.
  std::vector<int> depth(members_.size(), 0);
  int max_depth = 0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (parent_[i] == kNoHost) continue;
    depth[i] = depth[index_of(parent_[i])] + 1;
    max_depth = std::max(max_depth, depth[i]);
  }
  return max_depth;
}

GroupTables::GroupTables(const std::vector<MulticastGroupSpec>& specs,
                         const UpDownRouting& routing, int max_tree_fanout,
                         const TreeStrategy* strategy)
    : routing_(routing), max_tree_fanout_(max_tree_fanout),
      strategy_(strategy) {
  // Every attach-cost metric starts from the hop count, and the greedy
  // construction asks for the row of every member's switch but the
  // highest member's (the only one never a candidate parent): fill those
  // rows in bit-parallel passes instead of one search per miss.
  std::vector<HostId> hosts;
  for (const MulticastGroupSpec& spec : specs) {
    const auto highest =
        std::max_element(spec.members.begin(), spec.members.end());
    for (auto it = spec.members.begin(); it != spec.members.end(); ++it)
      if (it != highest) hosts.push_back(*it);
  }
  routing_.fill_hop_rows(hosts);
  for (const MulticastGroupSpec& spec : specs) {
    circuits_.emplace(spec.id, CircuitTable(spec.members));
    trees_.emplace(spec.id, TreeTable(spec.members, edge_cost(spec.id),
                                      max_tree_fanout));
  }
}

TreeTable::EdgeCost GroupTables::edge_cost(GroupId g) const {
  if (strategy_ == nullptr) {
    return [this](HostId parent, HostId child) {
      return routing_.hop_count(parent, child);
    };
  }
  return [this, g](HostId parent, HostId child) {
    return strategy_->attach_cost(g, parent, child);
  };
}

std::vector<GroupId> GroupTables::groups_containing(HostId h) const {
  std::vector<GroupId> out;
  for (const auto& [g, circuit] : circuits_)
    if (circuit.contains(h)) out.push_back(g);
  std::sort(out.begin(), out.end());
  return out;
}

GroupTables::RepairStats GroupTables::remove_member(HostId h) {
  RepairStats stats;
  for (auto& [g, circuit] : circuits_) {
    if (!circuit.contains(h)) continue;
    const RepairStats one = remove_member_from(g, h);
    stats.circuits_spliced += one.circuits_spliced;
    stats.subtrees_reparented += one.subtrees_reparented;
    stats.roots_promoted += one.roots_promoted;
    stats.reattachments.insert(stats.reattachments.end(),
                               one.reattachments.begin(),
                               one.reattachments.end());
  }
  return stats;
}

GroupTables::RepairStats GroupTables::remove_member_from(GroupId g, HostId h) {
  RepairStats stats;
  auto it = circuits_.find(g);
  if (it == circuits_.end()) throw std::invalid_argument("unknown group");
  CircuitTable& circuit = it->second;
  if (!circuit.contains(h)) return stats;
  if (circuit.size() == 1) return stats;  // sole member: nothing left to heal
  circuit.remove(h);
  ++stats.circuits_spliced;
  const TreeTable::RemovalResult r =
      trees_.at(g).remove_member(h, edge_cost(g), max_tree_fanout_);
  stats.subtrees_reparented += r.subtrees_reparented;
  if (r.root_promoted) ++stats.roots_promoted;
  for (const auto& [orphan, parent] : r.reattached)
    stats.reattachments.push_back({g, orphan, parent});
  return stats;
}

GroupTables::JoinResult GroupTables::add_member(GroupId g, HostId h) {
  JoinResult result;
  auto it = circuits_.find(g);
  if (it == circuits_.end()) throw std::invalid_argument("unknown group");
  CircuitTable& circuit = it->second;
  if (circuit.contains(h)) return result;
  result.joined = true;
  result.circuit_pred = circuit.insert(h);
  const TreeTable::AddResult a =
      trees_.at(g).add_member(h, edge_cost(g), max_tree_fanout_);
  result.became_root = a.became_root;
  result.tree_parent = a.parent;
  return result;
}

const CircuitTable& GroupTables::circuit(GroupId g) const {
  const auto it = circuits_.find(g);
  if (it == circuits_.end()) throw std::invalid_argument("unknown group");
  return it->second;
}

const TreeTable& GroupTables::tree(GroupId g) const {
  const auto it = trees_.find(g);
  if (it == trees_.end()) throw std::invalid_argument("unknown group");
  return it->second;
}

bool GroupTables::is_member(GroupId g, HostId h) const {
  return circuit(g).contains(h);
}

int GroupTables::group_size(GroupId g) const { return circuit(g).size(); }

}  // namespace wormcast

#include "net/updown.h"

#include <algorithm>
#include <bit>
#include <queue>
#include <stdexcept>
#include <utility>

namespace wormcast {

UpDownRouting::UpDownRouting(const Topology& topo, Options opts)
    : topo_(topo),
      tree_links_only_(opts.tree_links_only),
      level_override_(std::move(opts.level_override)) {
  if (!level_override_.empty() &&
      level_override_.size() != static_cast<std::size_t>(topo_.num_nodes()))
    throw std::logic_error(
        "level_override must label every node (hosts included)");
  // Root: requested; else the lowest (stage, id) switch when stage labels
  // are given; else the highest-degree switch (lowest id on ties).
  preferred_root_ = opts.root;
  if (preferred_root_ == kNoNode && !level_override_.empty()) {
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
      if (topo_.node(n).kind != NodeKind::kSwitch) continue;
      if (preferred_root_ == kNoNode ||
          level_override_[static_cast<std::size_t>(n)] <
              level_override_[static_cast<std::size_t>(preferred_root_)])
        preferred_root_ = n;
    }
  }
  if (preferred_root_ == kNoNode) {
    std::size_t best_degree = 0;
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
      if (topo_.node(n).kind != NodeKind::kSwitch) continue;
      if (preferred_root_ == kNoNode ||
          topo_.node(n).ports.size() > best_degree) {
        preferred_root_ = n;
        best_degree = topo_.node(n).ports.size();
      }
    }
  }
  if (preferred_root_ == kNoNode ||
      topo_.node(preferred_root_).kind != NodeKind::kSwitch)
    throw std::logic_error("up/down routing requires a switch root");
  sw_index_.assign(static_cast<std::size_t>(topo_.num_nodes()), -1);
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    if (topo_.node(n).kind != NodeKind::kSwitch) continue;
    sw_index_[static_cast<std::size_t>(n)] =
        static_cast<std::int32_t>(sw_node_.size());
    sw_node_.push_back(n);
  }
  // A shortest legal path never revisits a switch, so a hop count fits in
  // a row entry below kNoHops.
  if (sw_node_.size() >= kNoHops)
    throw std::logic_error("up/down routing supports at most 65534 switches");
  link_dead_.assign(static_cast<std::size_t>(topo_.num_links()), false);
  rebuild(/*allow_partial=*/false);
}

void UpDownRouting::rebuild(bool allow_partial) {
  root_ = preferred_root_;

  // BFS levels from the root over the surviving links.
  levels_.assign(static_cast<std::size_t>(topo_.num_nodes()), -1);
  on_tree_.assign(static_cast<std::size_t>(topo_.num_links()), false);
  std::queue<NodeId> frontier;
  levels_[root_] = 0;
  frontier.push(root_);
  while (!frontier.empty()) {
    const NodeId n = frontier.front();
    frontier.pop();
    for (const TopoPort& p : topo_.node(n).ports) {
      if (link_dead_[p.link]) continue;
      const NodeId m = topo_.peer(p.link, n);
      if (levels_[m] == -1) {
        levels_[m] = levels_[n] + 1;
        on_tree_[p.link] = true;
        frontier.push(m);
      }
    }
  }
  if (!allow_partial) {
    for (int lv : levels_)
      if (lv == -1) throw std::logic_error("topology disconnected from root");
  }

  // Up/down labels: the up end is the endpoint with the smaller level;
  // node id breaks ties (lower id counts as higher in the tree). Dead and
  // disconnected links keep kNoNode, and no route may use them. With a
  // level_override the *stage* labels replace the BFS distances (still a
  // total (level, id) order, so still acyclic and deadlock-free); BFS
  // levels keep deciding connectivity either way.
  up_end_.assign(static_cast<std::size_t>(topo_.num_links()), kNoNode);
  for (LinkId l = 0; l < topo_.num_links(); ++l) {
    if (link_dead_[l]) continue;
    const TopoLink& lk = topo_.link(l);
    if (levels_[lk.node_a] == -1 || levels_[lk.node_b] == -1) continue;
    const int la = level_override_.empty()
                       ? levels_[lk.node_a]
                       : level_override_[static_cast<std::size_t>(lk.node_a)];
    const int lb = level_override_.empty()
                       ? levels_[lk.node_b]
                       : level_override_[static_cast<std::size_t>(lk.node_b)];
    if (la != lb)
      up_end_[l] = la < lb ? lk.node_a : lk.node_b;
    else
      up_end_[l] = std::min(lk.node_a, lk.node_b);
  }

  // Switch graph over the labelled links: hosts are leaves, so only
  // switch-to-switch arcs can carry a path.
  arc_begin_.assign(sw_node_.size() + 1, 0);
  arcs_.clear();
  for (std::size_t i = 0; i < sw_node_.size(); ++i) {
    const NodeId n = sw_node_[i];
    arc_begin_[i] = static_cast<std::int32_t>(arcs_.size());
    for (const TopoPort& p : topo_.node(n).ports) {
      const LinkId l = p.link;
      if (link_dead_[l] || up_end_[l] == kNoNode) continue;
      if (tree_links_only_ && !on_tree_[l]) continue;
      const NodeId m = topo_.peer(l, n);
      if (topo_.node(m).kind != NodeKind::kSwitch) continue;
      arcs_.push_back(Arc{sw_index_[static_cast<std::size_t>(m)],
                          topo_.port_on(l, n), is_up_traversal(l, n)});
    }
  }
  arc_begin_[sw_node_.size()] = static_cast<std::int32_t>(arcs_.size());

  // Every rebuild (failure, root migration) invalidates memoized paths:
  // stale entries would silently route under the old labels.
  searched_from_ = kNoNode;
  hop_rows_.clear();
  route_cache_.clear();
}

void UpDownRouting::fail_link(LinkId l) {
  if (link_dead_[l]) return;
  link_dead_[l] = true;
  ++links_failed_;
  rebuild(/*allow_partial=*/true);
}

void UpDownRouting::set_root(NodeId new_root) {
  if (new_root < 0 || new_root >= topo_.num_nodes() ||
      topo_.node(new_root).kind != NodeKind::kSwitch)
    throw std::logic_error("up/down root must be a switch");
  if (new_root == preferred_root_ && new_root == root_) return;
  preferred_root_ = new_root;
  rebuild(/*allow_partial=*/links_failed_ > 0);
}

void UpDownRouting::search_from(NodeId from_sw) const {
  if (from_sw == searched_from_) return;
  // BFS over (node, phase): phase 0 = may still go up; phase 1 = has gone
  // down (only down traversals remain legal). Arcs in port order fix one
  // path per pair.
  const std::size_t states = 2 * sw_node_.size();
  dist_.assign(states, -1);
  pred_state_.resize(states);
  pred_arc_.resize(states);
  queue_.resize(states);  // each state is enqueued at most once
  const std::int32_t start = 2 * sw_index_[static_cast<std::size_t>(from_sw)];
  dist_[static_cast<std::size_t>(start)] = 0;
  std::size_t head = 0;
  std::size_t tail = 0;
  queue_[tail++] = start;
  while (head < tail) {
    const std::int32_t s = queue_[head++];
    const std::int32_t n = s >> 1;
    const bool gone_down = (s & 1) != 0;
    const std::int32_t d = dist_[static_cast<std::size_t>(s)] + 1;
    for (std::int32_t a = arc_begin_[static_cast<std::size_t>(n)];
         a < arc_begin_[static_cast<std::size_t>(n) + 1]; ++a) {
      const Arc& arc = arcs_[static_cast<std::size_t>(a)];
      if (arc.up && gone_down) continue;  // down->up is illegal
      const std::int32_t t = 2 * arc.to + (arc.up ? 0 : 1);
      if (dist_[static_cast<std::size_t>(t)] != -1) continue;
      dist_[static_cast<std::size_t>(t)] = d;
      pred_state_[static_cast<std::size_t>(t)] = s;
      pred_arc_[static_cast<std::size_t>(t)] = a;
      queue_[tail++] = t;
    }
  }
  searched_from_ = from_sw;
}

const std::vector<std::int32_t>& UpDownRouting::legal_path(
    NodeId from_sw, NodeId to_sw) const {
  search_from(from_sw);
  const std::int32_t start = 2 * sw_index_[static_cast<std::size_t>(from_sw)];
  const std::int32_t end = 2 * sw_index_[static_cast<std::size_t>(to_sw)];
  const std::int32_t d0 = dist_[static_cast<std::size_t>(end)];
  const std::int32_t d1 = dist_[static_cast<std::size_t>(end) + 1];
  std::int32_t s = -1;
  if (d0 != -1 && (d1 == -1 || d0 <= d1))
    s = end;
  else if (d1 != -1)
    s = end + 1;
  if (s == -1) throw std::logic_error("no legal up/down path");
  path_.clear();
  for (; s != start; s = pred_state_[static_cast<std::size_t>(s)])
    path_.push_back(pred_arc_[static_cast<std::size_t>(s)]);
  std::reverse(path_.begin(), path_.end());
  return path_;
}

std::vector<PortId> UpDownRouting::path_ports(
    const std::vector<std::int32_t>& arcs) const {
  std::vector<PortId> ports;
  ports.reserve(arcs.size() + 1);
  for (const std::int32_t a : arcs)
    ports.push_back(arcs_[static_cast<std::size_t>(a)].port);
  return ports;
}

SourceRoute UpDownRouting::route(HostId src, HostId dst) const {
  if (src == dst) throw std::logic_error("route to self");
  const std::uint64_t key = pair_key(src, dst);
  if (const auto it = route_cache_.find(key); it != route_cache_.end())
    return it->second;
  const NodeId from_sw = topo_.switch_of_host(src);
  const NodeId to_sw = topo_.switch_of_host(dst);
  if (levels_[from_sw] == -1 || levels_[to_sw] == -1)
    throw std::logic_error("no legal up/down path");
  std::vector<PortId> ports = path_ports(legal_path(from_sw, to_sw));
  // Last switch: exit toward the destination host.
  const TopoNode& dest = topo_.node(topo_.node_of_host(dst));
  ports.push_back(topo_.port_on(dest.ports[0].link, to_sw));
  SourceRoute out(std::move(ports));
  route_cache_.emplace(key, out);
  return out;
}

void UpDownRouting::route_into(HostId src, HostId dst, SourceRoute& out) const {
  if (src == dst) throw std::logic_error("route to self");
  const std::uint64_t key = pair_key(src, dst);
  const auto it = route_cache_.find(key);
  if (it != route_cache_.end()) {
    out = it->second;  // vector copy-assign reuses out's allocation
    return;
  }
  out = route(src, dst);
}

int UpDownRouting::hop_count(HostId src, HostId dst) const {
  if (src == dst) return 0;
  const NodeId from_sw = topo_.switch_of_host(src);
  const NodeId to_sw = topo_.switch_of_host(dst);
  if (levels_[from_sw] == -1 || levels_[to_sw] == -1)
    throw std::logic_error("no legal up/down path");
  const std::int32_t from = sw_index_[static_cast<std::size_t>(from_sw)];
  if (claim_hop_row(from)) hop_row_pass(&from, 1);
  const std::uint16_t hops =
      hop_rows_[static_cast<std::size_t>(from)]
               [static_cast<std::size_t>(sw_index_[to_sw])];
  if (hops == kNoHops) throw std::logic_error("no legal up/down path");
  // Host link out, switch-to-switch links, host link in.
  return hops + 2;
}

bool UpDownRouting::claim_hop_row(std::int32_t i) const {
  if (hop_rows_.empty()) hop_rows_.resize(sw_node_.size());
  std::vector<std::uint16_t>& row = hop_rows_[static_cast<std::size_t>(i)];
  if (!row.empty()) return false;
  row.assign(sw_node_.size(), kNoHops);
  return true;
}

void UpDownRouting::fill_hop_rows(const std::vector<HostId>& hosts) const {
  row_sources_.clear();
  for (const HostId h : hosts) {
    const NodeId sw = topo_.switch_of_host(h);
    if (levels_[sw] == -1) continue;
    const std::int32_t i = sw_index_[static_cast<std::size_t>(sw)];
    if (claim_hop_row(i)) row_sources_.push_back(i);
  }
  for (std::size_t b = 0; b < row_sources_.size(); b += 64)
    hop_row_pass(row_sources_.data() + b,
                 std::min<std::size_t>(64, row_sources_.size() - b));
}

void UpDownRouting::hop_row_pass(const std::int32_t* sources,
                                 std::size_t count) const {
  // The search_from BFS run for `count` sources at once, level by level:
  // bit k of a state's mask stands for source k, so the level at which bit
  // k first reaches a state is source k's distance to it, and the first
  // level at which it reaches either phase of a switch is the row entry
  // (the min over phases that a single search takes).
  const std::size_t states = 2 * sw_node_.size();
  row_seen_.assign(states, 0);
  row_next_.assign(states, 0);
  row_done_.assign(sw_node_.size(), 0);
  wave_.clear();
  for (std::size_t k = 0; k < count; ++k) {
    const auto i = static_cast<std::size_t>(sources[k]);
    const std::uint64_t bit = std::uint64_t{1} << k;
    row_seen_[2 * i] = bit;
    row_done_[i] = bit;
    hop_rows_[i][i] = 0;
    wave_.push_back(WaveState{static_cast<std::int32_t>(2 * i), bit});
  }
  for (int level = 1; !wave_.empty(); ++level) {
    next_wave_.clear();
    for (const WaveState& w : wave_) {
      const std::int32_t n = w.state >> 1;
      const bool gone_down = (w.state & 1) != 0;
      for (std::int32_t a = arc_begin_[static_cast<std::size_t>(n)];
           a < arc_begin_[static_cast<std::size_t>(n) + 1]; ++a) {
        const Arc& arc = arcs_[static_cast<std::size_t>(a)];
        if (arc.up && gone_down) continue;  // down->up is illegal
        const auto t = static_cast<std::size_t>(2 * arc.to + (arc.up ? 0 : 1));
        const std::uint64_t reach = w.fresh & ~row_seen_[t];
        if (reach == 0) continue;
        if (row_next_[t] == 0)
          next_wave_.push_back(static_cast<std::int32_t>(t));
        row_next_[t] |= reach;
      }
    }
    wave_.clear();
    for (const std::int32_t t : next_wave_) {
      const auto ts = static_cast<std::size_t>(t);
      const std::uint64_t fresh = row_next_[ts];
      row_next_[ts] = 0;
      row_seen_[ts] |= fresh;
      wave_.push_back(WaveState{t, fresh});
      const auto sw = ts >> 1;
      std::uint64_t first = fresh & ~row_done_[sw];
      row_done_[sw] |= first;
      for (; first != 0; first &= first - 1)
        hop_rows_[static_cast<std::size_t>(
            sources[std::countr_zero(first)])][sw] =
            static_cast<std::uint16_t>(level);
    }
  }
}

std::size_t UpDownRouting::hop_row_bytes() const {
  std::size_t bytes = 0;
  for (const auto& row : hop_rows_) bytes += row.capacity() * sizeof(row[0]);
  return bytes;
}

std::vector<NodeId> UpDownRouting::switch_path(HostId src, HostId dst) const {
  const NodeId from_sw = topo_.switch_of_host(src);
  const std::vector<std::int32_t>& arcs =
      legal_path(from_sw, topo_.switch_of_host(dst));
  std::vector<NodeId> nodes;
  nodes.reserve(arcs.size() + 1);
  nodes.push_back(from_sw);
  for (const std::int32_t a : arcs)
    nodes.push_back(
        sw_node_[static_cast<std::size_t>(arcs_[static_cast<std::size_t>(a)].to)]);
  return nodes;
}

std::vector<PortId> UpDownRouting::down_tree_ports(NodeId sw) const {
  std::vector<PortId> out;
  const TopoNode& node = topo_.node(sw);
  for (std::size_t p = 0; p < node.ports.size(); ++p) {
    const LinkId l = node.ports[p].link;
    if (link_dead_[l]) continue;
    if (on_tree_[l] && up_end_[l] == sw) out.push_back(static_cast<PortId>(p));
  }
  return out;
}

SourceRoute UpDownRouting::route_to_root(HostId src) const {
  const NodeId from_sw = topo_.switch_of_host(src);
  if (from_sw == root_) return SourceRoute{};
  if (levels_[from_sw] == -1)
    throw std::logic_error("no legal up/down path");
  return SourceRoute(path_ports(legal_path(from_sw, root_)));
}

}  // namespace wormcast

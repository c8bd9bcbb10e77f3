// Deadlock-free up/down routing (Autonet / Myrinet style, Section 2).
//
// A root switch is chosen and a BFS spanning tree computed. Every link
// (tree link or cross link) is labelled: its "up" end is the endpoint
// closer to the root, with node id breaking ties. A legal route traverses
// zero or more up links followed by zero or more down links; this breaks
// every circular wait and hence prevents fabric deadlock.
//
// Autonet's raison d'être was reconfiguration after component failure:
// fail_link() removes a link permanently and recomputes the spanning tree
// and labels over the surviving links, dropping the cached routes and hop
// rows so the next retransmission uses the healed paths.
//
// Queries run over a compact switch graph (live labelled switch-to-switch
// arcs in port order) as a (node, phase) BFS. Route queries walk the preds
// of a one-source search and search again only when the source switch
// changes. hop_count() reads a 2-byte row per source switch (the
// host-connectivity graphs of Sections 5/6 ask for every pair of a group);
// rows are filled bit-parallel, up to 64 source switches per BFS pass, by
// fill_hop_rows() for a whole set of hosts or by a one-bit pass on a miss.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/source_route.h"
#include "net/topology.h"
#include "sim/types.h"

namespace wormcast {

struct UpDownOptions {
  /// Root switch; kNoNode selects the highest-degree switch (lowest id on
  /// ties), mimicking Autonet's preference for a central root — unless
  /// `level_override` is set, in which case the lowest (level, id) switch
  /// wins (a Clos leaf out-degrees a spine, so the degree heuristic would
  /// root the tree in the wrong stage).
  NodeId root = kNoNode;
  /// Restrict routes to spanning-tree links only (switch-level multicast
  /// scheme 1 requires this of *all* worms; Section 3).
  bool tree_links_only = false;
  /// Stage labels by NodeId (must cover every node, hosts included, when
  /// non-empty): the up end of each link becomes the endpoint with the
  /// smaller label, id breaking ties, instead of the BFS-distance rule.
  /// Any total (level, id) order keeps up*/down* deadlock-free (it is an
  /// acyclic orientation, so no circular wait survives); what the stage
  /// labels buy is *path diversity* on multi-stage fabrics — with BFS
  /// levels only the root spine of a Clos sits above the leaves and every
  /// route funnels through it, while stage labels make every leaf->spine
  /// traversal "up" so any spine can turn a route around. Generators emit
  /// these via their `levels_out` parameter (see net/topologies.h).
  std::vector<int> level_override;
};

class UpDownRouting {
 public:
  using Options = UpDownOptions;

  explicit UpDownRouting(const Topology& topo, Options opts = Options());

  [[nodiscard]] NodeId root() const { return root_; }
  /// BFS distance of a node from the root; -1 if the node was cut off by
  /// permanent link deaths (routing to/from it throws).
  [[nodiscard]] int level(NodeId n) const { return levels_[n]; }
  /// The endpoint of `l` that is "up" (closer to the root / lower id).
  [[nodiscard]] NodeId up_end(LinkId l) const { return up_end_[l]; }
  /// True if `l` belongs to the BFS spanning tree.
  [[nodiscard]] bool on_tree(LinkId l) const { return on_tree_[l]; }
  /// True if traversing `l` out of `from` moves toward the root.
  [[nodiscard]] bool is_up_traversal(LinkId l, NodeId from) const {
    return up_end_[l] != from;
  }

  /// Removes `l` from the topology as seen by this routing instance and
  /// recomputes the spanning tree, labels and (lazily) all routes over the
  /// surviving links. The root is kept if still reachable. Nodes cut off
  /// entirely get level -1; routing to them throws. Idempotent per link.
  void fail_link(LinkId l);
  [[nodiscard]] bool link_alive(LinkId l) const { return !link_dead_[l]; }
  [[nodiscard]] std::int64_t links_failed() const { return links_failed_; }

  /// Migrates the root to `new_root` (must be a switch; throws otherwise)
  /// and recomputes the spanning tree, labels and route/hop caches in
  /// place. Routes handed out before the call reflect the old labels;
  /// callers holding plans must re-plan (Network::migrate_root does).
  void set_root(NodeId new_root);

  /// Source route (switch output ports) from one host to another. The path
  /// is the shortest legal up/down path, with deterministic tie-breaking,
  /// so exactly one path per pair is ever used (as in the paper's
  /// simulations). Throws if src == dst or no surviving legal path exists.
  [[nodiscard]] SourceRoute route(HostId src, HostId dst) const;

  /// Copies route(src, dst) into `out` instead of returning a fresh
  /// vector; recycled worms pass their previous route here so the copy
  /// reuses the existing allocation (vector copy-assignment).
  void route_into(HostId src, HostId dst, SourceRoute& out) const;

  /// Number of switch-to-switch hops on route(src, dst) plus host links;
  /// the "hop count" metric used to weigh host-connectivity edges
  /// (Section 5, Figure 8).
  [[nodiscard]] int hop_count(HostId src, HostId dst) const;

  /// Fills the hop rows of every listed host's switch that has none yet,
  /// 64 source switches per bit-parallel BFS pass, so later hop_count()
  /// calls from these hosts are row reads. Hosts cut off (level -1) are
  /// skipped. The rows equal those a per-source search would give.
  void fill_hop_rows(const std::vector<HostId>& hosts) const;

  /// Bytes held by the hop rows: 2 per switch for each source switch
  /// hop_count() or fill_hop_rows() has been asked about since the last
  /// rebuild; for tests.
  [[nodiscard]] std::size_t hop_row_bytes() const;

  /// Node path (switches only) underlying route(src, dst); for tests.
  [[nodiscard]] std::vector<NodeId> switch_path(HostId src, HostId dst) const;

  /// Port to take at `sw` to reach the root's direction is not meaningful
  /// in general; what broadcast needs is the set of *down* tree links at a
  /// switch. Returns output ports of `sw` that are tree links going down.
  [[nodiscard]] std::vector<PortId> down_tree_ports(NodeId sw) const;

  /// Source route from a host up to the root switch (used by the
  /// root-serialized switch-level schemes).
  [[nodiscard]] SourceRoute route_to_root(HostId src) const;

 private:
  /// One arc of the compact switch graph: a live, labelled link between two
  /// switches (honouring tree_links_only), seen from its near end.
  struct Arc {
    std::int32_t to = -1;   // dense switch index of the far end
    PortId port = kNoPort;  // output port at the near end
    bool up = false;        // traversal moves toward the root
  };
  /// hop_count() row entry for a switch no legal path reaches.
  static constexpr std::uint16_t kNoHops = 0xFFFF;

  /// (Re)computes root, BFS levels, tree membership, up/down labels and the
  /// switch graph over the links still alive. `allow_partial` tolerates
  /// disconnected nodes (post-failure); the constructor passes false so a
  /// malformed topology still fails loudly.
  void rebuild(bool allow_partial);
  /// (node, phase) BFS from `from_sw` over the switch graph into the search
  /// scratch, keeping preds for path queries; a no-op when the last search
  /// already started there.
  void search_from(NodeId from_sw) const;
  /// Allocates switch index `i`'s hop row (all kNoHops) unless it exists;
  /// true if the caller must fill it.
  bool claim_hop_row(std::int32_t i) const;
  /// One bit-parallel (node, phase) BFS filling the claimed rows of
  /// `count` <= 64 distinct source switch indices.
  void hop_row_pass(const std::int32_t* sources, std::size_t count) const;
  /// Arcs of the shortest legal path from_sw -> to_sw, in path order, read
  /// from the preds of a search from `from_sw`. Throws if none survives.
  const std::vector<std::int32_t>& legal_path(NodeId from_sw,
                                              NodeId to_sw) const;
  [[nodiscard]] std::vector<PortId> path_ports(
      const std::vector<std::int32_t>& arcs) const;
  [[nodiscard]] static std::uint64_t pair_key(HostId src, HostId dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(dst);
  }

  const Topology& topo_;
  NodeId root_ = kNoNode;
  NodeId preferred_root_ = kNoNode;  // survives rebuilds while reachable
  bool tree_links_only_ = false;
  std::vector<int> level_override_;  // empty = BFS-distance labels
  std::vector<int> levels_;       // by NodeId
  std::vector<NodeId> up_end_;    // by LinkId
  std::vector<bool> on_tree_;     // by LinkId
  std::vector<bool> link_dead_;   // by LinkId
  std::int64_t links_failed_ = 0;
  // Switch graph in CSR form: switch i's arcs are
  // arcs_[arc_begin_[i] .. arc_begin_[i + 1]), in port order (the BFS
  // neighbour order, which fixes every tie-break).
  std::vector<std::int32_t> sw_index_;  // by NodeId; -1 for hosts
  std::vector<NodeId> sw_node_;         // by switch index
  std::vector<std::int32_t> arc_begin_;
  std::vector<Arc> arcs_;
  // Search scratch, by state 2 * switch index + phase (phase 0 = may still
  // go up, 1 = has gone down). Reused by every search; a rebuild resets
  // searched_from_ so the next query searches the new graph.
  mutable NodeId searched_from_ = kNoNode;
  mutable std::vector<std::int32_t> dist_;
  mutable std::vector<std::int32_t> pred_state_;
  mutable std::vector<std::int32_t> pred_arc_;
  mutable std::vector<std::int32_t> queue_;
  mutable std::vector<std::int32_t> path_;
  // Hop-row pass scratch. Bit k of a mask stands for the pass's source k:
  // row_seen_ by state (sources that reached it), row_next_ by state (sources
  // reaching it at the next level; all zero between levels), row_done_ by
  // switch (sources whose row entry is written). The wave lists the states
  // first reached at the current level with their fresh sources.
  struct WaveState {
    std::int32_t state = 0;
    std::uint64_t fresh = 0;
  };
  mutable std::vector<std::uint64_t> row_seen_;
  mutable std::vector<std::uint64_t> row_next_;
  mutable std::vector<std::uint64_t> row_done_;
  mutable std::vector<WaveState> wave_;
  mutable std::vector<std::int32_t> next_wave_;
  mutable std::vector<std::int32_t> row_sources_;
  // hop_rows_[i]: switch-to-switch hops of the shortest legal path from
  // switch i to every switch (kNoHops if none); empty until asked for.
  // rebuild() drops the rows and the per-pair routes so retransmissions
  // pick up the recomputed paths.
  mutable std::vector<std::vector<std::uint16_t>> hop_rows_;
  mutable std::unordered_map<std::uint64_t, SourceRoute> route_cache_;
};

}  // namespace wormcast

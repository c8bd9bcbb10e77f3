// Tree-strategy ablation sweep (Issue 8 tentpole).
//
// Section 3 serializes every switch-level multicast through one spanning
// tree: the root switch carries a share of every worm. This bench measures
// how the pluggable strategies spread that load: for each topology x group
// shape x strategy it drives a fixed, deterministic burst of switch-level
// multicasts through an otherwise idle fabric and reports
//
//   throughput          delivered payload bytes per byte-time
//   completion_mean     whole-group completion latency (byte-times)
//   peak_switch_share   hottest switch's share of measured egress bytes
//   root_share          the general up/down root's share of that egress
//   stretch             mean planned path length / shortest legal path
//   worms_per_mcast     partitions (worms) per multicast plan
//
// All strategies run under the interrupt switch scheme (scheme (b)): the
// load-aware planner emits off-tree branches and the multi-root planner
// mixes trees, either of which voids idle-fill's single-tree deadlock
// argument; interrupt fragments stay deadlock-safe on any legal up/down
// path set. Send schedules, group draws and irregular topologies are pure
// functions of the point index, so rows are bit-identical at any --jobs.
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"
#include "traffic/groups.h"

using namespace wormcast;

namespace {

constexpr std::uint64_t kBaseSeed = 29;
constexpr std::int64_t kPayload = 1'024;
constexpr Time kSendGap = 600;        // byte-times between successive sends
constexpr Time kPhaseDrain = 400'000; // settle budget after each burst

constexpr const char* kTopoNames[] = {"torus8x8", "shufflenet23", "rmesh16"};

struct GroupShape {
  int size;
  int count;
};
constexpr GroupShape kShapes[] = {{8, 4}, {8, 12}, {16, 4}, {16, 12}};
constexpr GroupShape kQuickShapes[] = {{8, 4}};

constexpr TreeStrategyKind kStrategies[] = {
    TreeStrategyKind::kSingleRoot,
    TreeStrategyKind::kPartitionMerge,
    TreeStrategyKind::kLoadAware,
    TreeStrategyKind::kMultiRoot,
};

Topology build_topo(int t, std::uint64_t shape_seed) {
  if (t == 0) return make_torus(8, 8);
  if (t == 1) return make_bidir_shufflenet(2, 3);
  // Same irregular mesh for every strategy at this (shape, rep): seeded by
  // the shape, never by the strategy, or the comparison would be across
  // different fabrics.
  RandomStream rng(RandomStream::seed_mix(0x7EE57090ull, shape_seed));
  return make_random_mesh(16, 3.0, rng);
}

/// Depth (ports traversed from the source's switch, host link included) of
/// every host delivered by `t`, starting at switch `at`.
void walk_branch(const Topology& topo, NodeId at, const McastRouteTree& t,
                 int depth, std::unordered_map<HostId, int>* out) {
  const NodeId next = topo.neighbor_via(at, t.port);
  const TopoNode& nn = topo.node(next);
  if (nn.kind == NodeKind::kHost) {
    (*out)[nn.host] = depth + 1;
    return;
  }
  for (const McastRouteTree& c : t.children)
    walk_branch(topo, next, c, depth + 1, out);
}

enum Metric {
  kThroughput,
  kCompletionMean,  // unsampled when no multicast completed
  kPeakSwitchShare,
  kRootShare,
  kStretch,
  kWormsPerMcast,
  kOutstanding,
};

bench::Sample run_point(int topo_idx, GroupShape shape,
                        TreeStrategyKind strat, int rep, int rounds,
                        std::uint64_t seed, const bench::Point& pt,
                        const std::string& label) {
  const std::uint64_t shape_seed =
      RandomStream::seed_mix(kBaseSeed, (std::uint64_t(topo_idx) << 16) |
                              (std::uint64_t(shape.size) << 8) |
                              std::uint64_t(shape.count)) +
      std::uint64_t(rep);
  Topology topo = build_topo(topo_idx, shape_seed);
  const int n_hosts = topo.num_hosts();
  const int gsize = shape.size < n_hosts ? shape.size : n_hosts;
  RandomStream grng(RandomStream::seed_mix(shape_seed, 0x6709ull));
  std::vector<MulticastGroupSpec> groups =
      make_random_groups(shape.count, gsize, n_hosts, grng);

  ExperimentConfig cfg;
  cfg.switch_mcast.scheme = SwitchMcastScheme::kInterrupt;
  cfg.tree.kind = strat;
  cfg.seed = seed;
  Network net(std::move(topo), groups, cfg);
  if (pt.checks->enabled()) net.enable_tracing(pt.trace_cap);
  bench::arm_watchdog(net);

  const Topology& t = net.topology();
  const int n_groups = static_cast<int>(groups.size());
  const auto src_of = [&](int round, GroupId g) {
    const auto& order = net.tables().circuit(g).order();
    return order[std::size_t(round) % order.size()];
  };

  // Priming burst: two rounds so the load-aware probe sees real forwarding
  // bytes before it re-plans. Excluded from the measurement window.
  Time now = 0;
  for (int r = 0; r < 2; ++r)
    for (GroupId g = 0; g < n_groups; ++g) {
      const HostId src = src_of(r, g);
      net.sim().at(now, [&net, src, g] {
        (void)net.send_switch_multicast(src, g, kPayload);
      });
      now += kSendGap;
    }
  const Time t0 = now + kPhaseDrain;
  net.run_until(t0);
  (void)net.replan_trees();

  // Egress baseline at the window start, per switch.
  std::vector<std::int64_t> base(static_cast<std::size_t>(t.num_nodes()), 0);
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    if (t.node(n).kind == NodeKind::kSwitch)
      base[std::size_t(n)] = net.fabric().node_egress_bytes(n);
  net.metrics().set_window_start(t0);

  // Measured burst: `rounds` rounds, every group sends once per round from
  // a rotating member, sends kSendGap apart (dense enough to overlap).
  now = t0;
  std::int64_t expected_payload = 0;
  for (int r = 0; r < rounds; ++r)
    for (GroupId g = 0; g < n_groups; ++g) {
      const HostId src = src_of(r + 2, g);
      net.sim().at(now, [&net, src, g] {
        (void)net.send_switch_multicast(src, g, kPayload);
      });
      now += kSendGap;
      expected_payload +=
          kPayload * (net.tables().circuit(g).size() - 1);
    }
  // Adaptive drain: the heaviest shapes are congestion-bound, not stuck, so
  // keep extending the window while messages are still completing. A true
  // deadlock makes no progress and exits after one extra chunk (and trips
  // the watchdog); only then does the point flag OUTSTANDING.
  net.run_until(now + kPhaseDrain);
  for (int chunk = 0; chunk < 16 && net.metrics().outstanding() > 0; ++chunk) {
    const std::int64_t before = net.metrics().outstanding();
    net.run_until(net.sim().now() + kPhaseDrain);
    if (net.metrics().outstanding() >= before) break;  // no progress: stuck
  }

  bench::Sample out(kOutstanding + 1, 0.0);
  out[kOutstanding] =
      static_cast<double>(net.metrics().outstanding_messages().size());
  const Time t_end = net.metrics().last_completion_time();
  if (t_end > t0)
    out[kThroughput] =
        static_cast<double>(net.metrics().payload_delivered()) /
        static_cast<double>(t_end - t0);
  const SampleSet& comp = net.metrics().mcast_completion();
  out[kCompletionMean] = std::nullopt;
  if (comp.count() > 0) out[kCompletionMean] = comp.mean();

  std::int64_t total = 0, peak = 0, root_bytes = 0;
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    if (t.node(n).kind != NodeKind::kSwitch) continue;
    const std::int64_t d = net.fabric().node_egress_bytes(n) - base[std::size_t(n)];
    total += d;
    if (d > peak) peak = d;
    if (n == net.routing().root()) root_bytes = d;
  }
  if (total > 0) {
    out[kPeakSwitchShare] =
        static_cast<double>(peak) / static_cast<double>(total);
    out[kRootShare] =
        static_cast<double>(root_bytes) / static_cast<double>(total);
  }

  // Plan-shape metrics from the strategy's own plans (post-replan state).
  double stretch_sum = 0.0;
  std::int64_t stretch_n = 0, worms = 0;
  for (GroupId g = 0; g < n_groups; ++g) {
    const auto& order = net.tables().circuit(g).order();
    const HostId src = order.front();
    const McastPlan plan = net.tree_strategy().plan_multicast(g, src, order);
    worms += static_cast<std::int64_t>(plan.partitions.size());
    std::unordered_map<HostId, int> depth;
    const NodeId src_sw = t.switch_of_host(src);
    for (const McastPartition& part : plan.partitions)
      for (const McastRouteTree& b : part.branches)
        walk_branch(t, src_sw, b, 0, &depth);
    for (const auto& [dst, d] : depth) {
      const int base_ports =
          static_cast<int>(net.routing().route(src, dst).ports().size());
      if (base_ports > 0) {
        stretch_sum += static_cast<double>(d) / base_ports;
        ++stretch_n;
      }
    }
  }
  if (stretch_n > 0)
    out[kStretch] = stretch_sum / static_cast<double>(stretch_n);
  if (n_groups > 0)
    out[kWormsPerMcast] = static_cast<double>(worms) / n_groups;

  pt.checks->collect(pt.slot, net, label);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      bench::kQuick | bench::kJobs | bench::kReps | bench::kTraceCap |
          bench::kCheck | bench::kStrategy);
  const int rounds = args.quick ? 4 : 8;
  const int n_topos = args.quick ? 2 : 3;  // quick: torus + shufflenet
  const std::span<const GroupShape> shapes =
      args.quick ? std::span<const GroupShape>(kQuickShapes) : kShapes;

  std::printf("# Tree-strategy ablation: %d rounds x group burst per point, "
              "interrupt switch scheme, payload %lld B\n",
              rounds, static_cast<long long>(kPayload));

  // --strategy restricts the sweep to one builder; per-point seeds are
  // keyed by (topo, shape, strategy, rep), so a restricted run's rows are
  // byte-identical to the same rows of the full sweep.
  std::vector<TreeStrategyKind> strategies(std::begin(kStrategies),
                                           std::end(kStrategies));
  if (args.strategy_explicit) strategies = {args.strategy};

  // Every (topo, shape, strategy, rep) task is its own row.
  struct Task {
    int topo;
    GroupShape shape;
    TreeStrategyKind strat;
    int rep;
    std::string label;
  };
  std::vector<Task> tasks;
  for (int t = 0; t < n_topos; ++t)
    for (const GroupShape shape : shapes)
      for (const TreeStrategyKind strat : strategies)
        for (int rep = 0; rep < args.reps; ++rep)
          tasks.push_back({t, shape, strat, rep,
                           bench::format("%s/%s/g%dx%d/rep%d", kTopoNames[t],
                                         tree_strategy_name(strat), shape.size,
                                         shape.count, rep)});

  bench::Sweep sweep{.xs = tasks.size()};
  sweep.point = [&](const bench::Point& p) {
    const Task& t = tasks[p.x];
    const std::size_t stable_point =
        ((std::size_t(t.topo) * 100 + std::size_t(t.shape.size)) * 100 +
         std::size_t(t.shape.count)) *
            100 +
        std::size_t(t.strat) * 10 + std::size_t(t.rep);
    return run_point(t.topo, t.shape, t.strat, t.rep, rounds,
                     harness::point_seed(kBaseSeed, stable_point), p,
                     t.label);
  };
  bool lost_any = false;
  const auto table = [&](std::size_t x, const bench::Results& r) {
    const Task& t = tasks[x];
    const auto v = [&](Metric m) { return r.mean(x, 0, m); };
    const bool outstanding = v(kOutstanding) > 0;
    lost_any |= outstanding;
    return bench::Cells{
        bench::text_col("topo,strategy,gsize,gcount,rep", t.label),
        bench::json_col("topo", t.topo),
        bench::json_col("strategy", static_cast<int>(t.strat)),
        bench::json_col("group_size", t.shape.size),
        bench::json_col("group_count", t.shape.count),
        bench::json_col("rep", t.rep),
        bench::col("throughput", "%.4f", v(kThroughput)),
        bench::col("completion_mean", "%.0f", v(kCompletionMean),
                   r.stat(x, 0, kCompletionMean).count() > 0),
        bench::col("peak_switch_share", "%.3f", v(kPeakSwitchShare)),
        bench::col("root_share", "%.3f", v(kRootShare)),
        bench::col("stretch", "%.3f", v(kStretch)),
        bench::col("worms_per_mcast", "%.2f", v(kWormsPerMcast)),
        bench::json_col("outstanding", v(kOutstanding)),
        bench::text_col("", outstanding ? "OUTSTANDING" : "")};
  };
  sweep.views = {{"tree_strategies", "", table}};
  sweep.finish = [&](bench::JsonBench& json, const bench::Results&) {
    json.set_meta("rounds", double(rounds));
    if (!lost_any) return 0;
    std::fprintf(stderr, "# ERROR: some points left messages outstanding\n");
    return 1;
  };
  return bench::run_sweep(args, sweep);
}

// Large-fabric scaling bench: thousand-host networks driven end to end,
// sweeping the sharded engine's executor count on each fabric.
//
// Two fabrics, both 1024 hosts:
//
//  - a 32x32 torus, one host per switch (the hot-path bench's scale
//    point, grown to a campus-length LAN), and
//  - a 3-stage folded Clos: 16 spines x 32 leaves x 32 hosts per leaf,
//    routed up/down with stage labels (net/topologies.h) so every spine
//    carries traffic instead of just the root.
//
// Links are 40 byte-times long — ~100 m of cable at 640 Mb/s (see
// net/topology.h's 25 m ~ 10 bt rationale), the building-scale runs the
// paper's Section 7 multi-campus discussion contemplates. The propagation
// delay is also the sharded engine's lookahead window, so these fabrics
// run ~8x more simulation per synchronization barrier than the 5-bt
// testbed links would.
//
// Workload: every host multicasts 2 KB packets to its own 8-host group on
// a fixed period — busy enough that channel/switch events dominate the
// window loop, group-local so a packet's Hamiltonian circuit stays short.
//
// Each (fabric, shards) point is one run. The physics columns of every
// row are bit-identical across the shards axis (the in-run parallelism
// contract; the CI shard gate diffs them), so the interesting outputs are
// the meta walls: shards4_speedup_wall_<fabric> is the acceptance number
// for the sharded engine (>= 2x at 4 executors on an 8-core runner; a
// starved 1-2 core container will show ~1x and that is expected).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "myrinet_testbed.h"

using namespace wormcast;

namespace {

enum Metric { kThroughput, kLoss, kSimBytes, kSimWallMs };

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      bench::kQuick | bench::kJobs | bench::kTraceCap | bench::kCheck);
  const Time span = args.quick ? 1'000'000 : 6'000'000;
  const Time link_delay = 40;  // byte-times; ~100 m of cable
  const std::int64_t packet = 2048;
  const int group_size = 8;
  const Time period = args.quick ? 80'000 : 40'000;

  std::vector<int> clos_levels;
  const Topology torus = make_torus(32, 32, 1, link_delay, link_delay);
  const Topology clos =
      make_clos(16, 32, 32, link_delay, link_delay, &clos_levels);
  struct Fabric {
    const char* name;
    const Topology* topo;
    const std::vector<int>* levels;
  };
  const std::vector<Fabric> fabrics = {{"torus32", &torus, nullptr},
                                       {"clos16x32", &clos, &clos_levels}};
  const std::vector<int> shard_counts = {1, 2, 4};
  const std::size_t n_shards = shard_counts.size();

  std::printf("# Large fabrics: 1024 hosts (%s), %lld-byte packets to "
              "%d-host groups every %lld byte-times, %lld byte-times, "
              "%lld-bt links\n",
              "32x32 torus; 16x32x32 Clos", static_cast<long long>(packet),
              group_size, static_cast<long long>(period),
              static_cast<long long>(span), static_cast<long long>(link_delay));

  // Each (fabric, shards) point is its own row.
  std::vector<std::pair<std::string, double>> counters;  // point 0's dump
  bench::Sweep sweep{.xs = fabrics.size() * n_shards};
  sweep.point = [&](const bench::Point& p) {
    const Fabric& f = fabrics[p.x / n_shards];
    const int shards = shard_counts[p.x % n_shards];
    bench::TestbedOptions opts;
    opts.topology = f.topo;
    opts.topology_levels = f.levels;
    opts.senders = f.topo->num_hosts();
    opts.packet_size = packet;
    opts.span = span;
    opts.group_size = group_size;
    opts.inject_period = period;
    opts.shards = shards;
    opts.trace_cap = p.trace_cap;
    opts.point = &p;
    opts.check_label = bench::format("%s shards=%d", f.name, shards);
    bench::TestbedResult r = bench::run_testbed(opts);
    if (p.slot == 0) counters = std::move(r.counters);
    return bench::Sample{r.throughput_mbps, r.loss_rate, r.bytes_on_wire,
                         r.sim_wall_ms};
  };
  bool all_ok = true;
  const auto table = [&](std::size_t x, const bench::Results& r) {
    const std::size_t fi = x / n_shards;
    const Fabric& f = fabrics[fi];
    // Physics must not move along the shards axis; restate the contract
    // in-band so a drifting run is visible even without the CI gate, and
    // fail the run on it.
    const auto v = [&](std::size_t row, Metric m) { return r.mean(row, 0, m); };
    const std::size_t base = fi * n_shards;
    const bool ok = v(x, kThroughput) == v(base, kThroughput) &&
                    v(x, kLoss) == v(base, kLoss) &&
                    v(x, kSimBytes) == v(base, kSimBytes);
    all_ok &= ok;
    return bench::Cells{
        bench::Cell{"fabric", "%s", double(fi), true, bench::kBoth, f.name},
        bench::col("shards", "%lld", shard_counts[x % n_shards]),
        bench::col("hosts", "%lld", f.topo->num_hosts()),
        bench::col("switches", "%lld", f.topo->num_switches()),
        bench::col("throughput_mbps", "%.2f", v(x, kThroughput)),
        bench::col("loss_rate", "%.4f", v(x, kLoss)),
        bench::col("sim_bytes", "%lld", v(x, kSimBytes)),
        bench::col("windows_ok", "%lld", ok ? 1.0 : 0.0)};
  };
  sweep.views = {{"large_fabric", "", table}};
  // Wall-clock lives in meta only (rows are diffed across runs and shard
  // counts): the sharded speedup at each fabric, from the event-loop wall.
  sweep.finish = [&](bench::JsonBench& json, const bench::Results& r) {
    for (std::size_t fi = 0; fi < fabrics.size(); ++fi) {
      const double base = r.mean(fi * n_shards, 0, kSimWallMs);
      for (std::size_t si = 1; si < n_shards; ++si) {
        const double wall = r.mean(fi * n_shards + si, 0, kSimWallMs);
        const double speedup = bench::ratio(base, wall);
        json.set_meta("shards" + std::to_string(shard_counts[si]) +
                          "_speedup_wall_" + fabrics[fi].name,
                      speedup);
        std::printf("# %s: --shards %d speedup %.2fx (%.0f ms -> %.0f ms)\n",
                    fabrics[fi].name, shard_counts[si], speedup, base, wall);
      }
    }
    json.set_counters(counters);
    if (all_ok) return 0;
    std::printf("# WARNING: shard counts disagree on results — sharded "
                "engine bug!\n");
    return 1;
  };
  return bench::run_sweep(args, sweep);
}

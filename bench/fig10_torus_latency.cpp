// Figure 10: average multicast latency vs offered load on an 8x8 torus.
//
// Paper setup (Section 7.1): 64 hosts, 10 multicast groups of 10 random
// members, multicast proportion 0.10, Poisson arrivals, geometric worm
// lengths with mean 400 bytes. The x-axis is the *output-link utilization
// per host*, which includes the forwarded multicast copies (with group
// size 10 and proportion 0.10 the transmitted traffic is ~1.8x the
// generated traffic); we sweep the generation-rate knob and report the
// measured utilization like the paper does. Three schemes: Hamiltonian
// circuit store-and-forward, Hamiltonian circuit cut-through, rooted tree
// store-and-forward.
//
// Expected shape (paper): tree < Hamiltonian-S&F everywhere; Hamiltonian
// cut-through is lowest at light load and loses its edge at heavier load
// (converging to S&F); latencies blow up approaching saturation
// (~0.11-0.12 utilization).
//
// Each (load, scheme) point is an independent Network on a SweepRunner
// pool (--jobs N), and the CSV/JSON rows are bit-identical at any job
// count.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"
#include "sim/random.h"
#include "traffic/groups.h"

using namespace wormcast;

namespace {

enum Metric { kUtilization, kLatency };

bench::Sample run_point(Scheme scheme, double gen_load, std::uint64_t seed,
                        Time warmup, Time measure) {
  RandomStream group_rng(900 + seed);  // same groups for all schemes/loads
  auto groups = make_random_groups(10, 10, 64, group_rng);
  ExperimentConfig cfg = bench::sim_defaults(scheme, gen_load, 0.10, seed);
  Network net(make_torus(8, 8), std::move(groups), cfg);
  net.run(warmup, measure, /*drain_cap=*/100'000);
  const auto s = net.summary();
  return {s.measured_utilization, s.mcast_latency_mean};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, bench::kQuick | bench::kJobs);
  const Time warmup = args.quick ? 20'000 : 50'000;
  const Time measure = args.quick ? 60'000 : 200'000;

  std::printf("# Figure 10: average multicast latency (byte-times) vs offered "
              "load, 8x8 torus\n");
  std::printf("# 10 groups x 10 members, multicast proportion 0.10, mean worm "
              "400 B\n");
  std::printf("# columns: per-scheme (measured output-link utilization, "
              "latency)\n");
  const std::vector<double> loads =
      args.quick ? std::vector<double>{0.025, 0.045, 0.06}
                 : std::vector<double>{0.022, 0.028, 0.034, 0.040, 0.046,
                                       0.052, 0.058, 0.062, 0.066};
  // The paper's "rooted tree" curve is the broadcast-on-tree variant
  // (Section 6's lower-latency alternative; store-and-forward at each
  // member, two buffer classes, no total ordering).
  const Scheme schemes[] = {Scheme::kHamiltonianSF, Scheme::kHamiltonianCT,
                            Scheme::kTreeBroadcast};
  const char* const names[] = {"hc_sf", "hc_ct", "tree"};

  bench::Sweep sweep{.xs = loads.size(), .series = std::size(schemes)};
  sweep.point = [&](const bench::Point& p) {
    return run_point(schemes[p.series], loads[p.x], 1, warmup, measure);
  };
  const auto table = [&](std::size_t x, const bench::Results& r) {
    bench::Cells row{bench::col("gen_load", "%.3f", loads[x])};
    for (std::size_t s = 0; s < std::size(names); ++s) {
      const std::string name = names[s];
      row.push_back(
          bench::col("util_" + name, "%.3f", r.mean(x, s, kUtilization)));
      row.push_back(bench::col("lat_" + name, "%.0f", r.mean(x, s, kLatency)));
    }
    return row;
  };
  sweep.views = {{"fig10_torus_latency", "", table}};
  return bench::run_sweep(args, sweep);
}

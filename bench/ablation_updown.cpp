// Ablation B: the cost of routing restrictions.
//
// Scheme (a) of Section 3 requires *every* worm to stay on the up/down
// spanning tree, giving up the crosslinks. The paper warns the available
// bandwidth is "much reduced". This bench measures unicast saturation:
// delivered throughput and latency with full up/down routing vs
// spanning-tree-only routing on an 8x8 torus.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"

using namespace wormcast;

namespace {

enum Metric { kThroughput, kLatency };

bench::Sample run_case(bool tree_only, double load, Time warmup,
                       Time measure) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.traffic.offered_load = load;
  cfg.traffic.multicast_fraction = 0.0;  // pure unicast
  cfg.routing.tree_links_only = tree_only;
  Network net(make_torus(8, 8), {}, cfg);
  net.run(warmup, measure, /*drain_cap=*/0);
  const auto s = net.summary();
  return {s.throughput_per_host, s.unicast_latency_mean};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, bench::kQuick | bench::kJobs);
  const Time warmup = args.quick ? 10'000 : 30'000;
  const Time measure = args.quick ? 50'000 : 150'000;
  std::printf("# Ablation B: full up/down routing vs spanning-tree-only "
              "(scheme (a)'s restriction), unicast on 8x8 torus\n");
  const std::vector<double> loads =
      args.quick ? std::vector<double>{0.05, 0.15}
                 : std::vector<double>{0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20};
  const char* const names[] = {"updown", "tree_only"};

  bench::Sweep sweep{.xs = loads.size(), .series = 2};
  sweep.point = [&](const bench::Point& p) {
    return run_case(p.series == 1, loads[p.x], warmup, measure);
  };
  const auto table = [&](std::size_t x, const bench::Results& r) {
    bench::Cells row{bench::col("offered_load", "%.2f", loads[x])};
    for (std::size_t s = 0; s < 2; ++s) {
      const std::string n = names[s];
      row.push_back(bench::col(n + "_thr", "%.4f", r.mean(x, s, kThroughput)));
      row.push_back(bench::col(n + "_lat", "%.0f", r.mean(x, s, kLatency)));
    }
    return row;
  };
  sweep.views = {{"", "", table}};
  return bench::run_sweep(args, sweep);
}

// Ablation C: cut-through vs store-and-forward at the adapter as a
// function of link propagation delay (Sections 5-6: the tree "helps
// reduce latency ... when propagation delays are non-negligible", while
// cut-through's advantage shrinks once worms must be buffered anyway).
//
// One multicast on an idle network: latency by scheme for propagation
// delays from machine-room (5 bt) to campus/backbone (1000 bt) scale.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"

using namespace wormcast;

namespace {

double one_shot_latency(Scheme scheme, Time delay) {
  MulticastGroupSpec group;
  group.id = 0;
  group.members = {0, 2, 4, 5, 7, 8, 10, 13};
  ExperimentConfig cfg;
  cfg.protocol.scheme = scheme;
  Network net(make_torus(4, 4, 1, delay, kDefaultLinkDelay), {group}, cfg);
  Demand d;
  d.src = 4;
  d.multicast = true;
  d.group = 0;
  d.length = 1024;
  net.inject(d);
  net.run_to_quiescence();
  return net.metrics().mcast_completion().mean();
}

}  // namespace

int main(int argc, char** argv) {
  // Every point is one multicast on an idle network, so the sweep is
  // already quick-sized: --quick runs the same points.
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, bench::kQuick | bench::kJobs);
  std::printf("# Ablation C: multicast completion latency (byte-times) vs "
              "link propagation delay; 8-member group, 1 KB, idle 4x4 torus\n");
  const std::vector<Time> delays = {5, 50, 200, 500, 1000};
  const Scheme schemes[] = {Scheme::kHamiltonianSF, Scheme::kHamiltonianCT,
                            Scheme::kTreeSF, Scheme::kTreeBroadcast};
  const char* const names[] = {"hamiltonian_sf", "hamiltonian_ct", "tree_sf",
                               "tree_broadcast"};

  bench::Sweep sweep{.xs = delays.size(), .series = std::size(schemes)};
  sweep.point = [&](const bench::Point& p) {
    return bench::Sample{one_shot_latency(schemes[p.series], delays[p.x])};
  };
  const auto table = [&](std::size_t x, const bench::Results& r) {
    bench::Cells row{bench::col("prop_delay", "%lld", delays[x])};
    for (std::size_t s = 0; s < std::size(names); ++s)
      row.push_back(bench::col(names[s], "%.0f", r.mean(x, s, 0)));
    return row;
  };
  sweep.views = {{"", "", table}};
  return bench::run_sweep(args, sweep);
}

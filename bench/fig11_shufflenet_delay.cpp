// Figure 11: average delay vs offered load for varying multicast
// proportions on a 24-node bidirectional shufflenet.
//
// Paper setup (Section 7.1): (p=2, k=3) bidirectional shufflenet, 24
// switches with one host each; 4 multicast groups of 6 members; link
// propagation delay 1000 byte-times (an optical-backbone setting); mean
// worm 400 bytes; multicast proportion in {0.05, 0.10, 0.15, 0.20};
// offered load (generation rate per host) 0.03 - 0.07.
//
// Expected shape (paper): the tree sits below the Hamiltonian circuit for
// every proportion; delay grows with the multicast proportion (each
// multicast is re-transmitted several times, so the actual throughput
// rises with the proportion); both schemes carry the same total traffic.
//
// Each (load, proportion, scheme) point is an independent Network on a
// SweepRunner pool (--jobs N), and the CSV/JSON rows are bit-identical at
// any job count.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"
#include "sim/random.h"
#include "traffic/groups.h"

using namespace wormcast;

namespace {

constexpr Time kPropDelay = 1000;  // byte-times per link (Section 7.1)

double run_point(Scheme scheme, double load, double proportion,
                 std::uint64_t seed, Time warmup, Time measure) {
  RandomStream group_rng(1100 + seed);
  auto groups = make_random_groups(4, 6, 24, group_rng);
  ExperimentConfig cfg = bench::sim_defaults(scheme, load, proportion, seed);
  // The 1000 byte-time propagation delay applies to the backbone links;
  // hosts sit next to their switch (default short attachment).
  Network net(make_bidir_shufflenet(2, 3, kPropDelay, kDefaultLinkDelay),
              std::move(groups), cfg);
  net.run(warmup, measure, /*drain_cap=*/200'000);
  return net.summary().mcast_latency_mean;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, bench::kQuick | bench::kJobs);
  const Time warmup = args.quick ? 30'000 : 80'000;
  const Time measure = args.quick ? 80'000 : 300'000;

  std::printf("# Figure 11: average multicast delay (byte-times) vs offered "
              "load, 24-node bidirectional shufflenet\n");
  std::printf("# 4 groups x 6 members, propagation delay 1000 byte-times, "
              "mean worm 400 B\n");
  const std::vector<double> loads =
      args.quick ? std::vector<double>{0.03, 0.05, 0.065}
                 : std::vector<double>{0.030, 0.035, 0.040, 0.045, 0.050,
                                       0.055, 0.060, 0.065, 0.070};
  const std::vector<double> props{0.05, 0.10, 0.15, 0.20};

  // Series = (proportion, scheme); even = tree, odd = Hamiltonian circuit.
  bench::Sweep sweep{.xs = loads.size(), .series = props.size() * 2};
  sweep.point = [&](const bench::Point& p) {
    const Scheme scheme = p.series % 2 == 0 ? Scheme::kTreeBroadcast
                                            : Scheme::kHamiltonianSF;
    return bench::Sample{run_point(scheme, loads[p.x], props[p.series / 2], 1,
                                   warmup, measure)};
  };
  const auto table = [&](std::size_t x, const bench::Results& r) {
    bench::Cells row{bench::col("offered_load", "%.3f", loads[x])};
    for (std::size_t s = 0; s < sweep.series; ++s)
      row.push_back(bench::col(bench::format("prop%.2f_%s", props[s / 2],
                                             s % 2 == 0 ? "tree" : "hc"),
                               "%.0f", r.mean(x, s, 0)));
    return row;
  };
  sweep.views = {{"fig11_shufflenet_delay", "", table}};
  return bench::run_sweep(args, sweep);
}

// Ablation E: the paper's optimistic reservation vs the [VLB96]
// centralized credit scheme (Section 1's related-work comparison).
//
// The paper's claims to verify: the credit scheme pays a request/grant
// round trip on every multicast (higher latency, especially at light
// load), and its buffers are tied up until the gathering token returns
// them (throughput caps earlier as the token interval grows); the
// optimistic scheme acquires buffers as it goes.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"
#include "sim/random.h"
#include "traffic/groups.h"

using namespace wormcast;

namespace {

double run_case(Scheme scheme, double load, Time token_interval, Time warmup,
                Time measure) {
  RandomStream grng(501);
  auto groups = make_random_groups(4, 6, 16, grng);
  ExperimentConfig cfg;
  cfg.protocol.scheme = scheme;
  cfg.protocol.max_tree_fanout = 2;  // binary trees, as [VLB96] uses
  cfg.protocol.token_interval = token_interval;
  cfg.protocol.credits_per_host = 4;
  cfg.protocol.pool_bytes = 4 * 2 * 9 * 1024;
  cfg.traffic.offered_load = load;
  cfg.traffic.multicast_fraction = 0.3;
  Network net(make_torus(4, 4), std::move(groups), cfg);
  net.run(warmup, measure, /*drain_cap=*/1'500'000);
  return net.summary().mcast_latency_mean;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, bench::kQuick | bench::kJobs);
  const Time warmup = args.quick ? 10'000 : 30'000;
  const Time measure = args.quick ? 60'000 : 200'000;

  std::printf("# Ablation E: optimistic reservation (tree, serialized) vs "
              "[VLB96] centralized credits; 4 groups x 6 members, 4x4 "
              "torus, binary trees\n");
  const std::vector<double> loads =
      args.quick ? std::vector<double>{0.01, 0.03}
                 : std::vector<double>{0.005, 0.01, 0.02, 0.03, 0.04};
  // Series 0 is the optimistic tree scheme; the rest are credit schemes.
  const Time tokens[] = {2'000, 2'000, 10'000, 40'000};
  const char* const names[] = {"optimistic_lat", "credit_tok2k_lat",
                               "credit_tok10k_lat", "credit_tok40k_lat"};

  bench::Sweep sweep{.xs = loads.size(), .series = std::size(tokens)};
  sweep.point = [&](const bench::Point& p) {
    const Scheme scheme =
        p.series == 0 ? Scheme::kTreeSF : Scheme::kCentralizedCredit;
    return bench::Sample{
        run_case(scheme, loads[p.x], tokens[p.series], warmup, measure)};
  };
  const auto table = [&](std::size_t x, const bench::Results& r) {
    bench::Cells row{bench::col("offered_load", "%.3f", loads[x])};
    for (std::size_t s = 0; s < std::size(names); ++s)
      row.push_back(bench::col(names[s], "%.0f", r.mean(x, s, 0)));
    return row;
  };
  sweep.views = {{"", "", table}};
  return bench::run_sweep(args, sweep);
}

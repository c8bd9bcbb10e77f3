// Loss-recovery sweep: delivered fraction and tail latency vs injected
// link loss on the Section 8.2 testbed, for the Hamiltonian circuit and
// rooted-tree reservation schemes.
//
// Worm kills and control-worm loss are applied at the same per-link rate;
// senders recover via ACK timeouts with capped exponential backoff and a
// bounded retry budget. Expected shape: delivered fraction starts at 1.0
// and decays monotonically as loss grows (retry budget exhaustion), while
// p99 per-destination latency climbs as more deliveries need one or more
// timeout+retransmit rounds.
//
// Sweep points (loss rate x scheme x replication) run on a SweepRunner
// pool (--jobs N). --reps N runs N independent seeds per point
// (harness::point_seed-derived; rep 0 is the historical single-seed run)
// and merges them with RunningStat::merge in replication order, so the
// reported means are identical at any job count.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"

using namespace wormcast;

namespace {

constexpr std::uint64_t kBaseSeed = 7;

enum Metric {
  kDelivered,  // completed / created
  kP99,        // per-destination mcast latency; unsampled without delivery
  kRetx,       // retransmissions per message
};

bench::Sample run_lossy(Scheme scheme, double loss, Time measure,
                        const bench::Point& pt, const std::string& label) {
  ExperimentConfig cfg = bench::sim_defaults(scheme, 0.05, 0.3, pt.seed);
  cfg.protocol.ack_timeout = 20'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  cfg.protocol.max_attempts = 8;
  cfg.faults.worm_kill_rate = loss;
  cfg.faults.ctrl_loss_rate = loss;
  MulticastGroupSpec group;
  group.id = 0;
  for (HostId h = 0; h < 8; ++h) group.members.push_back(h);
  Network net(make_myrinet_testbed(), {group}, cfg);
  if (pt.checks->enabled()) net.enable_tracing(pt.trace_cap);
  bench::arm_watchdog(net);
  net.run(/*warmup=*/2'000, measure, /*drain_cap=*/500'000);
  pt.checks->collect(pt.slot, net, label);
  const Network::Summary s = net.summary();
  bench::Sample out{bench::ratio(s.messages_completed, s.messages),
                    std::nullopt, bench::ratio(s.retransmits, s.messages)};
  if (net.metrics().mcast_latency().count() > 0)
    out[kP99] = net.metrics().mcast_latency().percentile(99.0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      bench::kQuick | bench::kJobs | bench::kReps | bench::kTraceCap |
          bench::kCheck);
  const Time measure = args.quick ? 200'000 : 1'500'000;

  std::printf("# Loss recovery on the 8-host testbed: delivered fraction and "
              "p99 latency vs per-link fault rate\n");
  std::printf("# (worm kill + ctrl loss at equal rates; ack_timeout=20k, "
              "max_attempts=8; %d rep(s)/point)\n", args.reps);
  const std::vector<double> rates =
      args.quick ? std::vector<double>{0.0, 0.05, 0.10}
                 : std::vector<double>{0.0, 0.01, 0.02, 0.05, 0.10, 0.15};
  const char* const names[] = {"circuit", "tree"};

  bench::Sweep sweep{.xs = rates.size(), .series = 2,
                     .reps = std::size_t(args.reps), .base_seed = kBaseSeed};
  sweep.point = [&](const bench::Point& p) {
    return run_lossy(p.series == 0 ? Scheme::kHamiltonianSF : Scheme::kTreeSF,
                     rates[p.x], measure, p,
                     bench::format("loss=%.2f scheme=%s rep=%zu", rates[p.x],
                                   names[p.series], p.rep));
  };
  const auto table = [&](std::size_t x, const bench::Results& r) {
    bench::Cells row{bench::col("loss_rate", "%.2f", rates[x])};
    for (std::size_t s = 0; s < 2; ++s) {
      const std::string n = names[s];
      const RunningStat& p99 = r.stat(x, s, kP99);
      row.push_back(
          bench::col(n + "_delivered", "%.4f", r.mean(x, s, kDelivered)));
      row.push_back(
          bench::col(n + "_p99", "%.0f", p99.mean(), p99.count() > 0));
      row.push_back(bench::col(n + "_retx", "%.2f", r.mean(x, s, kRetx)));
    }
    return row;
  };
  sweep.views = {{"fault_recovery", "", table}};
  return bench::run_sweep(args, sweep);
}

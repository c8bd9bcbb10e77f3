// Failure detection + self-healing repair: time from a *silent* crash-stop
// host failure to the completed in-place structure repair (circuit splice,
// tree re-parenting), as a function of the suspicion timeout, on the
// Section 8.2 testbed under steady multicast traffic.
//
// The crash is never announced: survivors must notice it through ACK
// timeouts (active senders) or unanswered liveness probes (idle
// neighbours), accuse the host, and repair around it. Expected shape:
// repair latency tracks the suspicion timeout roughly linearly (the
// detector cannot accuse before the timeout matures), while rerouted
// sends and disrupted messages stay flat — they depend on what was in
// flight at the crash, not on how long detection took.
//
// Sweep points (timeout x scheme x replication) run on a SweepRunner pool
// (--jobs N); --reps N merges N seeds per point with RunningStat::merge.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"

using namespace wormcast;

namespace {

constexpr std::uint64_t kBaseSeed = 11;

enum Metric {
  kRepairLatency,  // crash -> structures healed; unsampled if never detected
  kRerouted,       // sends retargeted by the repair
  kDisrupted,      // messages written off at repair time
  kDelivered,      // completed / created over the whole run
};

bench::Sample run_crash(Scheme scheme, Time suspicion, Time measure,
                        const bench::Point& pt, const std::string& label) {
  // Load 0.02: sustainable by both schemes on this testbed. (The
  // root-serialized tree saturates its root link near 0.05 even without
  // faults — the serializer bottleneck of Section 6 — which would swamp
  // the repair signal this bench measures.)
  ExperimentConfig cfg = bench::sim_defaults(scheme, 0.02, 1.0, pt.seed);
  cfg.protocol.ack_timeout = 10'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  cfg.protocol.max_attempts = 10;
  cfg.protocol.suspicion_timeout = suspicion;
  auto group = make_full_group(8);
  Network net(make_myrinet_testbed(), {group}, cfg);
  if (pt.checks->enabled()) net.enable_tracing(pt.trace_cap);
  bench::arm_watchdog(net);

  const Time crash_at = 2'000 + measure / 2;
  net.crash_host(3, crash_at);
  net.run(/*warmup=*/2'000, measure, /*drain_cap=*/600'000);
  pt.checks->collect(pt.slot, net, label);

  const Network::Summary s = net.summary();
  bench::Sample out{std::nullopt, s.sends_rerouted, s.messages_disrupted,
                    bench::ratio(s.messages_completed, s.messages)};
  if (s.hosts_removed > 0)
    out[kRepairLatency] = static_cast<double>(s.last_repair_time - crash_at);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      bench::kQuick | bench::kJobs | bench::kReps | bench::kTraceCap |
          bench::kCheck);
  const Time measure = args.quick ? 300'000 : 1'000'000;

  std::printf("# Silent crash-stop repair on the 8-host testbed: detection + "
              "repair latency vs suspicion timeout\n");
  std::printf("# (host 3 crashes mid-run; ack_timeout=10k, max_attempts=10; "
              "latency in byte-times; %d rep(s)/point)\n", args.reps);
  const std::vector<Time> timeouts =
      args.quick ? std::vector<Time>{60'000}
                 : std::vector<Time>{30'000, 60'000, 120'000};
  const char* const names[] = {"circuit", "tree"};

  bench::Sweep sweep{.xs = timeouts.size(), .series = 2,
                     .reps = std::size_t(args.reps), .base_seed = kBaseSeed};
  sweep.point = [&](const bench::Point& p) {
    return run_crash(p.series == 0 ? Scheme::kHamiltonianSF : Scheme::kTreeSF,
                     timeouts[p.x], measure, p,
                     bench::format("suspicion=%lld scheme=%s rep=%zu",
                                   static_cast<long long>(timeouts[p.x]),
                                   names[p.series], p.rep));
  };
  const auto table = [&](std::size_t x, const bench::Results& r) {
    bench::Cells row{bench::col("suspicion_timeout", "%lld", timeouts[x])};
    for (std::size_t s = 0; s < 2; ++s) {
      const std::string n = names[s];
      // The CSV keeps the historical -1 sentinel when no replication
      // detected the crash; the JSON cell goes null.
      const RunningStat& latency = r.stat(x, s, kRepairLatency);
      const bool detected = latency.count() > 0;
      row.push_back(bench::col(n + "_repair_latency", "%.0f",
                               detected ? latency.mean() : -1.0, detected));
      row.push_back(
          bench::col(n + "_rerouted", "%.0f", r.mean(x, s, kRerouted)));
      row.push_back(
          bench::col(n + "_disrupted", "%.0f", r.mean(x, s, kDisrupted)));
      row.push_back(
          bench::col(n + "_delivered", "%.4f", r.mean(x, s, kDelivered)));
    }
    return row;
  };
  sweep.views = {{"failure_repair", "", table}};
  return bench::run_sweep(args, sweep);
}

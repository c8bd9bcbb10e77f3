// Membership churn under chaos: dynamic join/leave/rejoin driven through
// the bounded membership coordinator while scripted fault patterns
// (flapping links, correlated multi-link outages, partition-then-heal,
// rolling host outages) batter the fabric, on the Section 8.2 testbed.
//
// Sweep: churn rate (mean gap between membership ops) x overlapping group
// count x chaos pattern. Reported per point: the join shed rate (overload
// degradation), join latency percentiles (request -> applied, null when no
// join completed), coordinator queue high-water mark, delivered fraction,
// and the lost-forever count — which must be ZERO: every message either
// completes, or is explicitly written off as disrupted by a repair/settle
// sweep. Any point with lost > 0 fails the bench (exit 1) even without
// --check.
//
// Sweep points run on a SweepRunner pool (--jobs N) with per-point seeds;
// all chaos windows and churn draws are deterministic per point, so CSV,
// JSON, and --check verdicts are bit-identical at any job count.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "chaos/chaos_schedule.h"
#include "chaos/churn_engine.h"
#include "net/topologies.h"

using namespace wormcast;

namespace {

constexpr std::uint64_t kBaseSeed = 23;
constexpr Time kWarmup = 2'000;

struct Combo {
  int n_groups;
  bool storm;  // false: flapping links only; true: the full storm
  const char* name;
};

constexpr Combo kCombos[] = {{2, false, "g2_flaps"},
                              {2, true, "g2_storm"},
                              {4, false, "g4_flaps"},
                              {4, true, "g4_storm"}};
constexpr std::size_t kNumCombos = std::size(kCombos);

enum Metric {
  kShedRate,     // shed events per join intent
  kJoinMean,     // request -> applied (byte-times); unsampled without joins
  kJoinP95,
  kQueuePeak,
  kDelivered,    // completed / created
  kLost,         // outstanding after drain: MUST be zero
  kRejoins,
  kLeaves,
  kFlapWindows,
};

bench::Sample run_point(const Combo& combo, Time gap, Time measure,
                        TreeStrategyKind strategy, const bench::Point& pt,
                        const std::string& label) {
  const std::uint64_t seed = pt.seed;
  // Circuit scheme at a load both the splice-in and the hop-window patch
  // paths see steady traffic; recovery + suspicion on so the chaos is
  // survivable and leave-no-suspect is checked against a live detector.
  ExperimentConfig cfg = bench::sim_defaults(Scheme::kHamiltonianSF, 0.02,
                                             1.0, seed);
  cfg.tree.kind = strategy;
  cfg.protocol.ack_timeout = 10'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  cfg.protocol.max_attempts = 10;
  cfg.protocol.suspicion_timeout = 60'000;
  // A deliberately slow coordinator so the storm actually sheds: four
  // queue slots drained one per 20k byte-times — slower than the fastest
  // churn gaps, so the queue saturates and joins shed/retry while leaves
  // (never shed) keep flowing through.
  cfg.membership.queue_limit = 4;
  cfg.membership.op_cost = 20'000;
  // Overlapping ring-window groups covering every host: host h belongs to
  // the windows containing it, so no host ever falls back to plain
  // unicast traffic (which has no retransmission path — a flap-swallowed
  // unicast would be lost by design, drowning the churn signal this
  // bench gates on).
  std::vector<MulticastGroupSpec> groups;
  for (int g = 0; g < combo.n_groups; ++g) {
    MulticastGroupSpec spec;
    spec.id = g;
    const int start = g * (8 / combo.n_groups);
    for (int k = 0; k < 5; ++k)
      spec.members.push_back(static_cast<HostId>((start + k) % 8));
    groups.push_back(std::move(spec));
  }
  Network net(make_myrinet_testbed(), groups, cfg);
  if (pt.checks->enabled()) net.enable_tracing(pt.trace_cap);
  bench::arm_watchdog(net);

  // Chaos: flap windows stay well under the suspicion timeout, so a live
  // peer behind a flapping link retries through it instead of being
  // accused; the storm adds a correlated burst, a healed partition, and
  // rolling (leave + rejoin) host outages on top.
  ChaosSchedule chaos(net, RandomStream::seed_mix(seed, 0xC4A05));
  chaos.flap_random_links(combo.storm ? 3 : 2, kWarmup + measure / 10,
                          kWarmup + (9 * measure) / 10, 6'000, 25'000);
  if (combo.storm) {
    chaos.correlated_link_outage(3, kWarmup + measure / 3, 20'000);
    chaos.partition_then_heal(kWarmup + (2 * measure) / 3, 25'000);
    chaos.rolling_host_outages({1, 4}, kWarmup + measure / 4, 30'000,
                               40'000);
  }

  std::vector<GroupId> group_ids;
  group_ids.reserve(groups.size());
  for (const MulticastGroupSpec& g : groups) group_ids.push_back(g.id);
  ChurnConfig churn;
  churn.mean_gap = gap;
  churn.from = kWarmup;
  churn.until = kWarmup + measure;
  ChurnEngine engine(net, group_ids, churn,
                     RandomStream(RandomStream::seed_mix(seed, 0x4C42)));
  engine.start();

  net.run(kWarmup, measure, /*drain_cap=*/600'000);
  pt.checks->collect(pt.slot, net, label);

  const Network::Summary s = net.summary();
  if (s.outstanding > 0) {
    std::fprintf(stderr, "churn_storm: %lld message(s) lost forever:\n%s",
                 static_cast<long long>(s.outstanding),
                 net.debug_report().c_str());
    for (const auto& ctx : net.metrics().outstanding_messages())
      std::fprintf(stderr,
                   "  msg=%llu group=%d origin=%d created=%lld reached=%d/%d\n",
                   static_cast<unsigned long long>(ctx->message_id),
                   ctx->group, ctx->origin,
                   static_cast<long long>(ctx->created_at),
                   ctx->destinations_reached, ctx->destinations_total);
  }
  bench::Sample out{bench::ratio(s.joins_shed, s.joins_requested),
                    std::nullopt,
                    std::nullopt,
                    s.membership_queue_peak,
                    bench::ratio(s.messages_completed, s.messages),
                    s.outstanding,
                    s.rejoins,
                    s.leaves,
                    s.flap_windows};
  if (s.join_samples > 0) {
    out[kJoinMean] = s.join_latency_mean;
    out[kJoinP95] = s.join_latency_p95;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      bench::kQuick | bench::kJobs | bench::kReps | bench::kTraceCap |
          bench::kCheck | bench::kStrategy);
  const Time measure = args.quick ? 300'000 : 800'000;

  std::printf("# Membership churn under chaos schedules on the 8-host "
              "testbed (circuit scheme, %s trees)\n",
              tree_strategy_name(args.strategy));
  std::printf("# (coordinator queue=4 slots @ 20k/op; suspicion=60k; flaps "
              "6k down / 25k up; %d rep(s)/point; lost must be 0)\n",
              args.reps);
  const std::vector<Time> gaps = args.quick
                                     ? std::vector<Time>{15'000}
                                     : std::vector<Time>{30'000, 15'000, 7'500};

  bench::Sweep sweep{.xs = gaps.size(), .series = kNumCombos,
                     .reps = std::size_t(args.reps), .base_seed = kBaseSeed};
  sweep.point = [&](const bench::Point& p) {
    const Combo& combo = kCombos[p.series];
    return run_point(combo, gaps[p.x], measure, args.strategy, p,
                     bench::format("gap=%lld combo=%s rep=%zu",
                                   static_cast<long long>(gaps[p.x]),
                                   combo.name, p.rep));
  };
  bool lost_any = false;
  const auto table = [&](std::size_t x, const bench::Results& r) {
    bench::Cells row{bench::col("churn_gap", "%lld", gaps[x])};
    for (std::size_t c = 0; c < kNumCombos; ++c) {
      const std::string n = kCombos[c].name;
      const RunningStat& join_mean = r.stat(x, c, kJoinMean);
      const RunningStat& join_p95 = r.stat(x, c, kJoinP95);
      const double lost = r.mean(x, c, kLost);
      if (lost > 0.0) lost_any = true;
      row.push_back(
          bench::col(n + "_shed_rate", "%.4f", r.mean(x, c, kShedRate)));
      row.push_back({n + "_join_p95", "%.0f",
                     join_p95.count() > 0 ? join_p95.mean() : -1.0, true,
                     bench::kCsv, {}});
      row.push_back(bench::json_col(n + "_join_latency_mean", join_mean.mean(),
                                    join_mean.count() > 0));
      row.push_back(bench::json_col(n + "_join_latency_p95", join_p95.mean(),
                                    join_p95.count() > 0));
      row.push_back(
          bench::json_col(n + "_queue_peak", r.mean(x, c, kQueuePeak)));
      row.push_back(
          bench::json_col(n + "_delivered", r.mean(x, c, kDelivered)));
      row.push_back(bench::col(n + "_lost", "%.0f", lost));
      row.push_back(bench::json_col(n + "_rejoins", r.mean(x, c, kRejoins)));
      row.push_back(bench::json_col(n + "_leaves", r.mean(x, c, kLeaves)));
      row.push_back(
          bench::json_col(n + "_flap_windows", r.mean(x, c, kFlapWindows)));
    }
    return row;
  };
  sweep.views = {{"churn_storm", "", table}};
  sweep.finish = [&](bench::JsonBench& json, const bench::Results&) {
    json.set_meta("strategy", static_cast<double>(args.strategy));
    if (!lost_any) return 0;
    std::fprintf(stderr,
                 "churn_storm: FAIL -- lost-forever payloads detected "
                 "(outstanding after drain); every send must complete or be "
                 "explicitly shed\n");
    return 1;
  };
  return bench::run_sweep(args, sweep);
}

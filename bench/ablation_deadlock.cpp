// Ablation A: what the two-buffer-class rule buys (Figures 6 and 7).
//
// The paper's closing section reports "work in progress" on measuring
// buffer contention and the probability of deadlocks. A saturated steady
// state cannot distinguish deadlock from backlog, so this bench uses a
// burst design: every member of every group injects one multicast at t=0,
// then the network drains with *no further arrivals*. With the class rule
// (and low-to-high ID propagation) reservation waits are acyclic, so the
// burst always drains completely. With the rule disabled, reservations can
// cycle (two adapters holding full pools NACK each other forever,
// Figure 6): those runs end with messages that never complete no matter
// how long the drain — a permanent livelock. We report, per configuration:
// runs that wedged, messages still undelivered at the horizon, and the
// NACK/retry churn spent.
//
// Every (burst, classes, seed) run is an independent sweep point on a
// SweepRunner pool (--jobs N); per-configuration outcomes merge in seed
// order, and the diagnostic dump for a wedged configuration always comes
// from its lowest wedged seed — deterministic at any job count.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"
#include "sim/random.h"
#include "sim/trace_export.h"
#include "traffic/groups.h"

using namespace wormcast;

namespace {

// A run wedged iff it has no drain time.
enum Metric { kUndelivered, kNacks, kDrainTime };

/// One burst-drain run; a wedged run also leaves its diagnostic dump in
/// `*wedge_report`.
bench::Sample run_one(bool classes, int burst_per_member, int seed,
                      Time horizon, const bench::Point& pt,
                      const std::string& label, std::string* wedge_report) {
  RandomStream grng(7000 + seed);
  auto groups = make_random_groups(6, 8, 16, grng);
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.buffer_classes = classes;
  // Two max-size worms of memory in both configurations; the ablation
  // removes only the class discipline, not capacity.
  cfg.protocol.pool_bytes = 1800;
  cfg.protocol.retry_backoff = 1500;
  cfg.protocol.retry_jitter = 1000;
  cfg.traffic.offered_load = 1e-9;  // burst only
  cfg.seed = static_cast<std::uint64_t>(seed);
  Network net(make_torus(4, 4), groups, cfg);
  // Flight recorder + watchdog: a wedged run (the classes-off livelock
  // this bench exists to show) dumps per-host state AND the trace tail,
  // so the stall explains *how* it happened, not just where it stands.
  // Under --check the ring must hold the whole run (a wrapped ring makes
  // the checker refuse), so it takes the checking capacity instead.
  net.enable_tracing(pt.checks->enabled() ? pt.trace_cap : 8192);
  bench::arm_watchdog(net, 400'000);

  RandomStream lens(200 + static_cast<std::uint64_t>(seed));
  for (const auto& g : groups) {
    for (const HostId m : g.members) {
      for (int i = 0; i < burst_per_member; ++i) {
        const Time when = 1 + lens.uniform(0, 500);
        const auto len = lens.geometric_length(400.0, 16);
        net.sim().at(when, [&net, m, g = g.id, len] {
          Demand d;
          d.src = m;
          d.multicast = true;
          d.group = g;
          d.length = std::min<std::int64_t>(len, 850);
          net.inject(d);
        });
      }
    }
  }
  net.run_until(horizon);
  pt.checks->collect(pt.slot, net, label);
  const auto s = net.summary();
  if (s.outstanding == 0)
    return {0.0, s.nacks, net.metrics().last_completion_time()};
  // A wedged run explains itself: per-host state plus the recorder's last
  // decisions. The NACK livelock keeps *events* flowing, so the stall
  // watchdog stays quiet — capture at the horizon instead.
  *wedge_report = net.debug_report() + format_trace_tail(net.sim().tracer());
  return {s.outstanding, s.nacks, std::nullopt};
}

/// Folds configuration `cfg`'s runs at burst `x` in seed order into its
/// four columns of `row` (named `n`_...); prints the first wedged seed's
/// dump from `wedge_reports` (by task slot; one per configuration is
/// enough to diagnose).
void add_config(bench::Cells& row, const std::string& n,
                const bench::Results& r, std::size_t x, std::size_t cfg,
                std::size_t seeds,
                const std::vector<std::string>& wedge_reports) {
  double wedged = 0, undelivered = 0, nacks = 0, drain = 0;
  int completed = 0;
  for (std::size_t i = 0; i < seeds; ++i) {
    const bench::Sample& s = r.sample(x, cfg, i);
    if (!s[kDrainTime].has_value()) {
      if (wedged == 0)
        std::fprintf(stderr,
                     "# wedged run (classes=%d seed=%zu): %lld undelivered\n%s",
                     cfg == 0 ? 1 : 0, 1 + i,
                     static_cast<long long>(*s[kUndelivered]),
                     wedge_reports[(x * 2 + cfg) * seeds + i].c_str());
      ++wedged;
      undelivered += *s[kUndelivered];
    } else {
      ++completed;
      drain += *s[kDrainTime];
    }
    nacks += *s[kNacks];
  }
  if (completed > 0) drain /= completed;  // mean over runs that completed
  row.push_back(bench::col(n + "_wedged_runs", "%lld", wedged));
  row.push_back(bench::col(n + "_undelivered", "%lld", undelivered));
  row.push_back(bench::col(n + "_nacks", "%lld", nacks));
  row.push_back(bench::col(n + "_drain_bt", "%.0f", drain));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      bench::kQuick | bench::kJobs | bench::kTraceCap | bench::kCheck);
  const std::size_t seeds = args.quick ? 2 : 5;
  const Time horizon = args.quick ? 1'500'000 : 2'500'000;
  std::printf("# Ablation A: burst drain with the two-buffer-class rule "
              "on/off (equal memory; 6 groups x 8 members on 16 hosts; "
              "%zu seeds)\n",
              seeds);
  const std::vector<int> bursts =
      args.quick ? std::vector<int>{2} : std::vector<int>{1, 2, 4};

  // Series: classes on, then off; reps are the historical seeds 1..seeds.
  bench::Sweep sweep{.xs = bursts.size(), .series = 2, .reps = seeds};
  std::vector<std::string> wedge_reports(sweep.xs * sweep.series * seeds);
  sweep.point = [&](const bench::Point& p) {
    const int seed = 1 + static_cast<int>(p.rep);
    const bool classes = p.series == 0;
    return run_one(classes, bursts[p.x], seed, horizon, p,
                   bench::format("burst=%d classes=%s seed=%d", bursts[p.x],
                                 classes ? "on" : "off", seed),
                   &wedge_reports[p.slot]);
  };
  const auto table = [&](std::size_t x, const bench::Results& r) {
    bench::Cells row{bench::col("burst_per_member", "%lld", bursts[x])};
    add_config(row, "on", r, x, 0, seeds, wedge_reports);
    add_config(row, "off", r, x, 1, seeds, wedge_reports);
    return row;
  };
  sweep.views = {{"ablation_deadlock", "", table}};
  return bench::run_sweep(args, sweep);
}

// Simulation hot-path benchmark: how fast does the simulator itself run?
//
// Two sections, both on the shared Myrinet testbed harness:
//
//  1. Fig12-scale mode matrix (8 hosts, 8 KB packets): burst fast path,
//     forced per-byte, and burst with the flight recorder enabled. All
//     modes produce bit-for-bit identical simulation results (pinned by
//     the burst_equivalence ctest); only event counts and wall time move.
//
//  2. Scale point (32x32 torus, 1024 hosts, LAN at rest): every host
//     runs a rate-limited app multicasting a 512-byte packet to its own
//     4-host group once per 10M byte-times. The engine matrix — (heap
//     queue + legacy 512-bt app polling) as the pre-hot-path baseline vs
//     the calendar queue and idle fast-forward. At this scale and duty
//     cycle the 512-byte-time app-poll grid IS the event stream: a
//     thousand mostly-idle hosts burn ~2 events per byte-time asking
//     "anything to do?" while the actual traffic contributes a fraction
//     of that. Fast-forward parks those polls and jumps the clock across
//     the gaps (sim/idle_poller.h); the calendar queue makes what
//     remains O(1) per event. The headline `hotpath_speedup_wall` row is
//     the hot-path acceptance number (target: >= 5x sim-bytes per
//     wall-second, equivalently wall clock, at this point).
//
// Timing discipline: each mode runs one discarded warm-up (page cache,
// allocator, branch predictors) and then best-of-K timed repetitions, so
// the reported walls measure the steady state, not cold-start order.
// The matrices run on a SweepRunner (--jobs N) like every other sweep;
// note that with --jobs > 1 the modes time each other's cache and core
// contention, so scaling studies should keep the default --jobs 1 for
// this bench and spend their cores on the *sweep* benches instead.
//
// CI runs `--quick` as a smoke test and archives BENCH_sim_hotpath.json;
// tools/perf_gate.py compares the deterministic columns exactly and the
// wall-ratio columns within a band (see bench/baselines/README.md).
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "myrinet_testbed.h"

using namespace wormcast;

namespace {

constexpr int kRepetitions = 3;  // best-of-K after one warm-up

struct Timed {
  bench::TestbedResult result;
  double wall_ms = std::numeric_limits<double>::infinity();  // best full run
  double sim_wall_ms = std::numeric_limits<double>::infinity();  // best loop
};

Timed timed_run(const bench::TestbedOptions& opts, int reps) {
  Timed t;
  // Warm-up: identical run, result and time discarded.
  bench::run_testbed(opts);
  for (int k = 0; k < reps; ++k) {
    const harness::WallTimer timer;
    auto result = bench::run_testbed(opts);
    const double wall = timer.elapsed_ms();
    t.sim_wall_ms = std::min(t.sim_wall_ms, result.sim_wall_ms);
    if (wall < t.wall_ms) {
      t.wall_ms = wall;
      t.result = std::move(result);
    }
  }
  return t;
}

double per_sec(double count, double wall_ms) {
  return bench::ratio(count, wall_ms / 1000.0);
}

bench::Cells mode_row(const char* mode, const Timed& t, bool burst,
                      bool tracing) {
  const bench::TestbedResult& r = t.result;
  const double events = static_cast<double>(r.events_dispatched);
  const double bytes = static_cast<double>(r.bytes_on_wire);
  return {bench::text_col("mode", mode),
          bench::json_col("burst", burst),
          bench::json_col("tracing", tracing),
          bench::col("wall_ms", "%.1f", t.wall_ms),
          bench::col("events", "%lld", events),
          bench::col("events_per_sec", "%.3g", per_sec(events, t.wall_ms)),
          bench::col("sim_bytes", "%lld", bytes),
          bench::col("sim_bytes_per_wall_sec", "%.3g",
                     per_sec(bytes, t.wall_ms)),
          bench::col("event_queue_peak", "%lld", r.event_queue_peak),
          bench::col("throughput_mbps", "%.1f", r.throughput_mbps)};
}

bench::Cells engine_row(const char* mode, const Timed& t, bool calendar,
                        bool fast_forward) {
  const bench::TestbedResult& r = t.result;
  const double bytes = static_cast<double>(r.bytes_on_wire);
  return {bench::text_col("engine", mode),
          bench::json_col("calendar", calendar),
          bench::json_col("fast_forward", fast_forward),
          bench::col("sim_wall_ms", "%.1f", t.sim_wall_ms),
          bench::col("wall_ms", "%.1f", t.wall_ms),
          bench::col("events", "%lld", r.events_dispatched),
          bench::col("app_polls", "%lld", r.app_polls),
          bench::json_col("sim_bytes", bytes),
          bench::col("sim_bytes_per_wall_sec", "%.3g",
                     per_sec(bytes, t.sim_wall_ms)),
          bench::col("event_queue_peak", "%lld", r.event_queue_peak),
          bench::col("pool_fresh", "%lld", r.pool_fresh),
          bench::col("pool_reused", "%lld", r.pool_reused),
          bench::col("throughput_mbps", "%.2f", r.throughput_mbps)};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      bench::kQuick | bench::kJobs | bench::kShards | bench::kTraceCap);
  const Time span = args.quick ? 600'000 : 3'000'000;
  const std::int64_t packet = 8 * 1024;

  std::printf("# Simulation hot path: fig12-scale all-send run (8 hosts, "
              "%lld-byte packets, %lld byte-times, warm-up + best of %d)\n",
              static_cast<long long>(packet), static_cast<long long>(span),
              kRepetitions);
  bench::JsonBench json("sim_hotpath");

  // --- Section 1: fig12-scale mode matrix (burst, tracing). The third
  // mode is the overhead guard — the same burst run with the flight
  // recorder on. The runtime-disabled path must stay within noise; the
  // enabled path's cost is reported so regressions are visible.
  struct Mode {
    const char* name;
    bool burst;
    bool tracing;
  };
  const std::vector<Mode> modes = {{"burst", true, false},
                                   {"per_byte", false, false},
                                   {"burst_traced", true, true}};

  // --- Section 2: the 1k-host engine matrix (LAN at rest; see header).
  struct EngineMode {
    const char* name;
    EventQueueKind queue;
    bool fast_forward;
  };
  const std::vector<EngineMode> engine_modes = {
      {"heap_poll", EventQueueKind::kHeap, false},  // pre-hot-path baseline
      {"cal_poll", EventQueueKind::kCalendar, false},
      {"cal_ff", EventQueueKind::kCalendar, true}};  // shipping default
  const int torus = 32;  // 1024 hosts
  const std::int64_t scale_packet = 512;
  const int scale_group = 4;
  const Time scale_period = 10'000'000;
  const Time scale_span = args.quick ? 9'000'000 : 20'000'000;
  const int scale_reps = args.quick ? 2 : kRepetitions;

  const harness::WallTimer sweep;
  harness::SweepRunner pool(args.jobs);
  std::vector<Timed> timed(modes.size());
  std::vector<Timed> engine_timed(engine_modes.size());
  const std::size_t n_points = modes.size() + engine_modes.size();
  const auto walls = pool.run_indexed(n_points, [&](std::size_t i) {
    bench::TestbedOptions opts;
    opts.shards = args.shards;
    if (i < modes.size()) {
      opts.senders = 8;
      opts.packet_size = packet;
      opts.span = span;
      opts.burst_channels = modes[i].burst;
      opts.tracing = modes[i].tracing;
      opts.trace_cap = args.trace_cap;
      timed[i] = timed_run(opts, kRepetitions);
    } else {
      const EngineMode& m = engine_modes[i - modes.size()];
      opts.torus = torus;
      opts.senders = torus * torus;
      opts.packet_size = scale_packet;
      opts.span = scale_span;
      opts.group_size = scale_group;
      opts.inject_period = scale_period;
      opts.queue = m.queue;
      opts.fast_forward = m.fast_forward;
      engine_timed[i - modes.size()] = timed_run(opts, scale_reps);
    }
  });
  // JSON rows: modes, mode-ratio row, engine modes, engine-ratio row.
  for (std::size_t i = 0; i < modes.size(); ++i)
    bench::emit(
        mode_row(modes[i].name, timed[i], modes[i].burst, modes[i].tracing),
        i == 0, json);

  const bench::TestbedResult& burst = timed[0].result;
  const bench::TestbedResult& per_byte = timed[1].result;
  const bench::TestbedResult& traced = timed[2].result;
  const double speedup = bench::ratio(timed[1].wall_ms, timed[0].wall_ms);
  const double event_ratio =
      bench::ratio(per_byte.events_dispatched, burst.events_dispatched);
  const double tracing_overhead =
      bench::ratio(timed[2].wall_ms, timed[0].wall_ms);
  std::printf("# burst speedup: %.2fx wall clock, %.2fx fewer events\n",
              speedup, event_ratio);
  std::printf("# tracing overhead: %.2fx wall clock, %lld events recorded "
              "(%lld dropped; raise --trace-cap to keep them)\n",
              tracing_overhead, static_cast<long long>(traced.trace_events),
              static_cast<long long>(traced.trace_dropped));
  if (burst.throughput_mbps != per_byte.throughput_mbps)
    std::printf("# WARNING: modes disagree on throughput — burst bug!\n");
  if (burst.throughput_mbps != traced.throughput_mbps)
    std::printf("# WARNING: tracing changed the results — observer bug!\n");
  json.add_row({bench::json_col("speedup_wall", speedup),
                bench::json_col("event_ratio", event_ratio),
                bench::json_col("tracing_overhead_wall", tracing_overhead),
                bench::json_col("best_of", kRepetitions),
                bench::json_col("trace_events", traced.trace_events),
                bench::json_col("trace_dropped", traced.trace_dropped)});

  std::printf("# Engine matrix: %dx%d torus at rest (%d hosts, %lld-byte "
              "packets to %d-host groups every %lld byte-times, %lld "
              "byte-times, warm-up + best of %d)\n",
              torus, torus, torus * torus,
              static_cast<long long>(scale_packet), scale_group,
              static_cast<long long>(scale_period),
              static_cast<long long>(scale_span), scale_reps);
  for (std::size_t i = 0; i < engine_modes.size(); ++i) {
    const EngineMode& m = engine_modes[i];
    bench::emit(engine_row(m.name, engine_timed[i],
                           m.queue == EventQueueKind::kCalendar,
                           m.fast_forward),
                i == 0, json);
  }
  const bench::TestbedResult& baseline = engine_timed[0].result;
  const bench::TestbedResult& cal_poll = engine_timed[1].result;
  const bench::TestbedResult& cal_ff = engine_timed[2].result;
  // Speedups compare event-loop wall (sim_wall_ms): network construction
  // is identical across engines and amortizes out at real spans anyway.
  const double hot_speedup =
      bench::ratio(engine_timed[0].sim_wall_ms, engine_timed[2].sim_wall_ms);
  const double queue_speedup =
      bench::ratio(engine_timed[0].sim_wall_ms, engine_timed[1].sim_wall_ms);
  const double hot_event_ratio =
      bench::ratio(baseline.events_dispatched, cal_ff.events_dispatched);
  const double poll_ratio = bench::ratio(baseline.app_polls, cal_ff.app_polls);
  // The three engines must agree bit-for-bit on the physics: calendar vs
  // heap is pinned by the queue_equivalence ctest, fast-forward vs legacy
  // polling by idle_poller_test — this is the end-to-end restatement.
  const bool agree = baseline.throughput_mbps == cal_ff.throughput_mbps &&
                     baseline.throughput_mbps == cal_poll.throughput_mbps &&
                     baseline.bytes_on_wire == cal_ff.bytes_on_wire &&
                     baseline.loss_rate == cal_ff.loss_rate;
  std::printf("# hot-path speedup at 1k hosts: %.2fx wall clock "
              "(queue alone: %.2fx), %.2fx fewer events, %.1fx fewer polls\n",
              hot_speedup, queue_speedup, hot_event_ratio, poll_ratio);
  if (!agree)
    std::printf("# WARNING: engine modes disagree on results — queue or "
                "fast-forward bug!\n");
  json.add_row({bench::json_col("hotpath_speedup_wall", hot_speedup),
                bench::json_col("queue_speedup_wall", queue_speedup),
                bench::json_col("hotpath_event_ratio", hot_event_ratio),
                bench::json_col("hotpath_poll_ratio", poll_ratio),
                bench::json_col("engines_agree", agree),
                bench::json_col("best_of", scale_reps)});

  json.set_counters(traced.counters);
  json.set_meta("jobs", pool.jobs());
  json.set_point_walls(walls);
  json.set_meta("sweep_wall_ms", sweep.elapsed_ms());
  json.write();
  return agree ? 0 : 1;
}

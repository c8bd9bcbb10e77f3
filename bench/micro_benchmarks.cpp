// Self-timed microbenchmarks of the simulator's hot paths: event queue
// operations (both queue kinds), up/down route computation (fresh and
// arena-reusing), hop-row and group-table builds, multicast route
// encoding, and byte-level end-to-end channel throughput. Useful when tuning the engine; not part of the
// paper reproduction.
//
// Each benchmark body runs once as warm-up, then repeats until a minimum
// timed window has accumulated; the CSV/JSON report the mean ns per
// operation and the derived items/second. All columns are wall-derived,
// so the CI perf gate treats them as informational (see
// tools/perf_gate.py) — this bench exists for humans tuning the engine,
// and for the BENCH_micro_benchmarks.json trail it leaves behind.
#include <chrono>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/group_tables.h"
#include "core/network.h"
#include "net/mcast_route_builder.h"
#include "net/topologies.h"
#include "sim/event_queue.h"
#include "sim/random.h"

using namespace wormcast;

namespace {

template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

struct Micro {
  double ns_per_op = 0.0;
  double items_per_sec = 0.0;
};

/// Runs `body` (one "operation" of `items` items) until `min_ms` of wall
/// time has accumulated, after one discarded warm-up call.
template <typename F>
Micro run_micro(F&& body, std::int64_t items, double min_ms) {
  body();  // warm-up, untimed
  std::int64_t iters = 0;
  double total_ms = 0.0;
  while (total_ms < min_ms) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    ++iters;
  }
  Micro m;
  m.ns_per_op = total_ms * 1e6 / static_cast<double>(iters);
  m.items_per_sec =
      static_cast<double>(items) * static_cast<double>(iters) /
      (total_ms / 1000.0);
  return m;
}

void queue_schedule_dispatch(EventQueueKind kind) {
  EventQueue q(kind);
  int fired = 0;
  for (int i = 0; i < 1024; ++i)
    q.schedule(i % 97, [&fired] { ++fired; });
  while (!q.empty()) q.pop().action();
  do_not_optimize(fired);
}

void queue_cancel_heavy(EventQueueKind kind) {
  EventQueue q(kind);
  std::vector<EventHandle> handles;
  handles.reserve(1024);
  for (int i = 0; i < 1024; ++i) handles.push_back(q.schedule(i, [] {}));
  for (std::size_t i = 0; i < handles.size(); i += 2) q.cancel(handles[i]);
  while (!q.empty()) q.pop().action();
}

/// Calls fn(src, dst) for 256 distinct-host pairs of an 8x8 torus.
template <typename F>
void for_host_pairs(F&& fn) {
  HostId src = 0, dst = 1;
  for (int i = 0; i < 256; ++i) {
    fn(src, dst);
    dst = static_cast<HostId>((dst + 7) % 64);
    if (dst == src) dst = static_cast<HostId>((dst + 1) % 64);
    src = static_cast<HostId>((src + 13) % 64);
    if (dst == src) src = static_cast<HostId>((src + 1) % 64);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, bench::kQuick);
  const double min_ms = args.quick ? 20.0 : 200.0;

  std::printf("# Engine microbenchmarks (self-timed, window >= %.0f ms "
              "per benchmark)\n", min_ms);
  bench::JsonBench json("micro_benchmarks");

  struct Case {
    const char* name;
    std::function<void()> body;
    std::int64_t items;  // per operation, for the items/sec column
  };
  const Topology torus = make_torus(8, 8);
  const UpDownRouting routing(torus);
  UpDownOptions tree_opts;
  tree_opts.tree_links_only = true;
  const UpDownRouting tree_routing(torus, tree_opts);
  std::vector<HostId> dests;
  for (HostId h = 1; h < 64; h += 4) dests.push_back(h);
  const auto branches = build_mcast_branches(tree_routing, 0, dests);
  // The torus64_reliable_flap group shape: 16 overlapping 8-member ring
  // windows (stride 4) over a seeded host permutation.
  std::vector<HostId> perm = torus.all_hosts();
  RandomStream(3).shuffle(perm);
  std::vector<MulticastGroupSpec> flap_groups;
  for (GroupId g = 0; g < 16; ++g) {
    MulticastGroupSpec spec;
    spec.id = g;
    for (int k = 0; k < 8; ++k)
      spec.members.push_back(perm[static_cast<std::size_t>((4 * g + k) % 64)]);
    flap_groups.push_back(std::move(spec));
  }

  const std::vector<Case> cases = {
      {"event_queue_schedule_dispatch_calendar",
       [] { queue_schedule_dispatch(EventQueueKind::kCalendar); }, 1024},
      {"event_queue_schedule_dispatch_heap",
       [] { queue_schedule_dispatch(EventQueueKind::kHeap); }, 1024},
      {"event_queue_cancel_heavy_calendar",
       [] { queue_cancel_heavy(EventQueueKind::kCalendar); }, 1024},
      {"event_queue_cancel_heavy_heap",
       [] { queue_cancel_heavy(EventQueueKind::kHeap); }, 1024},
      {"updown_route_fresh",
       [&routing] {
         for_host_pairs([&](HostId src, HostId dst) {
           do_not_optimize(routing.route(src, dst));
         });
       },
       256},
      {"updown_route_into_reused",
       [&routing] {
         // The worm-arena path: route_into() copy-assigns into a recycled
         // SourceRoute, reusing its port-vector capacity.
         SourceRoute out;
         for_host_pairs([&](HostId src, HostId dst) {
           routing.route_into(src, dst, out);
           do_not_optimize(out);
         });
       },
       256},
      {"updown_hop_rows_torus8",
       [&torus] {
         // Fresh routing, then the hop row of every switch (one
         // bit-parallel pass covers all 64).
         const UpDownRouting fresh(torus);
         fresh.fill_hop_rows(torus.all_hosts());
         do_not_optimize(fresh.hop_row_bytes());
       },
       64},
      {"group_tables_build_torus8",
       [&torus, &flap_groups] {
         // Fresh routing, so the tables fill their hop rows too.
         const UpDownRouting fresh(torus);
         const GroupTables tables(flap_groups, fresh);
         do_not_optimize(tables.heap_bytes_estimate());
       },
       16},
      {"mcast_route_encode_split",
       [&branches] {
         const auto enc = EncodedMcastRoute::encode(branches);
         do_not_optimize(enc.split());
       },
       1},
      {"simulated_byte_throughput_16k",
       [] {
         // End-to-end cost of simulating one payload byte across the full
         // stack (network construction included; dominated by the run).
         ExperimentConfig cfg;
         cfg.protocol.scheme = Scheme::kHamiltonianSF;
         Network net(make_line(3), {}, cfg);
         Demand d;
         d.src = 0;
         d.dst = 2;
         d.length = 16 * 1024;
         net.inject(d);
         net.run_to_quiescence();
         do_not_optimize(net.metrics().messages_completed());
       },
       16 * 1024},
  };

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Micro m = run_micro(cases[i].body, cases[i].items, min_ms);
    bench::emit({bench::text_col("benchmark", cases[i].name),
                 bench::col("ns_per_op", "%.1f", m.ns_per_op),
                 bench::col("items_per_sec", "%.3g", m.items_per_sec)},
                i == 0, json, cases[i].name);
    std::fflush(stdout);
  }
  json.set_meta("min_ms", min_ms);
  json.write();
  return 0;
}

// Shared harness for the Section 8.2 measurement reproduction
// (Figures 12 and 13): a simulated 4-switch / 8-host Myrinet running the
// Hamiltonian-circuit implementation *as deployed* — store-and-forward at
// every host, no reservation protocol (worms that do not fit in the input
// buffer are silently dropped), retransmission disabled.
//
// Calibration: the measured single-sender curve saturates near 120 Mb/s at
// 8 KB packets on 70 MHz SPARCstation 5 hosts. At 640 Mb/s line rate the
// per-packet adapter/driver processing cost that produces that curve is
// ~35,000 byte-times (~440 us), which also reproduces the ~20 Mb/s point
// at 1 KB. We model it as the adapter's per-worm transmit overhead.
//
// The same harness scales past the paper's testbed: `torus = N` swaps in
// an N x N torus with one host per switch (the hot-path bench's 1k-host
// point is torus = 32), keeping the calibrated adapter costs.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/network.h"
#include "net/topologies.h"
#include "sim/idle_poller.h"
#include "traffic/groups.h"

namespace wormcast::bench {

inline constexpr Time kLanaiPacketOverhead = 35'000;  // byte-times (~440 us)
inline constexpr std::int64_t kLanaiBufferBytes = 25 * 1024;  // Section 4

/// Bytes/byte-time -> Mb/s at Myrinet's 640 Mb/s line rate.
inline double to_mbps(double bytes_per_bt) { return bytes_per_bt * 640.0; }

struct TestbedResult {
  double throughput_mbps = 0.0;  // received payload rate per host
  double loss_rate = 0.0;        // input-buffer drops / arrivals, per host
  // Simulator hot-path counters (bench/sim_hotpath.cpp).
  std::int64_t events_dispatched = 0;
  std::int64_t event_queue_peak = 0;
  std::int64_t bytes_on_wire = 0;  // bytes delivered across every channel
  // App poll executions (fast-forward removes the idle ones).
  std::int64_t app_polls = 0;
  // Wall-clock of the event loop alone (run_until), excluding network
  // construction — at 1k hosts construction is a fixed ~hundreds of ms
  // that would wash out engine speedups at short spans.
  double sim_wall_ms = 0.0;
  // Worm-arena telemetry (sim/arena.h).
  std::int64_t pool_fresh = 0;   // worms allocated from the heap
  std::int64_t pool_reused = 0;  // worms recycled from the pool
  // Flight-recorder stats (zero when tracing was off).
  std::int64_t trace_events = 0;   // total recorded (including overwritten)
  std::int64_t trace_dropped = 0;  // overwritten by ring wrap
  // Uniform counter dump for JsonBench::set_counters.
  std::vector<std::pair<std::string, double>> counters;
};

/// One testbed run, fully parameterized. The defaults reproduce the
/// paper's configuration; the hot-path knobs (queue, fast_forward, torus)
/// change only how fast the simulation runs, never what it computes —
/// except that fast_forward also skips the idle app polls, which is
/// result-identical (see sim/idle_poller.h) but changes event counts.
struct TestbedOptions {
  int senders = 1;
  std::int64_t packet_size = 8 * 1024;
  Time span = 3'000'000;
  /// Channel burst fast path (results identical; hot-path bench times both).
  bool burst_channels = true;
  /// Event-queue implementation (results identical; ditto).
  EventQueueKind queue = EventQueueKind::kCalendar;
  /// Park idle app polls and wake on adapter drain, instead of polling
  /// through dead air every 512 byte-times.
  bool fast_forward = true;
  /// 0 = the paper's 4-switch / 8-host testbed; N > 0 = an N x N torus
  /// with one host per switch (N*N hosts; the 1k-host point is N = 32).
  int torus = 0;
  /// Executors for the sharded in-run engine (core/network.h): 1 = the
  /// classic single-queue simulator. Results are bit-identical at any
  /// count; only wall time moves.
  int shards = 1;
  /// Overrides the built-in testbed/torus topology entirely (the
  /// large-fabric bench's Clos and wide-torus points). When set, `torus`
  /// is ignored and the host count comes from the topology. Optional
  /// stage labels feed UpDownOptions::level_override.
  const Topology* topology = nullptr;
  const std::vector<int>* topology_levels = nullptr;
  /// 0 = saturating applications (inject whenever the previous own packet
  /// left the card). > 0 = lightly loaded: each sender injects one packet
  /// per `inject_period` byte-times — the LAN-at-rest workload where the
  /// fixed 512-byte-time app-poll grid, not the traffic, dominates the
  /// event count, which is what idle fast-forward removes.
  Time inject_period = 0;
  /// 0 = one all-hosts group; K > 0 = partition the hosts into disjoint
  /// consecutive groups of K members; sender h multicasts to its own
  /// group (a full-group Hamiltonian circuit visits every host per packet,
  /// which at 1k hosts would drown the sim in forwarding work — the scale
  /// point wants many small independent circuits instead).
  int group_size = 0;
  /// Flight recorder: on when `tracing`, a checker is attached, or
  /// `trace_out` is set; ring of `trace_cap` events (size it to the span —
  /// the default ring drops tens of thousands of events on a full fig12
  /// run); `trace_out` additionally exports Chrome trace-event JSON.
  bool tracing = false;
  std::string trace_out;
  std::size_t trace_cap = Tracer::kDefaultCapacity;
  /// The sweep task this run is; under --check its trace is checked and
  /// filed under `check_label`.
  const Point* point = nullptr;
  std::string check_label;
};

/// Runs the testbed: `senders` hosts multicast `packet_size`-byte packets
/// to the all-hosts group as fast as their adapters accept them, for
/// `span` byte-times; throughput/loss are measured after a span/5 warmup.
inline TestbedResult run_testbed(const TestbedOptions& opts) {
  const int n_hosts = opts.topology != nullptr
                          ? opts.topology->num_hosts()
                          : (opts.torus > 0 ? opts.torus * opts.torus : 8);
  ExperimentConfig cfg;
  cfg.engine.queue = opts.queue;
  cfg.engine.shards = opts.shards;
  if (opts.topology_levels != nullptr)
    cfg.routing.level_override = *opts.topology_levels;
  cfg.fabric.burst_channels = opts.burst_channels;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.reservation = false;   // the Section 8 implementation
  cfg.protocol.buffer_classes = false;
  cfg.protocol.pool_bytes = kLanaiBufferBytes;
  // The control program manages fixed-size receive buffers rather than a
  // byte-exact pool: a small packet still occupies a whole slot.
  cfg.protocol.input_slot_bytes = 4 * 1024;
  cfg.adapter.tx_overhead = kLanaiPacketOverhead;
  cfg.traffic.offered_load = 1e-9;  // generator idle; we inject directly

  std::vector<MulticastGroupSpec> groups;
  if (opts.group_size > 0) {
    for (int g = 0; g * opts.group_size < n_hosts; ++g) {
      MulticastGroupSpec spec;
      spec.id = g;
      for (int m = g * opts.group_size;
           m < (g + 1) * opts.group_size && m < n_hosts; ++m)
        spec.members.push_back(m);
      groups.push_back(std::move(spec));
    }
  } else {
    groups.push_back(make_full_group(n_hosts));
  }
  Network net(opts.topology != nullptr
                  ? *opts.topology
                  : (opts.torus > 0 ? make_torus(opts.torus, opts.torus)
                                    : make_myrinet_testbed()),
              groups, cfg);
  const bool checking = opts.point != nullptr && opts.point->checks->enabled();
  if (opts.tracing || checking || !opts.trace_out.empty())
    net.enable_tracing(opts.trace_cap);

  // Saturating applications: top up each sender whenever its adapter's
  // transmit queue has drained ("sent as many packets as possible"). The
  // poller injects the next packet as soon as the previous own packet has
  // left the card (the host send buffer frees); own packets then compete
  // with forwarded traffic for the adapter engine, which is what
  // overflows the input buffer in the all-send case.
  const Time poll = 512;
  const Time span = opts.span;
  const Time period = opts.inject_period;
  const std::int64_t packet_size = opts.packet_size;
  const int group_size = opts.group_size;
  std::vector<std::unique_ptr<IdlePoller>> pollers;
  pollers.reserve(static_cast<std::size_t>(opts.senders));
  for (HostId h = 0; h < opts.senders; ++h) {
    pollers.push_back(std::make_unique<IdlePoller>(
        net.sim(), poll, poll,
        opts.fast_forward ? IdlePoller::Mode::kFastForward
                          : IdlePoller::Mode::kLegacy,
        // The body returns the poller's next-work lower bound: kTimeNever
        // while blocked on the adapter (the drain listener wakes us —
        // legacy mode ignores the bound and keeps polling), the deadline
        // while rate-limited.
        [&net, h, packet_size, span, period, group_size,
         deadline = Time{0}]() mutable -> Time {
          if (net.sim().now() >= span) return kTimeNever;
          if (net.adapter(h).queued_own_originations() > 0) return kTimeNever;
          if (period > 0 && net.sim().now() < deadline) return deadline;
          Demand d;
          d.src = h;
          d.multicast = true;
          d.group = group_size > 0 ? h / group_size : 0;
          d.length = packet_size;
          net.inject(d);
          deadline = net.sim().now() + period;
          return period > 0 ? deadline : kTimeNever;
        },
        span - 1));
    if (opts.fast_forward) {
      net.adapter(h).set_drain_listener(
          [p = pollers.back().get()] { p->wake(); });
    }
    pollers.back()->start();
  }

  // Bounded run (run_until below), so the watchdog is safe to arm: a
  // wedged configuration explains itself instead of burning the span.
  arm_watchdog(net, 200'000);

  const Time warmup = span / 5;
  net.metrics().set_window_start(warmup);
  std::vector<std::int64_t> rx_at_warmup(static_cast<std::size_t>(n_hosts), 0);
  std::vector<std::int64_t> drop_at_warmup(static_cast<std::size_t>(n_hosts), 0);
  std::vector<std::int64_t> recv_at_warmup(static_cast<std::size_t>(n_hosts), 0);
  net.sim().at(warmup, [&] {
    for (HostId h = 0; h < n_hosts; ++h) {
      rx_at_warmup[h] = net.adapter(h).payload_bytes_received();
      drop_at_warmup[h] = net.adapter(h).worms_dropped();
      recv_at_warmup[h] = net.adapter(h).worms_received();
    }
  });
  const auto run_t0 = std::chrono::steady_clock::now();
  net.run_until(span);
  const auto run_t1 = std::chrono::steady_clock::now();
  if (checking)
    opts.point->checks->collect(opts.point->slot, net, opts.check_label);

  TestbedResult out;
  out.sim_wall_ms =
      std::chrono::duration<double, std::milli>(run_t1 - run_t0).count();
  double rx_total = 0.0;
  double drops = 0.0;
  double arrivals = 0.0;
  int receivers = 0;
  for (HostId h = 0; h < n_hosts; ++h) {
    const double rx = static_cast<double>(
        net.adapter(h).payload_bytes_received() - rx_at_warmup[h]);
    const double dr =
        static_cast<double>(net.adapter(h).worms_dropped() - drop_at_warmup[h]);
    const double ac = static_cast<double>(net.adapter(h).worms_received() -
                                          recv_at_warmup[h]);
    // In the single-sender case the sender itself receives nothing; average
    // over the hosts that are actual receivers, as the paper does.
    if (opts.senders == 1 && h == 0) continue;
    ++receivers;
    rx_total += rx;
    drops += dr;
    arrivals += dr + ac;
  }
  const double window = static_cast<double>(span - warmup);
  out.throughput_mbps = to_mbps(rx_total / window / receivers);
  out.loss_rate = arrivals > 0.0 ? drops / arrivals : 0.0;
  out.events_dispatched = net.events_dispatched();
  out.event_queue_peak = static_cast<std::int64_t>(net.event_queue_peak());
  out.bytes_on_wire = net.fabric().fabric_bytes_sent();
  for (const auto& poller : pollers) out.app_polls += poller->polls();
  out.pool_fresh = static_cast<std::int64_t>(net.worm_pool().fresh_allocs());
  out.pool_reused = static_cast<std::int64_t>(net.worm_pool().reuses());
  out.trace_events = net.trace_recorded();
  out.trace_dropped = net.trace_dropped();
  CounterRegistry reg;
  net.register_counters(reg);
  out.counters = reg.snapshot();
  if (!opts.trace_out.empty()) {
    if (net.write_trace(opts.trace_out))
      std::fprintf(stderr, "# wrote %s (%lld events)\n",
                   opts.trace_out.c_str(),
                   static_cast<long long>(out.trace_events));
    else
      std::fprintf(stderr, "# could not write %s\n", opts.trace_out.c_str());
  }
  return out;
}

}  // namespace wormcast::bench

// wormbench_sim: one simulation of one benchmark workload, measured from
// outside the library.
//
//   wormbench_sim --workload <name> --seed <n> [--traced] [--spans-out <file>]
//
// Builds the workload through the public Network API, runs it for its fixed
// simulated span (cut into equal slices, then a bounded drain where the
// workload has one), and prints one JSON object on stdout: host-side
// timings, memory, message accounting, the per-layer counters the library
// exposes, and a physics digest. run.py runs this binary once per
// simulation and aggregates the results.
//
// Nothing here instruments src/: every number is a wall-clock span around a
// public call the benchmark makes, a public counter, or (with --traced) a
// count over the wormtrace flight recorder. The digest hashes Summary, the
// dispatched-event count and every non-mem_*, non-trace_* registered
// counter, so it pins the simulated physics: a traced run must hash equal
// to an untraced one, and a run equal to the recorded digest for its seed.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos_schedule.h"
#include "chaos/churn_engine.h"
#include "core/network.h"
#include "net/topologies.h"
#include "net/updown.h"
#include "sim/event_queue.h"
#include "sim/idle_poller.h"
#include "traffic/generator.h"
#include "traffic/groups.h"

namespace {

using namespace wormcast;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A "Vm...:" line of /proc/self/status in MiB (0 when unavailable).
double proc_status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, n, key) == 0)
      return std::strtod(line.c_str() + n, nullptr) / 1024.0;
  return 0.0;
}

// --- spans --------------------------------------------------------------------

/// Wall-clock spans around the public calls the benchmark makes, kept in
/// memory and written out (Chrome trace-event JSON) when the run ends. A
/// span's self time is its duration minus the time its child spans cover.
/// Disabled logs record nothing and read no clock.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    double begin_us = 0.0;
    double end_us = 0.0;
    double child_us = 0.0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (!log_.on_) return;
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back(Span{name, log_.now_us(), 0.0, 0.0, log_.open_});
      log_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& s = log_.spans_[static_cast<std::size_t>(index_)];
      s.end_us = log_.now_us();
      log_.open_ = s.parent;
      if (s.parent >= 0)
        log_.spans_[static_cast<std::size_t>(s.parent)].child_us +=
            s.end_us - s.begin_us;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  struct Totals {
    std::int64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };

  explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}

  [[nodiscard]] Totals totals(const std::string& name) const {
    Totals t;
    for (const Span& s : spans_) {
      if (name != s.name) continue;
      ++t.count;
      t.total_us += s.end_us - s.begin_us;
      t.self_us += s.end_us - s.begin_us - s.child_us;
    }
    return t;
  }

  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":%.3f}}",
                   i == 0 ? "" : ",", s.name, s.begin_us,
                   s.end_us - s.begin_us, s.end_us - s.begin_us - s.child_us);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

// --- workloads ----------------------------------------------------------------

// Section 8.2 testbed as deployed (bench/myrinet_testbed.h calibration):
// Hamiltonian store-and-forward, no reservation, 25 KB LANai pool of 4 KB
// receive slots, ~35k byte-times of per-packet adapter/driver cost.
constexpr Time kLanaiPacketOverhead = 35'000;
constexpr std::int64_t kLanaiBufferBytes = 25 * 1024;
constexpr Time kAppPoll = 512;  // application poll grid (byte-times)
// Apps start polling at a seeded phase in [kAppPoll, kAppPoll + kPhaseWindow).
// The window is narrow so torus1k_groups' synchronized first wave, which its
// span cuts short, covers the same share of the wave on every seed.
constexpr Time kPhaseWindow = 64;

struct WorkloadSpec {
  const char* name;
  Time span;        // simulated byte-times of traffic
  Time drain_cap;   // extra byte-times to drain in-flight messages (0 = none)
  Time slice_from;  // the span from here on is cut into equal slices
  int slices;
  std::size_t trace_capacity;  // wormtrace ring: large enough that none drop
};

// torus1k_groups is quiet until ~35.5k byte-times (every adapter first pays
// the 35k per-packet cost), then all 1024 hosts start their first 2 KB worm
// within kPhaseWindow byte-times. The slices cover the first ~700 byte-times
// of that wave, which already take the event queue to ~120k entries.
const WorkloadSpec kWorkloads[] = {
    {"testbed_allsend", 10'000'000, 0, 0, 10, std::size_t{1} << 22},
    {"torus1k_groups", 36'250, 0, 35'000, 10, std::size_t{1} << 19},
    {"torus64_switch_mcast", 160'000, 400'000, 0, 10, std::size_t{1} << 17},
    {"torus64_reliable_flap", 1'000'000, 2'000'000, 0, 10, std::size_t{1} << 22},
    {"torus64_reliable_churn", 1'000'000, 2'000'000, 0, 10, std::size_t{1} << 22},
};

/// One built workload instance: the network plus the drivers feeding it.
/// Member order matters: the drivers hold references into `net`, so they
/// are declared after it and destroyed before it.
struct Instance {
  const WorkloadSpec* spec = nullptr;
  std::vector<MulticastGroupSpec> groups;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<IdlePoller>> pollers;
  std::unique_ptr<TrafficGenerator> traffic;
  std::unique_ptr<ChaosSchedule> chaos;
  std::unique_ptr<ChurnEngine> churn;
  DeadlockWatchdog* watchdog = nullptr;
  // Driver-side counters.
  std::int64_t injects = 0;
  std::int64_t gate_depth_max = 0;
  std::int64_t flap_windows = 0;
  // Testbed throughput/loss window (Fig 12/13 accounting).
  Time warmup = 0;
  std::vector<std::int64_t> rx_at_warmup, drop_at_warmup, recv_at_warmup;
  // Setup phases (ms).
  double topology_ms = 0.0;
  double network_ms = 0.0;
  double drivers_ms = 0.0;
};

/// Hosts [offset + k*size, offset + (k+1)*size) mod n, for every k: disjoint
/// consecutive groups covering every host.
std::vector<MulticastGroupSpec> consecutive_groups(int n, int size, int offset) {
  std::vector<MulticastGroupSpec> groups;
  for (int g = 0; g * size < n; ++g) {
    MulticastGroupSpec spec;
    spec.id = g;
    for (int k = 0; k < size; ++k)
      spec.members.push_back((offset + g * size + k) % n);
    groups.push_back(std::move(spec));
  }
  return groups;
}

ExperimentConfig testbed_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.reservation = false;
  cfg.protocol.buffer_classes = false;
  cfg.protocol.pool_bytes = kLanaiBufferBytes;
  cfg.protocol.input_slot_bytes = 4 * 1024;
  cfg.adapter.tx_overhead = kLanaiPacketOverhead;
  cfg.traffic.offered_load = 1e-9;  // built-in generator unused
  cfg.seed = seed;
  return cfg;
}

/// Application pollers in the style of the testbed benches: host h injects
/// its next `length`-byte multicast to `group_of(h)` once its previous own
/// packet has left the adapter (closed loop) and, when `period > 0`, no
/// earlier than `period` after its previous send (open loop at 2 KB per
/// period, the large-fabric shape). Each host's poll grid starts at a
/// seeded phase (see kPhaseWindow).
void add_app_pollers(Instance& in, SpanLog& spans, RandomStream& rng,
                     std::int64_t length, Time period,
                     const std::vector<GroupId>& group_of) {
  Network& net = *in.net;
  const Time span = in.spec->span;
  in.pollers.reserve(group_of.size());
  for (HostId h = 0; h < static_cast<HostId>(group_of.size()); ++h) {
    const Time first = kAppPoll + rng.uniform(0, kPhaseWindow - 1);
    const GroupId g = group_of[static_cast<std::size_t>(h)];
    in.pollers.push_back(std::make_unique<IdlePoller>(
        net.sim(), first, kAppPoll, IdlePoller::Mode::kFastForward,
        [&net, &in, &spans, h, g, length, period, span,
         deadline = Time{0}]() mutable -> Time {
          if (net.sim().now() >= span) return kTimeNever;
          if (net.adapter(h).queued_own_originations() > 0) return kTimeNever;
          if (period > 0 && net.sim().now() < deadline) return deadline;
          Demand d;
          d.src = h;
          d.multicast = true;
          d.group = g;
          d.length = length;
          {
            SpanLog::Scope s(spans, "inject");
            net.inject(d);
          }
          ++in.injects;
          deadline = net.sim().now() + period;
          return period > 0 ? deadline : kTimeNever;
        },
        span - 1));
    net.adapter(h).set_drain_listener(
        [p = in.pollers.back().get()] { p->wake(); });
    in.pollers.back()->start();
  }
}

/// Fig 12/13 all-send 8 KB point: 8 closed-loop applications multicast to
/// the all-hosts group on the 4-switch / 8-host testbed.
void build_testbed(Instance& in, std::uint64_t seed, SpanLog& spans) {
  RandomStream rng(RandomStream::seed_mix(seed, 0x7E57BEDull));
  auto t0 = Clock::now();
  Topology topo = make_myrinet_testbed();
  in.topology_ms = seconds_since(t0) * 1e3;
  const int n = topo.num_hosts();
  in.groups = {make_full_group(n)};
  t0 = Clock::now();
  in.net = std::make_unique<Network>(std::move(topo), in.groups,
                                     testbed_config(seed));
  in.network_ms = seconds_since(t0) * 1e3;
  t0 = Clock::now();
  add_app_pollers(in, spans, rng, 8 * 1024, 0,
                  std::vector<GroupId>(static_cast<std::size_t>(n), 0));
  // Throughput/loss are measured after a span/5 warm-up, as fig12 does.
  in.warmup = in.spec->span / 5;
  in.rx_at_warmup.assign(static_cast<std::size_t>(n), 0);
  in.drop_at_warmup.assign(static_cast<std::size_t>(n), 0);
  in.recv_at_warmup.assign(static_cast<std::size_t>(n), 0);
  in.net->sim().at(in.warmup, [&in, n] {
    for (HostId h = 0; h < n; ++h) {
      in.rx_at_warmup[h] = in.net->adapter(h).payload_bytes_received();
      in.drop_at_warmup[h] = in.net->adapter(h).worms_dropped();
      in.recv_at_warmup[h] = in.net->adapter(h).worms_received();
    }
  });
  in.watchdog = &in.net->attach_watchdog(200'000);
  in.drivers_ms = seconds_since(t0) * 1e3;
}

/// The large-fabric torus32 point, shortened: 1024 hosts on a 32x32 torus
/// with 40 byte-time links, every host sending 2 KB to its consecutive
/// 8-host group every 20k byte-times (open loop). The seed picks the group
/// alignment and each host's poll phase.
void build_torus1k(Instance& in, std::uint64_t seed, SpanLog& spans) {
  RandomStream rng(RandomStream::seed_mix(seed, 0x70705ull));
  constexpr Time kLink = 40;
  constexpr int kGroup = 8;
  auto t0 = Clock::now();
  Topology topo = make_torus(32, 32, 1, kLink, kLink);
  in.topology_ms = seconds_since(t0) * 1e3;
  const int n = topo.num_hosts();
  const int offset = static_cast<int>(rng.uniform(0, kGroup - 1));
  in.groups = consecutive_groups(n, kGroup, offset);
  t0 = Clock::now();
  in.net = std::make_unique<Network>(std::move(topo), in.groups,
                                     testbed_config(seed));
  in.network_ms = seconds_since(t0) * 1e3;
  t0 = Clock::now();
  std::vector<GroupId> group_of(static_cast<std::size_t>(n));
  for (const MulticastGroupSpec& g : in.groups)
    for (HostId h : g.members) group_of[static_cast<std::size_t>(h)] = g.id;
  add_app_pollers(in, spans, rng, 2048, 20'000, group_of);
  in.watchdog = &in.net->attach_watchdog(200'000);
  in.drivers_ms = seconds_since(t0) * 1e3;
}

/// Section 3 switch-level multicast on the 8x8 torus: scheme (b)
/// interrupt, load-aware trees re-planned every 40k byte-times, 12 random
/// 8-member groups, one 1 KB multicast every 2,000 byte-times from a
/// rotating member (open loop).
void build_smcast(Instance& in, std::uint64_t seed, SpanLog& spans) {
  RandomStream rng(RandomStream::seed_mix(seed, 0x5CA57ull));
  constexpr Time kGap = 2'000;
  constexpr Time kReplan = 40'000;
  auto t0 = Clock::now();
  Topology topo = make_torus(8, 8);
  in.topology_ms = seconds_since(t0) * 1e3;
  in.groups = make_random_groups(12, 8, topo.num_hosts(), rng);
  ExperimentConfig cfg;
  cfg.switch_mcast.scheme = SwitchMcastScheme::kInterrupt;
  cfg.tree.kind = TreeStrategyKind::kLoadAware;
  cfg.seed = seed;
  t0 = Clock::now();
  in.net = std::make_unique<Network>(std::move(topo), in.groups, cfg);
  in.network_ms = seconds_since(t0) * 1e3;
  t0 = Clock::now();
  Network& net = *in.net;
  const Time span = in.spec->span;
  const int n_groups = static_cast<int>(in.groups.size());
  for (Time t = kGap; t < span; t += kGap) {
    const std::int64_t k = t / kGap - 1;
    net.sim().at(t, [&net, &in, &spans, k, n_groups] {
      const auto g = static_cast<GroupId>(k % n_groups);
      const auto& order = net.tables().circuit(g).order();
      const HostId src = order[static_cast<std::size_t>(k / n_groups) %
                               order.size()];
      {
        SpanLog::Scope s(spans, "send_switch_multicast");
        (void)net.send_switch_multicast(src, g, 1024);
      }
      in.gate_depth_max = std::max<std::int64_t>(
          in.gate_depth_max, static_cast<std::int64_t>(net.mcast_gate_depth()));
    });
  }
  for (Time t = kReplan; t < span; t += kReplan)
    net.sim().at(t, [&net, &spans] {
      SpanLog::Scope s(spans, "replan_trees");
      (void)net.replan_trees();
    });
  in.watchdog = &net.attach_watchdog(250'000);
  in.drivers_ms = seconds_since(t0) * 1e3;
}

/// Sections 4-6 reliable host-adapter multicast on the 8x8 torus: 16
/// overlapping 8-member groups (ring windows, stride 4, over a seeded host
/// permutation, so every host is in two groups), rooted-tree broadcast with
/// two buffer classes and a 6 KB pool, Poisson multicast traffic at load
/// 0.012, ACK timeouts with suspicion and 4 flapping links; with `churn_on`,
/// Poisson joins and leaves as well. (At load 0.03 this fabric tips into
/// retransmission storms on some seeds, which makes host cost bimodal
/// across seeds.) With churn, most seeds leave 1-4 messages outstanding
/// forever, reported as lost.
void build_reliable(Instance& in, std::uint64_t seed, SpanLog& spans,
                    bool churn_on) {
  RandomStream rng(RandomStream::seed_mix(seed, 0xE11AB1Eull));
  auto t0 = Clock::now();
  Topology topo = make_torus(8, 8);
  in.topology_ms = seconds_since(t0) * 1e3;
  const int n = topo.num_hosts();
  std::vector<HostId> perm(static_cast<std::size_t>(n));
  for (HostId h = 0; h < n; ++h) perm[static_cast<std::size_t>(h)] = h;
  rng.shuffle(perm);
  for (GroupId g = 0; g < 16; ++g) {
    MulticastGroupSpec spec;
    spec.id = g;
    for (int k = 0; k < 8; ++k)
      spec.members.push_back(perm[static_cast<std::size_t>((4 * g + k) % n)]);
    in.groups.push_back(std::move(spec));
  }
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kTreeBroadcast;
  cfg.protocol.reservation = true;
  cfg.protocol.buffer_classes = true;
  cfg.protocol.pool_bytes = 6 * 1024;
  cfg.protocol.ack_timeout = 30'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  cfg.protocol.max_attempts = 10;
  cfg.protocol.suspicion_timeout = 60'000;
  cfg.traffic.offered_load = 0.012;
  cfg.traffic.multicast_fraction = 1.0;
  cfg.traffic.max_worm_len = 2 * 1024;  // fits one buffer class's share
  cfg.seed = seed;
  t0 = Clock::now();
  in.net = std::make_unique<Network>(std::move(topo), in.groups, cfg);
  in.network_ms = seconds_since(t0) * 1e3;
  t0 = Clock::now();
  Network& net = *in.net;
  const Time span = in.spec->span;
  in.traffic = std::make_unique<TrafficGenerator>(
      net.sim(), cfg.traffic, in.groups, n,
      RandomStream(RandomStream::seed_mix(seed, 0x7AFF1Cull)),
      [&net, &in, &spans](const Demand& d) {
        {
          SpanLog::Scope s(spans, "inject");
          net.inject(d);
        }
        ++in.injects;
      });
  in.traffic->start(span);
  in.chaos = std::make_unique<ChaosSchedule>(
      net, RandomStream::seed_mix(seed, 0xC4A05ull));
  in.flap_windows =
      in.chaos->flap_random_links(4, span / 10, (9 * span) / 10, 6'000, 25'000);
  if (churn_on) {
    std::vector<GroupId> ids;
    for (const MulticastGroupSpec& g : in.groups) ids.push_back(g.id);
    ChurnConfig churn;
    churn.mean_gap = 15'000;
    churn.from = span / 20;
    churn.until = span;
    // Leaves stop at 7 members, so group sizes hover around their initial 8
    // instead of random-walking, and the work per message stays comparable
    // across seeds.
    churn.min_members = 7;
    in.churn = std::make_unique<ChurnEngine>(
        net, ids, churn, RandomStream(RandomStream::seed_mix(seed, 0x4C42ull)));
    in.churn->start();
  }
  in.watchdog = &net.attach_watchdog(250'000);
  in.drivers_ms = seconds_since(t0) * 1e3;
}

std::unique_ptr<Instance> build(const WorkloadSpec& spec, std::uint64_t seed,
                                SpanLog& spans) {
  auto in = std::make_unique<Instance>();
  in->spec = &spec;
  const std::string name = spec.name;
  if (name == "testbed_allsend") build_testbed(*in, seed, spans);
  else if (name == "torus1k_groups") build_torus1k(*in, seed, spans);
  else if (name == "torus64_switch_mcast") build_smcast(*in, seed, spans);
  else build_reliable(*in, seed, spans, name == "torus64_reliable_churn");
  return in;
}

// --- physics digest -------------------------------------------------------------

class Fnv64 {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void value(T v) {
    bytes(&v, sizeof v);
  }
  void text(const std::string& s) { bytes(s.data(), s.size() + 1); }
  [[nodiscard]] std::uint64_t get() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t physics_digest(Network& net) {
  const Network::Summary s = net.summary();
  Fnv64 h;
  for (double v : {s.offered_load, s.measured_utilization, s.mcast_latency_mean,
                   s.mcast_latency_p95, s.mcast_completion_mean,
                   s.unicast_latency_mean, s.throughput_per_host,
                   s.join_latency_mean, s.join_latency_p95})
    h.value(v);
  for (std::int64_t v :
       {s.mcast_samples, s.mcast_completion_samples, s.unicast_samples,
        s.messages, s.drops, s.nacks, s.retransmits, s.outstanding,
        s.oldest_outstanding_age, s.fabric_overflows, s.faults_injected,
        s.bytes_swallowed, s.ack_timeouts, s.duplicates_suppressed,
        s.deliveries_failed, s.messages_completed, s.suspicions,
        s.hosts_crashed, s.hosts_removed, s.links_failed, s.sends_rerouted,
        s.messages_disrupted, s.unicasts_flushed, s.last_repair_time,
        s.joins_requested, s.joins_applied, s.joins_shed, s.joins_abandoned,
        s.rejoins, s.leaves, s.join_samples, s.membership_queue_peak,
        s.flap_windows})
    h.value(v);
  h.value(net.events_dispatched());
  CounterRegistry reg;
  net.register_counters(reg);
  for (const auto& [name, v] : reg.snapshot()) {
    if (name.rfind("mem_", 0) == 0 || name.rfind("trace_", 0) == 0) continue;
    h.text(name);
    h.value(v);
  }
  return h.get();
}

// --- layer probes ------------------------------------------------------------------

/// EventQueue schedule+pop cost at a given depth (classic hold model): the
/// queue is filled to `depth`, then each step pops the head and schedules
/// one event a uniform 1..1000 byte-times after it. ns per step.
double probe_queue_ns(std::size_t depth, std::uint64_t seed) {
  constexpr std::size_t kSteps = std::size_t{1} << 18;
  RandomStream rng(RandomStream::seed_mix(seed, 0x0E0Eull));
  std::vector<Time> incr(kSteps);
  for (Time& t : incr) t = rng.uniform(1, 1000);
  EventQueue q(ExperimentConfig().engine.queue);
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i)
    q.schedule(rng.uniform(0, 1000), [] {});
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kSteps; ++i) {
    const Time t = q.pop().time;
    q.schedule(t + incr[i], [] {});
  }
  return seconds_since(t0) * 1e9 / static_cast<double>(kSteps);
}

struct RoutingProbe {
  double build_ms = 0.0;
  double route_ns = 0.0;
};

/// Fresh UpDownRouting over the workload's topology, then route() (cold
/// per-pair cache) for every ordered pair of members of every group.
RoutingProbe probe_routing(Network& net, const std::vector<MulticastGroupSpec>& groups) {
  RoutingProbe out;
  auto t0 = Clock::now();
  const UpDownRouting routing(net.topology());
  out.build_ms = seconds_since(t0) * 1e3;
  std::vector<std::pair<HostId, HostId>> pairs;
  for (const MulticastGroupSpec& g : groups)
    for (HostId a : g.members)
      for (HostId b : g.members)
        if (a != b) pairs.emplace_back(a, b);
  t0 = Clock::now();
  for (const auto& [a, b] : pairs) (void)routing.route(a, b);
  const double s = seconds_since(t0);
  if (!pairs.empty()) out.route_ns = s * 1e9 / static_cast<double>(pairs.size());
  return out;
}

// --- trace accounting --------------------------------------------------------------

struct TraceCounts {
  std::int64_t chan = 0, sw = 0, mcast = 0, adapter = 0, proto = 0;
  std::int64_t stop_go = 0, arb_grants = 0, holds = 0, interrupts = 0;
  std::int64_t burst_bytes = 0, acks = 0, probes = 0;
};

bool in_range(TraceEventType t, TraceEventType lo, TraceEventType hi) {
  return t >= lo && t <= hi;
}

TraceCounts count_trace(const Tracer& tracer) {
  TraceCounts c;
  // snapshot() defaults to the last 2^20 events; ask for all of them.
  for (const TraceEvent& e :
       tracer.snapshot(static_cast<std::size_t>(tracer.recorded()))) {
    using T = TraceEventType;
    if (in_range(e.type, T::kChanStop, T::kChanSwallow)) ++c.chan;
    else if (in_range(e.type, T::kArbGrant, T::kMcastIdleFlush)) ++c.sw;
    else if (in_range(e.type, T::kMcastStart, T::kMcastFinish)) ++c.mcast;
    else if (in_range(e.type, T::kAdpTxStart, T::kAdpRxTruncated)) ++c.adapter;
    else ++c.proto;
    switch (e.type) {
      case T::kChanStop:
      case T::kChanGo: ++c.stop_go; break;
      case T::kArbGrant: ++c.arb_grants; break;
      case T::kMcastHold: ++c.holds; break;
      case T::kMcastInterrupt: ++c.interrupts; break;
      case T::kChanBurst: c.burst_bytes += e.arg; break;
      case T::kProtoAckSent: ++c.acks; break;
      case T::kProtoProbe: ++c.probes; break;
      default: break;
    }
  }
  return c;
}

// --- output ------------------------------------------------------------------------

class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n' || c == '\t') ? ' ' : c;
    }
    add(key, q + "\"");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + v;
  }
  std::string body_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

int run(const WorkloadSpec& spec, std::uint64_t seed, bool traced,
        const std::string& spans_out) {
  JsonOut out;
  out.str("workload", spec.name);
  out.num("seed", static_cast<double>(seed));
  out.num("traced", traced ? 1 : 0);
  out.str("compiler", WORMBENCH_COMPILER);
  out.str("build_type", WORMBENCH_BUILD_TYPE);
#if defined(WORMCAST_TRACE_DISABLED)
  out.num("trace_compiled_in", 0);
#else
  out.num("trace_compiled_in", 1);
#endif

  // Setup, repeated (at least twice, and for at least 50 ms): every build
  // but the last is discarded, and setup_s is their median (the 8- and
  // 64-host builds take well under a millisecond, so one sample would be
  // mostly noise).
  SpanLog spans(traced);
  std::vector<double> setup_samples;
  std::unique_ptr<Instance> in;
  const auto setup_t0 = Clock::now();
  for (int rep = 0;; ++rep) {
    const bool last =
        rep + 1 >= 200 || (rep + 1 >= 2 && seconds_since(setup_t0) >= 0.05);
    const auto t0 = Clock::now();
    if (!last) {
      SpanLog off(false);
      const std::unique_ptr<Instance> discarded = build(spec, seed, off);
      setup_samples.push_back(seconds_since(t0));
      continue;
    }
    {
      SpanLog::Scope s(spans, "setup");
      in = build(spec, seed, spans);
    }
    if (traced) in->net->enable_tracing(spec.trace_capacity);
    else setup_samples.push_back(seconds_since(t0));
    break;
  }
  Network& net = *in->net;

  // The event loop: equal simulated slices, then a bounded drain.
  std::vector<double> slice_ms;
  double rss_first = 0.0, rss_last = 0.0;
  const auto run_t0 = Clock::now();
  if (spec.slice_from > 0) {
    SpanLog::Scope s(spans, "run_until");
    net.run_until(spec.slice_from);
  }
  for (int i = 1; i <= spec.slices; ++i) {
    const auto t0 = Clock::now();
    {
      SpanLog::Scope s(spans, "run_until");
      net.run_until(spec.slice_from +
                    (spec.span - spec.slice_from) * i / spec.slices);
    }
    slice_ms.push_back(seconds_since(t0) * 1e3);
    const double rss = proc_status_mb("VmRSS:");
    if (i == 1) rss_first = rss;
    rss_last = rss;
  }
  const Time drain_end = spec.span + spec.drain_cap;
  while (spec.drain_cap > 0 && net.metrics().outstanding() > 0 &&
         net.sim().now() < drain_end) {
    SpanLog::Scope s(spans, "drain");
    net.run_until(std::min(drain_end, net.sim().now() + 10'000));
  }
  const double run_s = seconds_since(run_t0);
  const double peak_rss_mb = proc_status_mb("VmHWM:");

  // Accounting.
  Network::Summary summary;
  {
    SpanLog::Scope s(spans, "summary");
    summary = net.summary();
  }
  const std::uint64_t digest = physics_digest(net);
  const bool wedged = in->watchdog->deadlock_detected() &&
                      in->watchdog->detection_time() < spec.span;
  const std::int64_t ops = net.metrics().messages_created();
  // Lost forever: still outstanding after the drain, neither delivered nor
  // reported failed. Workloads without a drain are the as-deployed testbed
  // configuration, whose input-buffer drops are physics (Fig 13).
  const std::int64_t lost = spec.drain_cap > 0 ? net.metrics().outstanding() : 0;
  const std::int64_t ops_failed = wedged ? ops : lost;

  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
  out.str("digest", hex);
  out.num("setup_s", median(setup_samples));
  out.num("run_s", run_s);
  out.num("peak_rss_mb", peak_rss_mb);
  out.num("ops", static_cast<double>(ops));
  out.num("ops_failed", static_cast<double>(ops_failed));
  out.num("lost", static_cast<double>(lost));
  out.num("wedged", wedged ? 1 : 0);
  out.num("fabric_overflows", static_cast<double>(summary.fabric_overflows));

  // sim
  const auto events = net.events_dispatched();
  std::int64_t polls = 0;
  for (const auto& p : in->pollers) polls += p->polls();
  const std::int64_t fabric_bytes = net.fabric().fabric_bytes_sent();
  out.num("sim.events", static_cast<double>(events));
  out.num("sim.ns_per_event", events > 0 ? run_s * 1e9 / events : 0.0);
  out.num("sim.app_polls", static_cast<double>(polls));
  out.num("sim.queue_peak", static_cast<double>(net.event_queue_peak()));
  out.num("sim.rss_growth_mb", rss_last - rss_first);
  out.num("sim.arena_fresh", static_cast<double>(net.worm_pool().fresh_allocs()));
  out.num("sim.arena_reused", static_cast<double>(net.worm_pool().reuses()));
  out.num("sim.slice_ms_p50", median(slice_ms));
  out.num("sim.slice_ms_max", *std::max_element(slice_ms.begin(), slice_ms.end()));
  // net
  out.num("net.fabric_bytes", static_cast<double>(fabric_bytes));
  out.num("net.events_per_byte",
          fabric_bytes > 0 ? static_cast<double>(events) / fabric_bytes : 0.0);
  // adapter
  std::int64_t tx = 0, rx = 0, drops = 0;
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    tx += net.adapter(h).worms_sent();
    rx += net.adapter(h).worms_received();
    drops += net.adapter(h).worms_dropped();
  }
  out.num("adapter.tx_worms", static_cast<double>(tx));
  out.num("adapter.rx_worms", static_cast<double>(rx));
  out.num("adapter.rx_drops", static_cast<double>(drops));
  // core (setup phases, driver-side counters, registered counters)
  out.num("net.topology_ms", in->topology_ms);
  out.num("core.network_build_ms", in->network_ms);
  out.num("traffic.drivers_build_ms", in->drivers_ms);
  out.num("core.injects", static_cast<double>(in->injects));
  out.num("core.gate_depth_max", static_cast<double>(in->gate_depth_max));
  out.num("core.repairs", static_cast<double>(net.metrics().repairs()));
  out.num("traffic.messages", static_cast<double>(ops));
  out.num("chaos.churn_ops",
          in->churn ? static_cast<double>(in->churn->ops_issued()) : 0.0);
  out.num("chaos.flap_windows", static_cast<double>(in->flap_windows));
  CounterRegistry reg;
  net.register_counters(reg);
  for (const auto& [name, v] : reg.snapshot()) out.num("counter." + name, v);

  // Fig 12/13 accounting on the testbed workload: received payload rate per
  // host (Mb/s at 640 Mb/s line rate) and input-buffer loss after warm-up.
  if (!in->rx_at_warmup.empty()) {
    double rx_total = 0.0, dropped = 0.0, arrivals = 0.0;
    for (HostId h = 0; h < net.num_hosts(); ++h) {
      const double r = static_cast<double>(net.adapter(h).payload_bytes_received() -
                                           in->rx_at_warmup[h]);
      const double d = static_cast<double>(net.adapter(h).worms_dropped() -
                                           in->drop_at_warmup[h]);
      const double a = static_cast<double>(net.adapter(h).worms_received() -
                                           in->recv_at_warmup[h]);
      rx_total += r;
      dropped += d;
      arrivals += d + a;
    }
    const double window = static_cast<double>(spec.span - in->warmup);
    out.num("testbed.throughput_mbps",
            rx_total / window / net.num_hosts() * 640.0);
    out.num("testbed.loss_rate", arrivals > 0 ? dropped / arrivals : 0.0);
  }

  if (traced) {
    // Counts over the whole flight recorder, then wormcheck (which sees
    // only what merged_trace_snapshot() hands it).
    const Tracer& tracer = net.sim().tracer();
    const TraceCounts c = count_trace(tracer);
    out.num("trace.events", static_cast<double>(tracer.recorded()));
    out.num("trace.dropped", static_cast<double>(net.trace_dropped()));
    out.num("trace.events_channel", static_cast<double>(c.chan));
    out.num("trace.events_switch", static_cast<double>(c.sw));
    out.num("trace.events_mcast", static_cast<double>(c.mcast));
    out.num("trace.events_adapter", static_cast<double>(c.adapter));
    out.num("trace.events_protocol", static_cast<double>(c.proto));
    out.num("net.stop_go", static_cast<double>(c.stop_go));
    out.num("net.arb_grants", static_cast<double>(c.arb_grants));
    out.num("net.mcast_holds", static_cast<double>(c.holds));
    out.num("net.mcast_interrupts", static_cast<double>(c.interrupts));
    out.num("net.burst_share",
            fabric_bytes > 0 ? static_cast<double>(c.burst_bytes) / fabric_bytes
                             : 0.0);
    out.num("core.acks", static_cast<double>(c.acks));
    out.num("core.probes", static_cast<double>(c.probes));
    check::CheckReport rep;
    const auto t0 = Clock::now();
    {
      SpanLog::Scope s(spans, "check_expectations");
      rep = net.check_expectations();
    }
    out.num("check.ms", seconds_since(t0) * 1e3);
    out.num("check.obligations", static_cast<double>(rep.obligations));
    out.num("check.violations", static_cast<double>(rep.violations.size()));
    out.num("check.coverage",
            tracer.recorded() > 0 ? static_cast<double>(rep.events_checked) /
                                        static_cast<double>(tracer.recorded())
                                  : 0.0);
    if (!rep.usable)
      std::fprintf(stderr, "wormbench: check refused: %s\n", rep.refusal.c_str());

    // Probes of single layers on this workload's own inputs.
    out.num("sim.queue_probe_ns",
            probe_queue_ns(net.event_queue_peak(), seed));
    const RoutingProbe rp = probe_routing(net, in->groups);
    out.num("net.routing_build_ms", rp.build_ms);
    out.num("net.route_ns", rp.route_ns);

    // Span totals (self time = span minus the spans nested inside it).
    for (const char* name : {"run_until", "drain", "inject",
                             "send_switch_multicast", "replan_trees"}) {
      const SpanLog::Totals t = spans.totals(name);
      out.num(std::string("span.") + name + ".count", static_cast<double>(t.count));
      out.num(std::string("span.") + name + ".total_ms", t.total_us / 1e3);
      out.num(std::string("span.") + name + ".self_ms", t.self_us / 1e3);
    }
    if (!spans_out.empty() && !spans.write_chrome(spans_out))
      std::fprintf(stderr, "wormbench: could not write %s\n", spans_out.c_str());
  }

  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_out;
  std::uint64_t seed = 0;
  bool traced = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (a == "--traced") {
      traced = true;
    } else if (a == "--spans-out" && i + 1 < argc) {
      spans_out = argv[++i];
    } else {
      std::fprintf(stderr, "wormbench_sim: unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads)
    if (workload == w.name) spec = &w;
  if (spec == nullptr || !have_seed) {
    std::fprintf(stderr,
                 "usage: wormbench_sim --workload <name> --seed <n> "
                 "[--traced] [--spans-out <file>]\nworkloads:");
    for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    return run(*spec, seed, traced, spans_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wormbench_sim: %s\n", e.what());
    return 1;
  }
}

// The sharded in-run engine's contract (core/network.h, EngineConfig):
// at any --shards count the simulation computes bit-identical physics —
// same Summary, same byte counters, same delivery pattern — only wall
// time may move. These tests run the same small workload on the classic
// single-queue engine and on sharded engines and compare field by field,
// plus the v1 guard rails: configurations the sharded engine does not
// support yet must throw up front, not silently diverge.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/network.h"
#include "net/topologies.h"
#include "traffic/groups.h"

namespace wormcast {
namespace {

ExperimentConfig sharded_config(int shards) {
  ExperimentConfig cfg;
  cfg.engine.shards = shards;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.traffic.offered_load = 1e-9;  // inject directly
  return cfg;
}

// A 4x4 torus with traffic crossing every shard boundary: each host
// multicasts to the all-hosts group, so worms traverse switches owned by
// different executors and the cross-executor channel path carries real
// byte/STOP-GO interaction.
Network::Summary run_all_send(int shards, std::int64_t* bytes_on_wire,
                              std::int64_t* payload_delivered) {
  Network net(make_torus(4, 4), {make_full_group(16)},
              sharded_config(shards));
  for (HostId h = 0; h < 16; ++h) {
    Demand d;
    d.src = h;
    d.multicast = true;
    d.group = 0;
    d.length = 600;
    net.inject(d);
  }
  net.run_to_quiescence();
  *bytes_on_wire = net.fabric().fabric_bytes_sent();
  *payload_delivered = net.metrics().payload_delivered();
  return net.summary();
}

TEST(ShardDeterminism, AllSendMatchesUnshardedBitForBit) {
  std::int64_t bytes1 = 0;
  std::int64_t payload1 = 0;
  const Network::Summary s1 = run_all_send(1, &bytes1, &payload1);
  ASSERT_EQ(s1.messages_completed, 16);
  ASSERT_GT(payload1, 0);
  for (const int shards : {2, 4}) {
    std::int64_t bytes = 0;
    std::int64_t payload = 0;
    const Network::Summary s = run_all_send(shards, &bytes, &payload);
    EXPECT_EQ(bytes, bytes1) << shards << " shards";
    EXPECT_EQ(payload, payload1) << shards << " shards";
    EXPECT_EQ(s.messages_completed, s1.messages_completed);
    EXPECT_EQ(s.messages, s1.messages);
    EXPECT_EQ(s.drops, s1.drops);
    EXPECT_EQ(s.nacks, s1.nacks);
    EXPECT_EQ(s.retransmits, s1.retransmits);
    EXPECT_EQ(s.outstanding, s1.outstanding);
    EXPECT_EQ(s.fabric_overflows, 0);
    EXPECT_EQ(s.mcast_samples, s1.mcast_samples);
    // Latencies are time-domain physics, not telemetry: exact match.
    EXPECT_EQ(s.mcast_latency_mean, s1.mcast_latency_mean);
    EXPECT_EQ(s.mcast_latency_p95, s1.mcast_latency_p95);
    EXPECT_EQ(s.mcast_completion_mean, s1.mcast_completion_mean);
  }
}

// The deadlock watchdog runs on executor 0 and, under sharding, sums every
// executor's progress counter while worker executors are mid-window bumping
// their own. Each counter has a single writer (its executor's thread) and
// the watchdog only reads, which the relaxed-atomic counter must keep
// race-free (the TSan job runs this). A healthy run never trips it.
TEST(ShardDeterminism, WatchdogReadsWorkerProgressMidWindow) {
  Network net(make_torus(4, 4), {make_full_group(16)}, sharded_config(4));
  const DeadlockWatchdog& dog = net.attach_watchdog(200);
  for (HostId h = 0; h < 16; ++h) {
    Demand d;
    d.src = h;
    d.multicast = true;
    d.group = 0;
    d.length = 600;
    net.inject(d);
  }
  net.run_until(20'000);  // quiescent by ~10k
  EXPECT_FALSE(dog.deadlock_detected()) << dog.report();
  EXPECT_EQ(net.summary().messages_completed, 16);
  ASSERT_NE(net.engine(), nullptr);
  EXPECT_GT(net.engine()->progress(), net.sim().progress());
}

TEST(ShardDeterminism, MoreShardsThanSwitchesClampsAndStillMatches) {
  std::int64_t bytes1 = 0;
  std::int64_t payload1 = 0;
  const Network::Summary s1 = run_all_send(1, &bytes1, &payload1);
  // 64 executors for 16 switches: the plan clamps workers to the switch
  // count rather than creating idle executors.
  std::int64_t bytes = 0;
  std::int64_t payload = 0;
  const Network::Summary s = run_all_send(64, &bytes, &payload);
  EXPECT_EQ(bytes, bytes1);
  EXPECT_EQ(payload, payload1);
  EXPECT_EQ(s.messages_completed, s1.messages_completed);
}

TEST(ShardDeterminism, ShardsOfOneUsesClassicEngine) {
  Network net(make_torus(2, 2), {make_full_group(4)}, sharded_config(1));
  EXPECT_EQ(net.num_executors(), 1);
  EXPECT_EQ(net.engine(), nullptr);
}

TEST(ShardDeterminism, ReportsExecutorCount) {
  Network net(make_torus(4, 4), {make_full_group(16)}, sharded_config(3));
  EXPECT_EQ(net.num_executors(), 3);
  EXPECT_NE(net.engine(), nullptr);
}

TEST(ShardGuards, RejectsInvalidShardCount) {
  EXPECT_THROW(
      Network(make_torus(2, 2), {make_full_group(4)}, sharded_config(0)),
      std::invalid_argument);
}

TEST(ShardGuards, RejectsFaultInjectionUnderSharding) {
  ExperimentConfig cfg = sharded_config(2);
  cfg.faults.worm_kill_rate = 1e-6;
  cfg.protocol.ack_timeout = 50'000;
  EXPECT_THROW(Network(make_torus(2, 2), {make_full_group(4)}, cfg),
               std::logic_error);
  // The same config runs fine unsharded.
  cfg.engine.shards = 1;
  EXPECT_NO_THROW(Network(make_torus(2, 2), {make_full_group(4)}, cfg));
}

TEST(ShardGuards, RejectsLoadAwareStrategyUnderSharding) {
  ExperimentConfig cfg = sharded_config(2);
  cfg.tree.kind = TreeStrategyKind::kLoadAware;
  EXPECT_THROW(Network(make_torus(2, 2), {make_full_group(4)}, cfg),
               std::logic_error);
}

TEST(ShardGuards, RejectsRuntimeFaultEntryPoints) {
  Network net(make_torus(2, 2), {make_full_group(4)}, sharded_config(2));
  EXPECT_THROW(net.crash_host(0, 100), std::logic_error);
  EXPECT_THROW(net.fail_link(0, 100), std::logic_error);
}

// The memory-audit acceptance point: a 4k-host fabric (64x64 torus, one
// host per switch) must construct well inside 2 GiB. The capacity-based
// mem_* counters are the budget we assert on — they are deterministic,
// unlike RSS — and the LazyDeque trim (sim/lazy_deque.h) is what keeps
// the fabric term small: ~70k port/channel queues at ~600 bytes of eager
// deque chunk each used to dominate construction.
TEST(MemoryAudit, FourKHostNetworkBuildsSmall) {
  ExperimentConfig cfg;
  cfg.traffic.offered_load = 1e-9;
  std::vector<MulticastGroupSpec> groups;
  for (int g = 0; g * 8 < 64 * 64; ++g) {
    MulticastGroupSpec spec;
    spec.id = g;
    for (int m = g * 8; m < (g + 1) * 8; ++m) spec.members.push_back(m);
    groups.push_back(std::move(spec));
  }
  Network net(make_torus(64, 64), std::move(groups), cfg);
  CounterRegistry reg;
  net.register_counters(reg);
  double total = 0.0;
  double fabric = 0.0;
  for (const auto& [name, value] : reg.snapshot()) {
    if (name.rfind("mem_", 0) == 0) total += value;
    if (name == "mem_fabric_bytes") fabric = value;
  }
  EXPECT_GT(fabric, 0.0);
  // Audited subsystems stay under 256 MiB — an order of magnitude inside
  // the 2 GiB budget, with slack for the unaudited remainder (object
  // shells, closures, strings) which the RSS probe puts at ~2x.
  EXPECT_LT(total, 256.0 * 1024 * 1024);
  // The fabric term specifically: ~2.1 KiB per channel direction and
  // ~1.3 KiB per switch, not the ~16 KiB per node the eager queues cost.
  EXPECT_LT(fabric, 32.0 * 1024 * 1024);
}

// The running-network half of the memory audit: a 16x16 torus whose 256
// hosts all start a 2 KB multicast at once takes the event queue to ~32k
// pending per-byte channel events. The queue's capacity-based
// footprint must track that peak: a 96-byte slot, a free-list index and
// (far-future events only) a 24-byte overflow entry per parked event, with
// headroom for the slot arena's geometric growth, plus the fixed wheel.
// The bucketed calendar this replaced kept each bucket's capacity across
// resizes and reported ~3 KiB per peak entry on this run.
TEST(MemoryAudit, RunningTorusQueueTracksItsPeak) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.traffic.offered_load = 1e-9;  // inject directly
  std::vector<MulticastGroupSpec> groups;
  for (int g = 0; g * 8 < 16 * 16; ++g) {
    MulticastGroupSpec spec;
    spec.id = g;
    for (int m = g * 8; m < (g + 1) * 8; ++m) spec.members.push_back(m);
    groups.push_back(std::move(spec));
  }
  Network net(make_torus(16, 16, 1, 40, 40), std::move(groups), cfg);
  for (HostId h = 0; h < 16 * 16; ++h) {
    Demand d;
    d.src = h;
    d.multicast = true;
    d.group = h / 8;
    d.length = 2048;
    net.inject(d);
  }
  net.run_until(1'500);
  CounterRegistry reg;
  net.register_counters(reg);
  double queues = 0.0;
  double peak = 0.0;
  for (const auto& [name, value] : reg.snapshot()) {
    if (name == "mem_queues_bytes") queues = value;
    if (name == "event_queue_peak") peak = value;
  }
  EXPECT_GT(peak, 8'000.0);
  EXPECT_LE(queues, 160.0 * peak + 32.0 * 1024);
}

}  // namespace
}  // namespace wormcast
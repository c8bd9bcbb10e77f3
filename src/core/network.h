// Facade: builds a complete simulated wormhole LAN — fabric, up/down
// routing, host adapters, multicast protocol engines, traffic — and runs
// experiments over it. This is the top-level public API; the examples and
// benches are written against it.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "adapter/host_adapter.h"
#include "check/wormcheck.h"
#include "core/group_tables.h"
#include "core/host_protocol.h"
#include "core/metrics.h"
#include "core/protocol_config.h"
#include "net/fabric.h"
#include "net/switch_mcast_engine.h"
#include "net/topology.h"
#include "net/tree_strategy.h"
#include "net/updown.h"
#include "net/worm.h"
#include "sim/arena.h"
#include "sim/counters.h"
#include "sim/fault_injector.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "sim/watchdog.h"
#include "traffic/generator.h"
#include "traffic/groups.h"

namespace wormcast {

/// Knobs of the membership-churn coordinator. Joins and leaves flow
/// through one bounded queue paced at `op_cost` byte-times per operation
/// (the control-plane cost of a splice); a join arriving at a full queue
/// is *shed* and retried with capped exponential back-off plus jitter
/// (the same discipline as NACK retransmission). Leaves are never shed:
/// a departure must not be deniable, or the leaver would keep receiving
/// traffic it no longer wants.
struct MembershipConfig {
  /// Maximum queued operations before joins are shed. 0 disables
  /// shedding (an unbounded queue).
  int queue_limit = 64;
  /// Byte-times of coordinator work per queued operation.
  Time op_cost = 2'000;
  /// Total tries per join intent (initial + retries after sheds); once
  /// exhausted the shed is final and the join is abandoned.
  int max_join_attempts = 5;
  /// Back-off base/jitter between a shed and its retry (doubles per
  /// attempt, capped at 16x the base).
  Time retry_backoff = 8'000;
  Time retry_jitter = 4'000;
  /// Obligation window: a join request must be applied or shed within
  /// this long (wormcheck's join-grace rule), and a freshly applied join
  /// gives pre-join in-flight messages this long to finish before the
  /// settle sweep writes them off (mirrors repair_grace: a worm already
  /// in a channel carries a hop budget sized for the pre-join circuit).
  Time join_grace = 150'000;
};

/// Simulator-engine knobs. These pick implementations, not behavior: any
/// queue kind produces bit-identical results (queue_equivalence_test pins
/// it), so benches can flip them freely for A/B timing.
struct EngineConfig {
  EventQueueKind queue = EventQueueKind::kCalendar;
  /// Executors for the sharded parallel engine: 1 = the classic
  /// single-queue simulator (code path for code path); S > 1 = executor 0
  /// runs the whole protocol plane (hosts, adapters, protocols, traffic,
  /// metrics) on the calling thread and S-1 workers own contiguous bands
  /// of switches, synchronized in conservative lookahead windows (see
  /// sim/shard.h). Same contract as the queue kind: results are
  /// bit-identical at any shard count (the shard-determinism gate pins
  /// Summary, BENCH rows and check verdicts across --shards 1/2/4).
  /// Fault injection, membership-independent switch multicast and the
  /// load-aware strategy are v1-unsupported under sharding (the ctor and
  /// the entry points throw).
  int shards = 1;
};

struct ExperimentConfig {
  EngineConfig engine;
  FabricConfig fabric;
  AdapterConfig adapter;
  ProtocolConfig protocol;
  TrafficConfig traffic;
  UpDownOptions routing;
  SwitchMcastConfig switch_mcast;
  /// How group structures and switch-level multicast trees are built
  /// (single-root baseline, partition-merge, load-aware, multi-root;
  /// per-run or per-group).
  TreeStrategyConfig tree;
  /// Injected faults (all rates 0 = the lossless fabric). Pair nonzero
  /// rates with protocol.ack_timeout so senders can actually recover.
  FaultConfig faults;
  MembershipConfig membership;
  std::uint64_t seed = 1;
};

class Network {
 public:
  /// Builds the runtime network. `groups` lists the multicast groups
  /// (see traffic/groups.h for generators).
  Network(Topology topo, std::vector<MulticastGroupSpec> groups,
          ExperimentConfig config = ExperimentConfig());
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  /// Runs a traffic-driven experiment: generate for `warmup + measure`
  /// byte-times, record samples only for messages created after `warmup`,
  /// then drain in-flight messages for up to `drain_cap` further byte-times.
  void run(Time warmup, Time measure, Time drain_cap = 500'000);

  /// Injects one application demand directly (tests and examples).
  void inject(const Demand& demand);

  /// Sends a *switch-level* multicast (Section 3): the fabric replicates
  /// the worm along a tree encoded in its header; routes are restricted to
  /// the group's strategy-chosen up/down spanning tree. Returns the message
  /// context for metrics.
  ///
  /// Admission gate: the paper's scheme (b) deadlock argument requires
  /// switch-level multicasts to be *serialized* (every worm climbs through
  /// the one root, whose arbitration orders them); two concurrent worms
  /// whose trees overlap can otherwise form a port-claim/backpressure
  /// cycle that no interrupt can break — a stopped branch cannot even send
  /// its closing trailer. The gate generalizes that rule to arbitrary tree
  /// strategies: a multicast dispatches immediately iff its planned tree is
  /// node-disjoint from every in-flight multicast (disjoint trees share no
  /// channels, so neither can ever wait on the other, whatever their
  /// orientations); otherwise it queues FIFO and is released as conflicting
  /// messages close. Under the single-root strategy every tree contains the
  /// root, so the gate degenerates to exactly the paper's serialization;
  /// the alternative strategies regain concurrency precisely where their
  /// trees do not collide. Queue wait counts toward message latency.
  std::shared_ptr<MessageContext> send_switch_multicast(HostId src, GroupId group,
                                                        std::int64_t payload);

  /// Sends a *switch-level* broadcast (Section 3, last paragraph): the
  /// worm climbs to the up/down root and floods the spanning tree's down
  /// links; every other host receives one copy.
  std::shared_ptr<MessageContext> send_switch_broadcast(HostId src,
                                                        std::int64_t payload);

  [[nodiscard]] SwitchMcastEngine& switch_mcast_engine() { return *mcast_engine_; }

  /// Switch-level multicasts queued behind the admission gate (their tree
  /// overlaps an in-flight one). Tests observe serialization through this.
  [[nodiscard]] std::size_t mcast_gate_depth() const {
    return gate_queue_.size();
  }

  /// Advances the simulation (tests and examples drive this directly).
  /// Sharded runs advance every executor and leave all clocks aligned at
  /// `deadline`, so observable state reads the same as the classic path.
  void run_until(Time deadline) {
    if (engine_) {
      engine_->run_until(deadline);
    } else {
      sim_.run_until(deadline);
    }
  }
  void run_to_quiescence() {
    if (engine_) {
      engine_->run_to_quiescence();
    } else {
      sim_.run();
    }
  }

  [[nodiscard]] Simulator& sim() { return sim_; }
  /// The sharded engine, null on classic (shards = 1) runs.
  [[nodiscard]] const ShardedEngine* engine() const { return engine_.get(); }
  /// Executors actually running (1 on the classic path; config shards may
  /// be clamped when there are fewer switches than worker slots).
  [[nodiscard]] int num_executors() const {
    return engine_ ? engine_->num_executors() : 1;
  }
  /// Events dispatched / deepest queue across all executors (the classic
  /// single-Simulator numbers when unsharded) — benches read these instead
  /// of sim().events_dispatched() so telemetry covers every shard.
  [[nodiscard]] std::int64_t events_dispatched() const {
    return engine_ ? engine_->events_dispatched() : sim_.events_dispatched();
  }
  [[nodiscard]] std::size_t event_queue_peak() const {
    return engine_ ? engine_->event_queue_peak() : sim_.event_queue_peak();
  }
  /// Flight-recorder totals summed over every executor's ring.
  [[nodiscard]] std::int64_t trace_recorded() const;
  [[nodiscard]] std::int64_t trace_dropped() const;
  /// The shared worm arena (see sim/arena.h); benches read its counters.
  [[nodiscard]] const RecyclePool<Worm>& worm_pool() const {
    return worm_pool_;
  }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] Fabric& fabric() { return *fabric_; }
  [[nodiscard]] const UpDownRouting& routing() const { return *routing_; }
  /// The active tree strategy (group-structure construction policy).
  [[nodiscard]] const TreeStrategy& tree_strategy() const { return *strategy_; }
  [[nodiscard]] const GroupTables& tables() const { return *tables_; }
  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] int num_hosts() const { return topo_.num_hosts(); }
  [[nodiscard]] HostAdapter& adapter(HostId h) { return *adapters_[h]; }
  [[nodiscard]] HostProtocol& protocol(HostId h) { return *protocols_[h]; }
  /// The experiment's fault injector (always present; unarmed when no
  /// faults are configured). Tests use it to force deterministic faults or
  /// schedule link outages before/while running.
  [[nodiscard]] FaultInjector& faults() { return *faults_; }

  // --- permanent faults -----------------------------------------------

  /// Schedules a crash-stop failure of host `h` at `when`: queued
  /// transmissions vanish (the worm mid-DMA finishes), every buffer is
  /// released, and the host never sends or accepts another byte. The crash
  /// is *silent* — survivors must detect it through ACK/probe suspicion
  /// and then repair the group structures around it.
  void crash_host(HostId h, Time when);

  /// Schedules the permanent death of link `l` at `when`: both directed
  /// channels swallow traffic forever and the up/down routing recomputes
  /// (tolerating a partitioned residue), invalidating every cached route
  /// so retransmissions travel the healed paths. Throws at the call, before
  /// anything is scheduled, on a stage-labelled fabric
  /// (routing.level_override), whose labels cannot heal around the link.
  void fail_link(LinkId l, Time when);

  /// Schedules *flap cycles* on link `l` between `from` and `until`: both
  /// directed channels go down and come back together, with keyed-random
  /// down/up windows around the given means. Unlike fail_link the link
  /// recovers, so routing is deliberately NOT recomputed — cached routes
  /// stay valid and retransmissions bridge the outage windows. The
  /// schedule is a pure function of (seed, link id): bit-identical at any
  /// --jobs. Returns the number of down-windows scheduled.
  int flap_link(LinkId l, Time from, Time until, Time mean_down, Time mean_up);

  /// Schedules an up/down root migration to `new_root` at `when`: the
  /// general routing re-anchors (rebuilding its spanning tree and caches)
  /// and the tree strategy follows (re-rooting owned routings, dropping
  /// cached multicast plans, re-assigning multi-root groups). Worms already
  /// in flight carry their old routes and finish under the old labels.
  void migrate_root(NodeId new_root, Time when);

  /// Re-plans strategy trees against the current load snapshot (the
  /// load-aware strategy's refresh hook; a no-op for static strategies).
  /// Returns true when any future plan changed.
  bool replan_trees() { return strategy_->replan(); }

  // --- membership churn -------------------------------------------------

  /// Asks the membership coordinator to add `h` to group `g` at `when`.
  /// The join queues behind earlier operations (op_cost pacing); under
  /// overload it is shed and retried with back-off up to
  /// membership.max_join_attempts. A join of a current member is applied
  /// idempotently; a join of a former member is a *rejoin* and resets the
  /// group's dedup epoch at the joiner.
  void request_join(GroupId g, HostId h, Time when);

  /// Asks the coordinator to remove `h` from group `g` at `when` — a
  /// clean, voluntary departure: no suspicion, no repair-grace burn, and
  /// the leaver finishes forwarding what it already holds. Leaves queue
  /// like joins but are never shed.
  void request_leave(GroupId g, HostId h, Time when);

  /// Deepest the membership queue ever got (overload indicator).
  [[nodiscard]] std::int64_t membership_queue_peak() const {
    return membership_queue_peak_;
  }

  /// Declares `dead` crashed and repairs every shared structure around it:
  /// abandons/shrinks affected message accounting, splices `dead` out of
  /// each group circuit, re-parents orphaned tree subtrees, then lets each
  /// surviving protocol retarget its in-flight sends. Idempotent; invoked
  /// automatically by the failure detector, callable directly by tests.
  void declare_host_dead(HostId dead);

  /// Cumulative structure-repair counts from declare_host_dead.
  [[nodiscard]] const GroupTables::RepairStats& repair_stats() const {
    return repair_stats_;
  }
  [[nodiscard]] bool host_removed(HostId h) const {
    return removed_hosts_.count(h) > 0;
  }

  /// One-line-per-host dump of recovery-relevant state (active tasks, pool
  /// bytes held, un-ACKed sends, adapter queue depths) — what the deadlock
  /// watchdog prints when a faulted run stalls.
  [[nodiscard]] std::string debug_report() const;

  /// Arms a deadlock watchdog over this network: if `interval` byte-times
  /// pass with messages outstanding but no byte moving, it captures
  /// debug_report() (echoed to stderr) so a hung run explains itself.
  /// Returns the watchdog for inspection; lives as long as the Network.
  DeadlockWatchdog& attach_watchdog(Time interval);

  // --- observability (wormtrace) --------------------------------------

  /// Turns on the flight recorder: every instrumented component starts
  /// appending to a ring of `capacity` events (oldest overwritten first).
  /// Sharded runs give every executor its own ring of this capacity (a
  /// component records on its owning executor's tracer); write_trace and
  /// check_expectations see the canonical time-merged stream.
  void enable_tracing(std::size_t capacity = Tracer::kDefaultCapacity);

  /// Writes the recorded events as Chrome trace-event JSON (load the file
  /// at ui.perfetto.dev; 1 simulated byte-time is rendered as 1 us).
  [[nodiscard]] bool write_trace(const std::string& path) const;

  /// Registers every network-wide counter (protocol metrics, fabric byte
  /// totals, switch-multicast engine decisions, simulator event stats,
  /// tracer occupancy) so benches serialize them uniformly.
  void register_counters(CounterRegistry& reg) const;

  /// Post-run protocol expectation checking (wormcheck): replays the
  /// flight-recorder ring through the standard rule pack derived from this
  /// experiment's protocol and switch-multicast configuration, and returns
  /// the violation report. Refuses loudly — `usable == false`, never a
  /// silent pass — when tracing was off or the ring wrapped (a wrapped
  /// ring lost events, so "no violation found" would be meaningless);
  /// raise enable_tracing's capacity until dropped() stays 0 to check
  /// longer runs.
  [[nodiscard]] check::CheckReport check_expectations() const;

  /// Aggregate results of the last run.
  struct Summary {
    double offered_load = 0.0;             // generation-rate knob
    double measured_utilization = 0.0;     // per-host output-link utilization
                                           // over the window (paper's x-axis)
    double mcast_latency_mean = 0.0;       // per-destination (Figures 10/11)
    double mcast_latency_p95 = 0.0;
    double mcast_completion_mean = 0.0;    // whole-group
    double unicast_latency_mean = 0.0;
    // Sample counts behind the latency aggregates: a mean/percentile with a
    // zero count is not a measurement, and emitters must say null, not 0.
    std::int64_t mcast_samples = 0;
    std::int64_t mcast_completion_samples = 0;
    std::int64_t unicast_samples = 0;
    double throughput_per_host = 0.0;      // delivered payload B / bt / host
    std::int64_t messages = 0;
    std::int64_t drops = 0;
    std::int64_t nacks = 0;
    std::int64_t retransmits = 0;
    std::int64_t outstanding = 0;          // undelivered at end (stall sign)
    Time oldest_outstanding_age = 0;
    std::int64_t fabric_overflows = 0;     // must be 0
    // Fault-injection experiments.
    std::int64_t faults_injected = 0;      // kills + ctrl/rx drops + outages
    std::int64_t bytes_swallowed = 0;      // channel bytes lost to faults
                                           // (never counted as delivered)
    std::int64_t ack_timeouts = 0;
    std::int64_t duplicates_suppressed = 0;
    std::int64_t deliveries_failed = 0;    // sends abandoned (max_attempts)
    std::int64_t messages_completed = 0;
    // Permanent failures & repair.
    std::int64_t suspicions = 0;           // failure-detector accusations
    std::int64_t hosts_crashed = 0;        // crash-stop faults injected
    std::int64_t hosts_removed = 0;        // declared dead + repaired around
    std::int64_t links_failed = 0;         // permanent link deaths
    std::int64_t sends_rerouted = 0;       // sends retargeted by repair
    std::int64_t messages_disrupted = 0;   // abandoned at repair time
    std::int64_t unicasts_flushed = 0;     // scheme (c) switch-side flushes
    Time last_repair_time = 0;
    // Membership churn (joins/leaves/rejoins + overload shedding).
    std::int64_t joins_requested = 0;      // distinct join intents
    std::int64_t joins_applied = 0;
    std::int64_t joins_shed = 0;           // shed events (retries may follow)
    std::int64_t joins_abandoned = 0;      // sheds with no retry budget left
    std::int64_t rejoins = 0;
    std::int64_t leaves = 0;
    double join_latency_mean = 0.0;        // request -> applied, byte-times
    double join_latency_p95 = 0.0;
    std::int64_t join_samples = 0;
    std::int64_t membership_queue_peak = 0;
    std::int64_t flap_windows = 0;         // recovering link outages scheduled
  };
  [[nodiscard]] Summary summary() const;

 private:
  /// One switch-level multicast admitted to the orientation gate but not
  /// yet dispatched (its plan is computed at dispatch time, so membership
  /// changes while queued are honored).
  struct GatedSend {
    HostId src = kNoHost;
    GroupId group = kNoGroup;
    std::int64_t payload = 0;
    bool broadcast = false;
    std::shared_ptr<MessageContext> ctx;
  };

  /// Every node (switches and host endpoints) the send's worms would touch
  /// if planned right now — the resource set the gate claims.
  [[nodiscard]] std::vector<NodeId> gate_footprint(const GatedSend& send) const;
  /// True iff none of `nodes` is claimed by an in-flight multicast.
  [[nodiscard]] bool gate_admissible(const std::vector<NodeId>& nodes) const;
  /// Admits a switch-level multicast: dispatch if its tree is disjoint from
  /// everything in flight (and nothing is queued ahead — strict FIFO),
  /// else queue.
  void gate_admit(GatedSend send);
  /// Claims the footprint and injects the send's worms into the fabric.
  void gate_dispatch(GatedSend send, std::vector<NodeId> nodes);
  /// Builds and sends the worm(s) for this multicast (plans at this
  /// moment, so membership changes while queued are honored).
  void gate_inject(const GatedSend& send);
  /// Metrics message-closed hook: releases the message's claimed nodes and
  /// pumps newly admissible queued sends.
  void on_message_closed(std::uint64_t message_id);
  void gate_pump();

  /// One queued membership operation. `requested_at` is the *first*
  /// request time, so join latency includes time lost to sheds.
  struct MembershipOp {
    bool join = false;
    GroupId group = kNoGroup;
    HostId host = kNoHost;
    Time requested_at = 0;
    int attempts = 0;  // tries consumed (sheds included)
  };
  void enqueue_join(GroupId g, HostId h, Time requested_at, int attempts);
  void pump_membership();
  void apply_join(const MembershipOp& op);
  void apply_leave(const MembershipOp& op);

  /// Builds the sharded engine (worker simulators, node->executor map,
  /// lookahead) when config_.engine.shards > 1; returns the plan the
  /// Fabric places channels and switches with (empty => classic path).
  [[nodiscard]] ShardPlan build_shard_plan();
  /// Throws when `what` is attempted on a sharded run (v1 limits: the
  /// feature mutates or reads worker-owned state mid-window).
  void require_unsharded(const char* what) const;
  /// All executors' trace events merged into one canonical stream
  /// (stable-sorted by time; per-executor recording order preserved).
  [[nodiscard]] std::vector<TraceEvent> merged_trace_snapshot() const;

  Topology topo_;
  std::vector<MulticastGroupSpec> groups_;
  ExperimentConfig config_;
  Simulator sim_;
  /// Executors 1..E-1 of a sharded run (empty, and engine_ null, at
  /// shards = 1). Declared before fabric_ so channels outlive nothing
  /// they reference and after sim_ so exec0 outlives the workers.
  std::vector<std::unique_ptr<Simulator>> worker_sims_;
  std::unique_ptr<ShardedEngine> engine_;
  RecyclePool<Worm> worm_pool_;
  Metrics metrics_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<UpDownRouting> routing_;
  std::unique_ptr<TreeStrategy> strategy_;  // owns the tree-restricted routings
  std::unique_ptr<SwitchMcastEngine> mcast_engine_;
  std::unique_ptr<GroupTables> tables_;
  std::vector<std::unique_ptr<HostAdapter>> adapters_;
  std::vector<std::unique_ptr<HostProtocol>> protocols_;
  std::unique_ptr<TrafficGenerator> traffic_;
  std::unique_ptr<DeadlockWatchdog> watchdog_;
  std::unordered_set<HostId> removed_hosts_;
  // Multicast admission-gate state (see send_switch_multicast).
  std::deque<GatedSend> gate_queue_;            // FIFO, conflicting sends
  std::vector<std::int32_t> gate_node_claims_;  // by NodeId: in-flight users
  std::unordered_map<std::uint64_t, std::vector<NodeId>> gated_nodes_;
  // Membership coordinator state.
  std::deque<MembershipOp> membership_q_;
  bool membership_pump_armed_ = false;
  std::int64_t membership_queue_peak_ = 0;
  RandomStream membership_rng_{0};  // retry-jitter draws (reseeded in ctor)
  /// (group << 32 | host) keys of members that left — a later join of such
  /// a pair is a *rejoin* (the group's dedup state must reset).
  std::unordered_set<std::uint64_t> former_members_;
  /// Join time of members added after construction; a message created
  /// before a member's join never counted it as a destination, so a later
  /// leave must not shrink that message's destination set.
  std::unordered_map<std::uint64_t, Time> joined_at_;
  GroupTables::RepairStats repair_stats_;
  Time measure_span_ = 0;
  std::int64_t egress_at_window_start_ = 0;
  std::int64_t egress_at_window_end_ = 0;
};

}  // namespace wormcast

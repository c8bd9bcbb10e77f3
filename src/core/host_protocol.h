// Per-host multicast protocol engine (the paper's contribution,
// Sections 4-6), implemented as the policy client of a HostAdapter.
//
// Responsibilities:
//  * originate unicast and multicast messages handed down by the
//    application / traffic generator;
//  * run the selected multicast structure (repeated unicast, Hamiltonian
//    circuit, rooted tree) hop by hop;
//  * implicit buffer reservation: accept + ACK when the forwarding pool has
//    room for the whole worm, drop + NACK otherwise (Figure 5), with
//    retransmission after a back-off;
//  * two-buffer-class allocation so reservation waits cannot cycle
//    (Figure 7);
//  * optional total ordering by serializing through the lowest-ID member /
//    root, with per-successor in-order forwarding.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "adapter/buffer_pool.h"
#include "adapter/host_adapter.h"
#include "core/dedup_window.h"
#include "core/group_tables.h"
#include "core/metrics.h"
#include "core/protocol_config.h"
#include "net/updown.h"
#include "net/worm.h"
#include "sim/arena.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "traffic/generator.h"

namespace wormcast {

class HostProtocol final : public AdapterClient {
 public:
  HostProtocol(Simulator& sim, HostAdapter& adapter, const UpDownRouting& routing,
               const GroupTables& tables, Metrics& metrics,
               const ProtocolConfig& config, RandomStream rng, int n_hosts);
  HostProtocol(const HostProtocol&) = delete;
  HostProtocol& operator=(const HostProtocol&) = delete;

  /// Application entry point: send a unicast or multicast message.
  void originate(const Demand& demand);

  /// A unicast this host sent was flushed by a multicast-IDLE port
  /// (switch-level scheme (c)); retransmit a fresh copy after a random
  /// timeout, as the paper prescribes.
  void on_unicast_flushed(const WormPtr& worm);

  // --- failure detection & repair (crash-stop model) -------------------------

  /// Crash-stop this host: it stops originating, forwarding, ACKing and
  /// probing, drops its queued transmissions (the worm already on the wire
  /// finishes — committed DMA) and releases every buffer it held. Nothing
  /// ever resurrects it.
  void on_crash();
  [[nodiscard]] bool crashed() const { return dead_; }

  /// Called when this host suspects `suspect` has crash-stopped; the
  /// network disseminates the death and repairs the shared group tables.
  void set_failure_listener(std::function<void(HostId)> listener) {
    failure_listener_ = std::move(listener);
  }

  /// The network declared `dead` crashed and already repaired the group
  /// tables. Rescue this host's in-flight sends: every unresolved send
  /// addressed to the dead peer is retargeted along the repaired structure
  /// (circuit successor past the splice, new tree parent, adopted
  /// children), resolved when the structure ends there, and retransmitted
  /// through the PR-1 retry machinery.
  void on_peer_removed(HostId dead,
                       const std::vector<GroupTables::Reattachment>& adopted);

  // --- membership churn (join/leave/rejoin) ----------------------------------

  /// The network spliced this host into group `g`. Sets the delivery view
  /// floor — messages created before the join are forwarded but never
  /// delivered here (this host was not one of their destinations) — and, on
  /// a rejoin, opens a fresh dedup epoch for the group so a rejoin with
  /// recycled worm IDs is not silently swallowed as a duplicate.
  void on_self_joined(GroupId g, bool rejoin);

  /// The network spliced this host out of group `g` (voluntary leave, not a
  /// failure). In-flight forwarding duties still complete; pending local
  /// deliveries for the group are cancelled (the accounting already stopped
  /// counting this host as a destination).
  void on_self_left(GroupId g);

  /// Another host joined group `g`. Patches the hop budget of this host's
  /// unresolved circuit sends whose remaining window now spans the joiner
  /// (the splice added one stop), so the circuit tail is not starved.
  void on_member_joined(GroupId g, HostId joiner);

  /// Another host voluntarily left group `g`; the shared tables are already
  /// repaired. Like on_peer_removed but scoped to one group and without
  /// declaring the leaver dead: sends aimed at it are retargeted along the
  /// repaired structure, nothing is purged, no suspicion state burns.
  void on_member_left(HostId leaver, GroupId g,
                      const std::vector<GroupTables::Reattachment>& adopted);

  /// Points the protocol at the network's shared worm arena (sim/arena.h);
  /// without one (unit tests building protocols directly) worms fall back
  /// to plain make_shared.
  void set_worm_pool(RecyclePool<Worm>* pool) { worm_pool_ = pool; }

  [[nodiscard]] HostId host() const { return host_; }
  [[nodiscard]] const BufferPool& pool() const { return pool_; }
  /// Forwarding tasks currently holding buffer space.
  [[nodiscard]] std::size_t active_tasks() const { return tasks_.size(); }
  /// Random-stream state this host has allocated (0 until its first draw).
  [[nodiscard]] std::size_t rng_state_bytes() const {
    return rng_.state_bytes();
  }

  // AdapterClient.
  RxDecision on_rx_head(const WormPtr& worm,
                        const std::shared_ptr<RxProgress>& rx) override;
  void on_rx_complete(const WormPtr& worm, std::int64_t payload_bytes) override;
  void on_tx_done(const WormPtr& worm) override;
  void on_rx_truncated(const WormPtr& worm) override;

  /// Snapshot of this host's recovery-relevant state, for the watchdog's
  /// stall diagnostics and for tests that need to observe in-flight sends.
  struct SendDebug {
    HostId to = kNoHost;
    bool started = false;
    bool acked = false;
    bool failed = false;
    int attempts = 0;
  };
  struct TaskDebug {
    std::uint64_t message_id = 0;
    HostId origin = kNoHost;
    GroupId group = kNoGroup;
    std::int64_t reserved = 0;
    bool rx_complete = false;
    bool delivered = false;
    bool originator = false;
    std::vector<SendDebug> sends;
  };
  struct DebugSnapshot {
    std::vector<TaskDebug> tasks;  // forwarding + originator, by message id
    std::int64_t pool_used = 0;
    std::vector<std::uint64_t> ack_wait_keys;  // sorted
  };
  [[nodiscard]] DebugSnapshot debug_snapshot() const;

 private:
  /// One message being held at this adapter for forwarding: the reservation
  /// plus the list of successors still to be sent / acknowledged.
  struct Task {
    std::shared_ptr<MessageContext> ctx;
    GroupId group = kNoGroup;
    std::uint64_t message_id = 0;
    HostId origin = kNoHost;
    std::int64_t payload = 0;
    std::int64_t seq = -1;
    int hops_remaining = 0;  // circuit hop budget of the *received* copy
    std::shared_ptr<RxProgress> rx;  // reception progress (cut-through)
    int cls = 0;
    std::int64_t reserved = 0;  // pool bytes held (0 for originator tasks)
    /// Successor sends: target plus the header to stamp on the copy.
    struct Send {
      HostId to = kNoHost;
      McastHeader header;
      bool started = false;
      bool acked = false;
      bool failed = false;       // gave up after max_attempts
      bool retry_pending = false;  // a back-off retransmission is scheduled
      int attempts = 0;  // NACKed / timed-out tries (drives the back-off)
      EventHandle timer;  // ACK timeout (recovery mode only)
      Time first_tx = kTimeNever;  // first transmission (suspicion clock)
    };
    std::vector<Send> sends;
    bool delivered = false;    // local delivery (or none needed) finished
    bool rx_complete = false;  // full worm present at this adapter
    bool originator = false;   // task created by originate(), holds no pool
    bool aborted = false;      // torn down (truncated reception)
  };
  using TaskPtr = std::shared_ptr<Task>;

  /// All worm construction funnels through here so the arena can recycle.
  [[nodiscard]] WormPtr new_worm() const {
    return worm_pool_ != nullptr ? worm_pool_->make()
                                 : std::make_shared<Worm>();
  }

  void originate_unicast(const Demand& d);
  void originate_multicast(const Demand& d);

  /// Builds the successor list + headers for a multicast copy arriving at
  /// (or originated by) this host. `from` is the previous hop (kNoHost at
  /// the originator / serializer start).
  [[nodiscard]] std::vector<Task::Send> plan_successors(
      GroupId group, HostId origin, std::uint64_t message_id, std::int64_t seq,
      int hops_remaining, int incoming_class, bool at_serializer, HostId from) const;

  /// Serializer (lowest-ID member / root) starts the multicast proper.
  void start_serialized(const TaskPtr& task);

  void launch_sends(const TaskPtr& task, bool allow_cut_through);
  void issue_send(const TaskPtr& task, Task::Send& send, bool cut_through);
  void retransmit_later(const TaskPtr& task, std::size_t send_index);
  void maybe_release(const TaskPtr& task);

  // --- end-to-end loss recovery (ack_timeout > 0) ----------------------------
  /// Recovery changes the ACK protocol (ACK on full reception instead of on
  /// the head) so it is only meaningful with reservations on.
  [[nodiscard]] bool recovery_enabled() const {
    return config_.reservation && config_.ack_timeout > 0;
  }
  void arm_ack_timer(const TaskPtr& task, std::size_t send_index);
  void on_ack_timeout(const TaskPtr& task, std::size_t send_index);
  /// Gives up on a send (max_attempts exhausted): releases its claim on the
  /// window, abandons the message in the metrics, and lets the task drain.
  void fail_send(const TaskPtr& task, std::size_t send_index);
  /// Tears down a forwarding task whose reception was truncated: cancels
  /// timers, releases the reservation, frees its window slots.
  void abort_task(const TaskPtr& task);
  /// Duplicate-suppression memory of completed receptions.
  [[nodiscard]] static std::uint64_t dedup_key(std::uint64_t message_id,
                                               bool relay_phase) {
    return message_id * 2 + (relay_phase ? 1 : 0);
  }
  void remember_done(GroupId g, std::uint64_t key);
  /// The group's dedup window, created on first use. Per-group so a rejoin
  /// epoch reset cannot forget another group's duplicate memory.
  [[nodiscard]] DedupWindow& dedup_for(GroupId g);

  WormPtr make_data_worm(const TaskPtr& task, const Task::Send& send) const;
  WormPtr make_control_worm(WormKind kind, const WormPtr& data_worm) const;

  // --- failure detector (suspicion_timeout > 0) ------------------------------
  /// The detector piggybacks on recovery: a peer is suspected when it stays
  /// silent past the suspicion timeout despite the ACK-timeout retries, or
  /// when it ignores explicit probes while no send would expose it.
  [[nodiscard]] bool suspicion_enabled() const {
    return recovery_enabled() && config_.suspicion_timeout > 0;
  }
  [[nodiscard]] Time probe_interval() const {
    return config_.probe_interval > 0
               ? config_.probe_interval
               : std::max<Time>(1, config_.suspicion_timeout / 4);
  }
  /// Any worm from `peer` proves it was alive when it sent.
  [[nodiscard]] bool peer_silent(HostId peer) const;
  void note_heard(HostId peer);
  void maybe_arm_prober();
  void probe_tick();
  /// Protocol neighbours (circuit successor; tree parent and children) in
  /// every group this host belongs to, minus already-removed peers.
  [[nodiscard]] std::vector<HostId> probe_targets() const;
  WormPtr make_probe_worm(HostId dst, WormKind kind) const;

  /// Retargets/resolves every unresolved send of one task that addresses
  /// the (spliced-out) dead peer; appends sends for tree children adopted
  /// during the repair; dispatches what became ready.
  void repair_task_sends(const TaskPtr& task, HostId dead,
                         const std::vector<GroupTables::Reattachment>& adopted);
  /// Starts a not-yet-started send through the ordered window when total
  /// ordering demands it, directly otherwise (repair-path dispatch).
  void dispatch_send(const TaskPtr& task, std::size_t send_index);

  [[nodiscard]] bool is_confirmation(const McastHeader& h) const;
  void deliver_locally(const TaskPtr& task);
  void handle_ack(const WormPtr& worm);
  void handle_nack(const WormPtr& worm);
  void handle_mcast_data(const WormPtr& worm);

  /// Ordered-forwarding window (total ordering): at most one un-ACKed send
  /// per (group, successor); later sends queue behind it.
  [[nodiscard]] std::uint64_t window_key(GroupId g, HostId to) const;
  void window_push(const TaskPtr& task, std::size_t send_index, bool cut_through);
  void window_advance(GroupId g, HostId to);

  Simulator& sim_;
  HostAdapter& adapter_;
  const UpDownRouting& routing_;
  const GroupTables& tables_;
  Metrics& metrics_;
  ProtocolConfig config_;
  RandomStream rng_;
  HostId host_;
  BufferPool pool_;
  RecyclePool<Worm>* worm_pool_ = nullptr;  // Network-owned; may be null

  /// True when the scheme delivers in a globally agreed order (trees are
  /// root-serialized by construction; the circuit when total_ordering).
  [[nodiscard]] bool serialized_scheme() const {
    if (config_.scheme == Scheme::kTreeSF || config_.scheme == Scheme::kTreeCT)
      return true;
    return scheme_uses_circuit(config_.scheme) && config_.total_ordering;
  }

  /// Forwarding tasks by message id (at most one per message: each member
  /// appears once in the circuit/tree).
  std::unordered_map<std::uint64_t, TaskPtr> tasks_;
  /// Originator tasks by message id (kept separate: with serialization the
  /// origin may later also hold a forwarding task for the same message).
  std::unordered_map<std::uint64_t, TaskPtr> origin_tasks_;
  /// Sends awaiting ACK (or transmit completion when reservation is off),
  /// keyed by (message id, successor).
  std::unordered_map<std::uint64_t, TaskPtr> ack_wait_;
  /// Per-group sequence counter (only advanced at the serializer).
  std::unordered_map<GroupId, std::int64_t> seq_counters_;
  /// Ordered-forwarding queues (total ordering only).
  struct WindowEntry {
    TaskPtr task;
    std::size_t send_index = 0;
    bool cut_through = false;
  };
  std::unordered_map<std::uint64_t, std::deque<WindowEntry>> windows_;
  std::unordered_map<std::uint64_t, bool> window_busy_;
  /// Switch-level multicast reassembly: payload bytes received so far per
  /// message (scheme (b) delivers a message as several fragments).
  std::unordered_map<std::uint64_t, std::int64_t> switch_mcast_rx_;
  /// Recovery-mode dedup memory: keys of fully received (message, phase)
  /// pairs, bounded to config_.dedup_window entries per group. A duplicate
  /// of a remembered key is re-ACKed (its ACK was evidently lost), never
  /// re-delivered or re-forwarded. Per-group so a rejoin resets only its
  /// own group's epoch (see dedup_for / on_self_joined).
  std::unordered_map<GroupId, DedupWindow> done_;

  /// Per-group delivery view floor: messages created before this host's
  /// join time are forwarded but never delivered locally (the destination
  /// count was fixed at creation, before this host was a member).
  std::unordered_map<GroupId, Time> view_floor_;

  // --- failure detection state ----------------------------------------------
  bool dead_ = false;  // crash-stopped
  std::function<void(HostId)> failure_listener_;
  /// Peers declared dead by the network; sends are never aimed at them.
  std::unordered_set<HostId> removed_peers_;
  /// Last time any worm from a peer arrived here (suspicion clocks).
  std::unordered_map<HostId, Time> last_heard_;
  /// Unanswered-probe clock per peer; erased whenever the peer is heard.
  /// `first` anchors the suspicion maturity deadline, `last` proves the
  /// probing was continuous: a gap (prober dormant, or the peer churned
  /// out of and back into the neighbor set) restarts the clock, so an
  /// ancient pending probe can never mature into an instant accusation.
  struct ProbeClock {
    Time first = 0;
    Time last = 0;
  };
  std::unordered_map<HostId, ProbeClock> probe_sent_;
  bool prober_armed_ = false;

  // --- [VLB96] centralized credit scheme ------------------------------------
  void begin_serialized_dispatch(const TaskPtr& task);
  void handle_credit_op(const WormPtr& worm);
  void apply_grant(const TaskPtr& task, std::int64_t seq);
  void try_credit_grants();
  [[nodiscard]] std::vector<HostId> credit_slots_needed(GroupId group,
                                                        HostId origin) const;
  void emit_token();
  void forward_token(const WormPtr& token);
  WormPtr make_credit_worm(CreditOp op, HostId dst, GroupId group,
                           std::uint64_t message_id, std::int64_t seq) const;

  /// Manager-side state (allocated only on the credit-manager host).
  struct CreditManager {
    std::vector<std::int64_t> credits;  // manager's view, per host
    struct Pending {
      std::uint64_t message_id = 0;
      GroupId group = kNoGroup;
      HostId origin = kNoHost;
    };
    std::deque<Pending> pending;  // FIFO: grants are sequenced
  };
  std::unique_ptr<CreditManager> credit_mgr_;
  std::int64_t freed_credits_ = 0;  // returned by the next token visit
  bool token_active_ = false;       // a token is scheduled or circulating
  int n_hosts_ = 0;

  /// Starts token circulation if credits are outstanding or requests wait
  /// (and stops the simulation from idling when there is nothing to do).
  void maybe_start_token();
};

}  // namespace wormcast

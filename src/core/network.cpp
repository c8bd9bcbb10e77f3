#include "core/network.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "net/mcast_route_builder.h"
#include "sim/random.h"
#include "sim/trace_export.h"

namespace wormcast {

Network::Network(Topology topo, std::vector<MulticastGroupSpec> groups,
                 ExperimentConfig config)
    : topo_(std::move(topo)),
      groups_(std::move(groups)),
      config_(config),
      sim_(config.engine.queue) {
  topo_.validate();
  const ShardPlan plan = build_shard_plan();
  fabric_ = std::make_unique<Fabric>(sim_, topo_, config_.fabric,
                                     engine_ ? &plan : nullptr);
  routing_ = std::make_unique<UpDownRouting>(topo_, config_.routing);
  strategy_ =
      make_tree_strategy(config_.tree, topo_, *routing_, config_.routing);
  strategy_->set_load_probe(
      [this](NodeId n) { return fabric_->node_egress_bytes(n); });
  for (const MulticastGroupSpec& spec : groups_)
    strategy_->plan_group(spec.id, spec.members);
  mcast_engine_ = std::make_unique<SwitchMcastEngine>(
      sim_, topo_, strategy_->primary_routing(), config_.switch_mcast);
  fabric_->install_mcast_engine(mcast_engine_.get());
  tables_ = std::make_unique<GroupTables>(groups_, *routing_,
                                          config_.protocol.max_tree_fanout,
                                          strategy_.get());
  RandomStream master(config_.seed);
  // The injector always exists (unarmed when no faults are configured) so
  // tests can force faults or schedule outages without rebuilding.
  faults_ = std::make_unique<FaultInjector>(master.fork(0xFA017), config_.faults);
  membership_rng_ = master.fork(0x3E17B);
  fabric_->install_fault_injector(faults_.get());
  const int n = topo_.num_hosts();
  adapters_.reserve(static_cast<std::size_t>(n));
  protocols_.reserve(static_cast<std::size_t>(n));
  for (HostId h = 0; h < n; ++h) {
    adapters_.push_back(
        std::make_unique<HostAdapter>(sim_, *fabric_, h, config_.adapter));
    adapters_.back()->set_fault_injector(faults_.get());
    protocols_.push_back(std::make_unique<HostProtocol>(
        sim_, *adapters_.back(), *routing_, *tables_, metrics_,
        config_.protocol, master.fork(0x5000 + static_cast<std::uint64_t>(h)),
        n));
    protocols_.back()->set_worm_pool(&worm_pool_);
    protocols_.back()->set_failure_listener(
        [this](HostId dead) { declare_host_dead(dead); });
  }
  mcast_engine_->set_worm_pool(&worm_pool_);
  mcast_engine_->set_flush_handler([this](const WormPtr& worm) {
    protocols_[worm->src]->on_unicast_flushed(worm);
  });
  gate_node_claims_.assign(static_cast<std::size_t>(topo_.num_nodes()), 0);
  metrics_.set_message_closed_hook(
      [this](const std::shared_ptr<MessageContext>& ctx) {
        on_message_closed(ctx->message_id);
      });
  // Host adapters have attached their sinks by now: seed every
  // cross-executor channel's burst budget before the first window runs.
  if (engine_) fabric_->publish_cross_budgets();
}

ShardPlan Network::build_shard_plan() {
  const int shards = config_.engine.shards;
  if (shards < 1)
    throw std::invalid_argument("EngineConfig::shards must be >= 1");
  // One worker per switch band, never more workers than switches. exec0
  // keeps the whole protocol plane, so a hosts-only topology stays classic.
  const int workers = std::min(shards - 1, topo_.num_switches());
  if (workers == 0) return ShardPlan{};
  if (config_.faults.any())
    throw std::invalid_argument(
        "sharded runs (--shards > 1) do not support armed fault injection "
        "yet; run with shards = 1");
  if (config_.tree.kind == TreeStrategyKind::kLoadAware)
    throw std::invalid_argument(
        "the load-aware tree strategy reads per-switch load mid-run and is "
        "not supported with --shards > 1 yet");
  for (const auto& [g, kind] : config_.tree.per_group)
    if (kind == TreeStrategyKind::kLoadAware)
      throw std::invalid_argument(
          "the load-aware tree strategy (per-group override) is not "
          "supported with --shards > 1 yet");

  ShardPlan plan;
  plan.node_exec.assign(static_cast<std::size_t>(topo_.num_nodes()), 0);
  // Switches are banded by NodeId order into contiguous chunks: generators
  // emit switches row-major (torus) or stage-major (Clos/fat tree), so
  // consecutive ids are physically adjacent and most hops stay in-band.
  std::vector<NodeId> switches;
  for (NodeId n = 0; n < topo_.num_nodes(); ++n)
    if (topo_.node(n).kind == NodeKind::kSwitch) switches.push_back(n);
  const std::size_t band =
      (switches.size() + static_cast<std::size_t>(workers) - 1) /
      static_cast<std::size_t>(workers);
  for (std::size_t i = 0; i < switches.size(); ++i)
    plan.node_exec[static_cast<std::size_t>(switches[i])] =
        1 + static_cast<int>(i / band);

  // Lookahead = the minimum propagation delay over cross-executor links:
  // an effect emitted at t inside a window lands at t + delay >= window
  // end + 1, so intra-window execution needs no synchronization.
  Time lookahead = kTimeNever;
  for (LinkId l = 0; l < topo_.num_links(); ++l) {
    const TopoLink& lk = topo_.link(l);
    if (plan.node_exec[static_cast<std::size_t>(lk.node_a)] !=
        plan.node_exec[static_cast<std::size_t>(lk.node_b)])
      lookahead = std::min(lookahead, lk.delay);
  }
  if (lookahead == kTimeNever) lookahead = 1;  // no cross links at all

  worker_sims_.reserve(static_cast<std::size_t>(workers));
  plan.sims.push_back(&sim_);
  for (int i = 0; i < workers; ++i) {
    worker_sims_.push_back(std::make_unique<Simulator>(config_.engine.queue));
    plan.sims.push_back(worker_sims_.back().get());
  }
  engine_ = std::make_unique<ShardedEngine>(plan.sims, lookahead);
  plan.bus = &engine_->bus();
  return plan;
}

void Network::require_unsharded(const char* what) const {
  if (engine_ != nullptr)
    throw std::logic_error(std::string(what) +
                           " is not supported with --shards > 1 yet; run "
                           "with shards = 1");
}

Network::~Network() = default;

void Network::inject(const Demand& demand) {
  protocols_[demand.src]->originate(demand);
}

std::shared_ptr<MessageContext> Network::send_switch_multicast(
    HostId src, GroupId group, std::int64_t payload) {
  require_unsharded("send_switch_multicast");
  const CircuitTable& members = tables_->circuit(group);
  const int dests = members.size() - (members.contains(src) ? 1 : 0);
  auto ctx = metrics_.create_message(src, group, payload, dests, sim_.now());
  if (dests == 0) return ctx;
  gate_admit(GatedSend{src, group, payload, /*broadcast=*/false, ctx});
  return ctx;
}

std::shared_ptr<MessageContext> Network::send_switch_broadcast(
    HostId src, std::int64_t payload) {
  require_unsharded("send_switch_broadcast");
  auto ctx = metrics_.create_message(src, kBroadcastGroup, payload,
                                     topo_.num_hosts() - 1, sim_.now());
  gate_admit(GatedSend{src, kNoGroup, payload, /*broadcast=*/true, ctx});
  return ctx;
}

// --- multicast admission gate -----------------------------------------------

namespace {
void collect_tree_nodes(const Topology& topo, NodeId at,
                        const McastRouteTree& tree, std::vector<NodeId>* out) {
  const NodeId next = topo.neighbor_via(at, tree.port);
  out->push_back(next);
  for (const McastRouteTree& child : tree.children)
    collect_tree_nodes(topo, next, child, out);
}
}  // namespace

std::vector<NodeId> Network::gate_footprint(const GatedSend& send) const {
  std::vector<NodeId> nodes;
  if (send.broadcast) {
    // The flood covers the whole spanning tree: claim everything.
    nodes.resize(static_cast<std::size_t>(topo_.num_nodes()));
    for (NodeId n = 0; n < topo_.num_nodes(); ++n)
      nodes[static_cast<std::size_t>(n)] = n;
    return nodes;
  }
  nodes.push_back(send.src);
  const NodeId src_sw = topo_.switch_of_host(send.src);
  nodes.push_back(src_sw);
  const CircuitTable& members = tables_->circuit(send.group);
  const McastPlan plan =
      strategy_->plan_multicast(send.group, send.src, members.order());
  for (const McastPartition& part : plan.partitions)
    for (const McastRouteTree& branch : part.branches)
      collect_tree_nodes(topo_, src_sw, branch, &nodes);
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

bool Network::gate_admissible(const std::vector<NodeId>& nodes) const {
  for (const NodeId n : nodes)
    if (gate_node_claims_[static_cast<std::size_t>(n)] > 0) return false;
  return true;
}

void Network::gate_admit(GatedSend send) {
  // A degenerate message with no live context (e.g. a broadcast on a
  // one-host fabric) can never signal close: inject it untracked.
  if (!metrics_.is_outstanding(send.ctx->message_id)) {
    gate_inject(send);
    return;
  }
  if (gate_queue_.empty()) {
    std::vector<NodeId> nodes = gate_footprint(send);
    if (gate_admissible(nodes)) {
      gate_dispatch(std::move(send), std::move(nodes));
      return;
    }
  }
  // Strict FIFO: once anything queues, later sends queue behind it even if
  // they would be admissible — bypassing would starve the blocked head.
  gate_queue_.push_back(std::move(send));
}

void Network::gate_dispatch(GatedSend send, std::vector<NodeId> nodes) {
  for (const NodeId n : nodes) ++gate_node_claims_[static_cast<std::size_t>(n)];
  gated_nodes_.emplace(send.ctx->message_id, std::move(nodes));
  gate_inject(send);
}

void Network::gate_inject(const GatedSend& send) {
  if (send.broadcast) {
    auto worm = worm_pool_.make();
    worm->id = send.ctx->message_id;
    worm->kind = WormKind::kSwitchMcast;
    worm->src = send.src;
    worm->payload = send.payload;
    worm->header = 0;
    worm->broadcast_flood = true;
    worm->route = strategy_->primary_routing().route_to_root(send.src);
    worm->message = send.ctx;
    worm->created_at = send.ctx->created_at;
    adapters_[send.src]->send(std::move(worm));
    return;
  }
  // One worm per plan partition (the single-root strategy always plans
  // exactly one). Partitions are host-disjoint, so the shared message
  // context counts each destination exactly once.
  const CircuitTable& members = tables_->circuit(send.group);
  const McastPlan plan =
      strategy_->plan_multicast(send.group, send.src, members.order());
  for (const McastPartition& part : plan.partitions) {
    auto worm = worm_pool_.make();
    worm->id = send.ctx->message_id;
    worm->kind = WormKind::kSwitchMcast;
    worm->src = send.src;
    worm->payload = send.payload;
    worm->header = 0;  // metadata rides in the shared message context
    worm->mcast_route = EncodedMcastRoute::encode(part.branches);
    worm->message = send.ctx;
    worm->created_at = send.ctx->created_at;
    adapters_[send.src]->send(std::move(worm));
  }
}

void Network::on_message_closed(std::uint64_t message_id) {
  const auto it = gated_nodes_.find(message_id);
  if (it == gated_nodes_.end()) return;
  for (const NodeId n : it->second)
    --gate_node_claims_[static_cast<std::size_t>(n)];
  gated_nodes_.erase(it);
  gate_pump();
}

void Network::gate_pump() {
  while (!gate_queue_.empty()) {
    GatedSend& front = gate_queue_.front();
    // A queued message can close while waiting (abandoned at repair time):
    // drop it instead of injecting worms for a dead context.
    if (!metrics_.is_outstanding(front.ctx->message_id)) {
      gate_queue_.pop_front();
      continue;
    }
    // Footprint recomputed per attempt: plans may have changed while the
    // send waited (membership churn, load re-plans, root migration).
    std::vector<NodeId> nodes = gate_footprint(front);
    if (!gate_admissible(nodes)) return;  // strict FIFO: head blocks the rest
    GatedSend send = std::move(front);
    gate_queue_.pop_front();
    gate_dispatch(std::move(send), std::move(nodes));
  }
}

void Network::crash_host(HostId h, Time when) {
  require_unsharded("crash_host");
  sim_.at(when, [this, h] {
    faults_->mark_host_dead(h);
    protocols_[h]->on_crash();
  });
}

void Network::fail_link(LinkId l, Time when) {
  require_unsharded("fail_link");
  // Stage labels do not re-orient around a dead link: the recomputed
  // routing can leave connected switches with no legal climb to the root,
  // and a later broadcast would throw from inside the event loop.
  if (!config_.routing.level_override.empty())
    throw std::logic_error(
        "fail_link is not supported with stage-labelled up/down routing "
        "(routing.level_override)");
  sim_.at(when, [this, l] {
    const TopoLink& link = topo_.link(l);
    faults_->kill_link(&fabric_->channel_from(l, link.node_a));
    faults_->kill_link(&fabric_->channel_from(l, link.node_b));
    // Recompute up/down labels around the dead link; this also clears the
    // route caches, so every retransmission travels the healed paths. The
    // strategy recomputes its owned routings and drops cached plans.
    routing_->fail_link(l);
    strategy_->fail_link(l);
    metrics_.on_link_failed();
  });
}

void Network::migrate_root(NodeId new_root, Time when) {
  sim_.at(when, [this, new_root] {
    routing_->set_root(new_root);
    strategy_->on_root_migrated(new_root);
  });
}

int Network::flap_link(LinkId l, Time from, Time until, Time mean_down,
                       Time mean_up) {
  require_unsharded("flap_link");
  const TopoLink& link = topo_.link(l);
  // One key per link: both directed channels share the schedule (the link
  // flaps as a unit) and the windows never depend on call order.
  const std::uint64_t key = 0xF1A90000ull + static_cast<std::uint64_t>(l);
  const int windows =
      faults_->schedule_flaps(&fabric_->channel_from(l, link.node_a), from,
                              until, mean_down, mean_up, key);
  faults_->schedule_flaps(&fabric_->channel_from(l, link.node_b), from, until,
                          mean_down, mean_up, key);
  // Deliberately NOT routing_->fail_link(): the link recovers, so cached
  // routes stay valid — invalidating them here would bake every transient
  // outage into the topology forever (the fail_link permanence assumption
  // flap cycles exist to avoid). Retransmissions bridge each down-window.
  return windows;
}

// --- membership churn -------------------------------------------------------

namespace {
std::uint64_t member_key(GroupId g, HostId h) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(g)) << 32) |
         static_cast<std::uint32_t>(h);
}
}  // namespace

void Network::request_join(GroupId g, HostId h, Time when) {
  sim_.at(when, [this, g, h] { enqueue_join(g, h, sim_.now(), 0); });
}

void Network::request_leave(GroupId g, HostId h, Time when) {
  sim_.at(when, [this, g, h] {
    // Leaves are never shed: a departure must not be deniable.
    membership_q_.push_back(MembershipOp{false, g, h, sim_.now(), 0});
    membership_queue_peak_ =
        std::max(membership_queue_peak_,
                 static_cast<std::int64_t>(membership_q_.size()));
    pump_membership();
  });
}

void Network::enqueue_join(GroupId g, HostId h, Time requested_at,
                           int attempts) {
  if (attempts == 0) metrics_.on_join_requested();
  // Every attempt (retries included) re-arms the join-grace obligation:
  // each request must be applied or shed within the window.
  WORMTRACE(sim_, kProtoJoinRequest, h, -1, 0, g);
  const MembershipConfig& m = config_.membership;
  if (m.queue_limit > 0 &&
      static_cast<int>(membership_q_.size()) >= m.queue_limit) {
    const bool final_shed = attempts + 1 >= m.max_join_attempts;
    metrics_.on_join_shed(final_shed);
    WORMTRACE(sim_, kProtoJoinShed, h, -1, 0, g);
    if (!final_shed) {
      // Capped exponential back-off plus jitter, the NACK-retry discipline:
      // shed joiners return slowly and never in lockstep.
      Time delay = m.retry_backoff
                   << std::min(attempts, 4);  // cap at 16x the base
      if (m.retry_jitter > 0)
        delay += membership_rng_.keyed_uniform(
            0, m.retry_jitter, 0x3E17Bull, member_key(g, h),
            static_cast<std::uint64_t>(attempts));
      sim_.after(delay, [this, g, h, requested_at, attempts] {
        enqueue_join(g, h, requested_at, attempts + 1);
      });
    }
    return;
  }
  membership_q_.push_back(MembershipOp{true, g, h, requested_at, attempts});
  membership_queue_peak_ = std::max(
      membership_queue_peak_, static_cast<std::int64_t>(membership_q_.size()));
  pump_membership();
}

void Network::pump_membership() {
  if (membership_pump_armed_ || membership_q_.empty()) return;
  membership_pump_armed_ = true;
  // One operation per op_cost byte-times: the coordinator's control-plane
  // bandwidth, and the backpressure that makes the queue bound meaningful.
  sim_.after(config_.membership.op_cost, [this] {
    membership_pump_armed_ = false;
    if (membership_q_.empty()) return;
    const MembershipOp op = membership_q_.front();
    membership_q_.pop_front();
    if (op.join) {
      apply_join(op);
    } else {
      apply_leave(op);
    }
    pump_membership();
  });
}

void Network::apply_join(const MembershipOp& op) {
  const std::uint64_t key = member_key(op.group, op.host);
  if (faults_->host_dead(op.host) || removed_hosts_.count(op.host) > 0) {
    // The host crashed while its join was queued: resolve the obligation
    // explicitly as a final shed rather than leaving it dangling.
    metrics_.on_join_shed(true);
    WORMTRACE(sim_, kProtoJoinShed, op.host, -1, 0, op.group);
    return;
  }
  const GroupTables::JoinResult jr = tables_->add_member(op.group, op.host);
  const bool rejoin = jr.joined && former_members_.erase(key) > 0;
  metrics_.on_join_applied(sim_.now() - op.requested_at, rejoin);
  WORMTRACE(sim_, kProtoJoinApplied, op.host, -1, 0, op.group);
  if (!jr.joined) return;  // already a member: applied idempotently
  if (rejoin) WORMTRACE(sim_, kProtoRejoin, op.host, -1, 0, op.group);
  joined_at_[key] = sim_.now();
  // Re-plan the group's strategy trees for the new membership (multi-root
  // re-picks the root, cached multicast plans drop).
  strategy_->plan_group(op.group, tables_->circuit(op.group).order());
  // The joiner first (it sets its view floor and, on rejoin, resets the
  // group's dedup epoch), then every peer patches in-flight hop budgets.
  protocols_[op.host]->on_self_joined(op.group, rejoin);
  for (const auto& protocol : protocols_)
    protocol->on_member_joined(op.group, op.host);
  if (!scheme_uses_circuit(config_.protocol.scheme)) return;
  // Settle sweep (circuit schemes only): a worm already inside a channel
  // or adapter queue carries a hop budget sized for the pre-join circuit,
  // so the members past the splice point can miss that copy — the one
  // race no table patch can reach. Give such pre-join messages join_grace
  // to finish honestly, then write the stragglers off as disrupted so the
  // run drains (the exact repair_grace discipline, for joins).
  const Time joined_at = sim_.now();
  const GroupId g = op.group;
  sim_.after(config_.membership.join_grace, [this, joined_at, g] {
    for (const std::shared_ptr<MessageContext>& ctx :
         metrics_.outstanding_messages())
      if (ctx->group == g && ctx->created_at <= joined_at)
        metrics_.abandon_message(ctx);
  });
}

void Network::apply_leave(const MembershipOp& op) {
  if (faults_->host_dead(op.host) || removed_hosts_.count(op.host) > 0)
    return;  // the crash (and its full repair) superseded the leave
  if (!tables_->is_member(op.group, op.host)) return;  // duplicate or stale
  if (tables_->group_size(op.group) <= 1) return;  // sole member: keep group
  const std::uint64_t key = member_key(op.group, op.host);

  // Accounting triage before the tables forget the member, mirroring
  // declare_host_dead but scoped: the leaver stays alive, so messages it
  // *originated* keep completing normally — only its destination role in
  // this group ends. Messages created before the leaver even joined never
  // counted it as a destination, so they must not shrink either.
  const auto joined_it = joined_at_.find(key);
  const Time member_since = joined_it == joined_at_.end() ? 0 : joined_it->second;
  for (const std::shared_ptr<MessageContext>& ctx :
       metrics_.outstanding_messages()) {
    if (ctx->group != op.group || ctx->origin == op.host) continue;
    if (ctx->created_at < member_since) continue;  // pre-join: not a dest
    const std::vector<std::uint64_t>* order =
        metrics_.order_of(op.host, ctx->group);
    const bool already_delivered =
        order != nullptr && std::find(order->begin(), order->end(),
                                      ctx->message_id) != order->end();
    if (!already_delivered) metrics_.shrink_destinations(ctx, sim_.now());
  }

  const GroupTables::RepairStats stats =
      tables_->remove_member_from(op.group, op.host);
  repair_stats_.circuits_spliced += stats.circuits_spliced;
  repair_stats_.subtrees_reparented += stats.subtrees_reparented;
  repair_stats_.roots_promoted += stats.roots_promoted;
  former_members_.insert(key);
  joined_at_.erase(key);
  strategy_->plan_group(op.group, tables_->circuit(op.group).order());
  metrics_.on_leave_applied();
  WORMTRACE(sim_, kProtoLeave, op.host, -1, 0, op.group);
  // The leaver finishes what it holds (forward-only, no new deliveries);
  // every peer retargets in-flight sends around it. No suspicion, no
  // repair-grace burn: this is a clean departure, not a failure.
  protocols_[op.host]->on_self_left(op.group);
  for (const auto& protocol : protocols_)
    protocol->on_member_left(op.host, op.group, stats.reattachments);
}

void Network::declare_host_dead(HostId dead) {
  if (!removed_hosts_.insert(dead).second) return;  // already repaired
  faults_->mark_host_dead(dead);
  protocols_[dead]->on_crash();  // no-op when already crashed

  // Message-accounting triage *before* the tables forget the member: a
  // message is abandoned when its origin (or unicast destination) died;
  // a multicast merely loses one destination when a member that had not
  // yet delivered it died.
  for (const std::shared_ptr<MessageContext>& ctx :
       metrics_.outstanding_messages()) {
    if (ctx->origin == dead ||
        (ctx->group == kNoGroup && ctx->unicast_dst == dead)) {
      metrics_.abandon_message(ctx);
      continue;
    }
    if (ctx->group == kNoGroup) continue;
    const bool dead_is_dest = ctx->group == kBroadcastGroup ||
                              tables_->circuit(ctx->group).contains(dead);
    if (!dead_is_dest) continue;
    const std::vector<std::uint64_t>* order =
        metrics_.order_of(dead, ctx->group);
    const bool already_delivered =
        order != nullptr && std::find(order->begin(), order->end(),
                                      ctx->message_id) != order->end();
    if (!already_delivered) metrics_.shrink_destinations(ctx, sim_.now());
  }

  // Heal the shared group structures in place: splice the circuits,
  // re-parent orphaned subtrees, promote a new root where needed. Every
  // protocol sees the repaired tables immediately (shared by reference).
  // Affected groups are captured *before* the splice — afterwards the
  // tables no longer know where the dead member was.
  const std::vector<GroupId> affected = tables_->groups_containing(dead);
  const GroupTables::RepairStats stats = tables_->remove_member(dead);
  for (const GroupId g : affected)
    strategy_->plan_group(g, tables_->circuit(g).order());
  repair_stats_.circuits_spliced += stats.circuits_spliced;
  repair_stats_.subtrees_reparented += stats.subtrees_reparented;
  repair_stats_.roots_promoted += stats.roots_promoted;

  // Let every survivor retarget its in-flight sends onto the repaired
  // structures (the PR-1 retry machinery then redelivers them).
  for (const auto& protocol : protocols_)
    protocol->on_peer_removed(dead, stats.reattachments);
  metrics_.on_repair(sim_.now());

  // Grace sweep: copies that died *inside* the crashed member (ACKed but
  // never forwarded) leave their message outstanding forever. Give the
  // repaired structures a grace period to finish honest stragglers, then
  // write the rest off as disrupted so quiescence drains.
  const Time repaired_at = sim_.now();
  sim_.after(config_.protocol.repair_grace, [this, repaired_at] {
    for (const std::shared_ptr<MessageContext>& ctx :
         metrics_.outstanding_messages())
      if (ctx->created_at <= repaired_at) metrics_.abandon_message(ctx);
  });
}

void Network::run(Time warmup, Time measure, Time drain_cap) {
  metrics_.set_window_start(warmup);
  measure_span_ = measure;
  // The built-in workload is built here, its only user: networks driven by
  // inject() never pay for its per-host streams.
  if (!traffic_)
    traffic_ = std::make_unique<TrafficGenerator>(
        sim_, config_.traffic, groups_, topo_.num_hosts(),
        RandomStream(config_.seed).fork(0x7AFF1C),
        [this](const Demand& d) { inject(d); });
  traffic_->start(warmup + measure);
  // Window edges are read between run_until() calls, after every event of
  // the edge tick has fired: mid-tick reads would depend on how events
  // interleave within the tick, which the burst fast path changes. A
  // sharded run_until leaves every executor parked at the deadline, so
  // these reads see the same settled state as the classic path.
  run_until(warmup);
  egress_at_window_start_ = fabric_->host_egress_bytes();
  run_until(warmup + measure);
  egress_at_window_end_ = fabric_->host_egress_bytes();
  // Drain: let in-flight messages finish so tail latencies are recorded,
  // bounded so saturated runs terminate.
  const Time drain_deadline = warmup + measure + drain_cap;
  while (metrics_.outstanding() > 0 && sim_.now() < drain_deadline &&
         !(engine_ ? engine_->idle() : sim_.idle())) {
    run_until(std::min(drain_deadline, sim_.now() + 10'000));
  }
}

Network::Summary Network::summary() const {
  Summary s;
  s.offered_load = config_.traffic.offered_load;
  if (measure_span_ > 0) {
    s.measured_utilization =
        static_cast<double>(egress_at_window_end_ - egress_at_window_start_) /
        static_cast<double>(measure_span_) /
        static_cast<double>(topo_.num_hosts());
  }
  s.mcast_latency_mean = metrics_.mcast_latency().mean();
  s.mcast_latency_p95 = metrics_.mcast_latency().percentile(95.0);
  s.mcast_completion_mean = metrics_.mcast_completion().mean();
  s.unicast_latency_mean = metrics_.unicast_latency().mean();
  s.mcast_samples = metrics_.mcast_latency().count();
  s.mcast_completion_samples = metrics_.mcast_completion().count();
  s.unicast_samples = metrics_.unicast_latency().count();
  const double span = measure_span_ > 0 ? static_cast<double>(measure_span_) : 1.0;
  s.throughput_per_host = static_cast<double>(metrics_.payload_delivered()) /
                          span / static_cast<double>(topo_.num_hosts());
  s.messages = metrics_.messages_created();
  s.drops = metrics_.mcast_drops();
  s.nacks = metrics_.nacks();
  s.retransmits = metrics_.retransmits();
  s.outstanding = metrics_.outstanding();
  s.oldest_outstanding_age = metrics_.oldest_outstanding_age(sim_.now());
  s.fabric_overflows = fabric_->total_overflows();
  s.faults_injected = faults_->total_injected();
  s.bytes_swallowed = fabric_->total_bytes_swallowed();
  s.ack_timeouts = metrics_.ack_timeouts();
  s.duplicates_suppressed = metrics_.duplicates_suppressed();
  s.deliveries_failed = metrics_.deliveries_failed();
  s.messages_completed = metrics_.messages_completed();
  s.suspicions = metrics_.suspicions();
  s.hosts_crashed = faults_->hosts_crashed();
  s.hosts_removed = static_cast<std::int64_t>(removed_hosts_.size());
  s.links_failed = metrics_.links_failed();
  s.sends_rerouted = metrics_.sends_rerouted();
  s.messages_disrupted = metrics_.messages_disrupted();
  s.unicasts_flushed = mcast_engine_->unicasts_flushed();
  s.last_repair_time = metrics_.last_repair_time();
  s.joins_requested = metrics_.joins_requested();
  s.joins_applied = metrics_.joins_applied();
  s.joins_shed = metrics_.joins_shed();
  s.joins_abandoned = metrics_.joins_abandoned();
  s.rejoins = metrics_.rejoins();
  s.leaves = metrics_.leaves();
  s.join_latency_mean = metrics_.join_latency().mean();
  s.join_latency_p95 = metrics_.join_latency().percentile(95.0);
  s.join_samples = metrics_.join_latency().count();
  s.membership_queue_peak = membership_queue_peak_;
  s.flap_windows = faults_->flap_windows();
  return s;
}

void Network::enable_tracing(std::size_t capacity) {
  sim_.tracer().enable(capacity);
  for (const auto& s : worker_sims_) s->tracer().enable(capacity);
}

std::vector<TraceEvent> Network::merged_trace_snapshot() const {
  std::vector<TraceEvent> events = sim_.tracer().snapshot();
  if (worker_sims_.empty()) return events;
  for (const auto& s : worker_sims_) {
    const std::vector<TraceEvent> part = s->tracer().snapshot();
    events.insert(events.end(), part.begin(), part.end());
  }
  // Canonical stream: time-ordered, each executor's recording order
  // preserved within a tick (every per-component track lives on exactly
  // one executor, so track-local causality survives the merge).
  std::stable_sort(
      events.begin(), events.end(),
      [](const TraceEvent& a, const TraceEvent& b) { return a.t < b.t; });
  return events;
}

std::int64_t Network::trace_recorded() const {
  std::int64_t total = sim_.tracer().recorded();
  for (const auto& s : worker_sims_) total += s->tracer().recorded();
  return total;
}

std::int64_t Network::trace_dropped() const {
  std::int64_t total = sim_.tracer().dropped();
  for (const auto& s : worker_sims_) total += s->tracer().dropped();
  return total;
}

bool Network::write_trace(const std::string& path) const {
  if (worker_sims_.empty()) return write_chrome_trace(sim_.tracer(), path);
  std::ofstream out(path);
  if (!out) {
    std::cerr << "write_trace: cannot open " << path << '\n';
    return false;
  }
  out << chrome_trace_json(merged_trace_snapshot());
  return static_cast<bool>(out);
}

check::CheckReport Network::check_expectations() const {
  check::CheckReport rep;
  if (!sim_.tracer().enabled() && trace_recorded() == 0) {
    rep.refusal =
        "tracing is not enabled; call enable_tracing() before the run "
        "(with --check the benches do this automatically)";
    return rep;
  }
  if (trace_dropped() > 0) {
    std::ostringstream why;
    why << "the trace ring wrapped: " << trace_dropped() << " of "
        << trace_recorded() << " events were overwritten (capacity "
        << sim_.tracer().capacity() << " per executor)"
        << ", so absence of a violation proves nothing; raise the trace "
           "capacity (--trace-cap) until nothing drops";
    rep.refusal = why.str();
    rep.events_dropped = trace_dropped();
    return rep;
  }

  check::CheckConfig ccfg;
  const ProtocolConfig& p = config_.protocol;
  ccfg.ack_timeout = p.ack_timeout;
  ccfg.retry_backoff = p.retry_backoff;
  ccfg.retry_jitter = p.retry_jitter;
  ccfg.max_attempts = p.max_attempts;
  ccfg.suspicion_timeout = p.suspicion_timeout;
  ccfg.probe_interval = p.probe_interval > 0
                            ? p.probe_interval
                            : std::max<Time>(1, p.suspicion_timeout / 4);
  ccfg.repair_grace = p.repair_grace;
  ccfg.join_grace = config_.membership.join_grace;
  // The idle-flush rule only applies when scheme (c) can actually flush.
  ccfg.idle_flush_threshold =
      config_.switch_mcast.scheme == SwitchMcastScheme::kFlushUnicast
          ? config_.switch_mcast.idle_flush_threshold
          : 0;
  rep = check::run_checks(merged_trace_snapshot(), check::standard_rules(ccfg));
  rep.events_dropped = trace_dropped();
  return rep;
}

void Network::register_counters(CounterRegistry& reg) const {
  const auto i64 = [](auto getter) {
    return [getter] { return static_cast<double>(getter()); };
  };
  reg.add("messages_created", i64([this] { return metrics_.messages_created(); }));
  reg.add("messages_completed",
          i64([this] { return metrics_.messages_completed(); }));
  reg.add("payload_delivered",
          i64([this] { return metrics_.payload_delivered(); }));
  reg.add("outstanding", i64([this] { return metrics_.outstanding(); }));
  reg.add("nacks", i64([this] { return metrics_.nacks(); }));
  reg.add("retransmits", i64([this] { return metrics_.retransmits(); }));
  reg.add("relays", i64([this] { return metrics_.relays(); }));
  reg.add("ack_timeouts", i64([this] { return metrics_.ack_timeouts(); }));
  reg.add("duplicates_suppressed",
          i64([this] { return metrics_.duplicates_suppressed(); }));
  reg.add("deliveries_failed",
          i64([this] { return metrics_.deliveries_failed(); }));
  reg.add("mcast_drops", i64([this] { return metrics_.mcast_drops(); }));
  reg.add("suspicions", i64([this] { return metrics_.suspicions(); }));
  reg.add("repairs", i64([this] { return metrics_.repairs(); }));
  reg.add("sends_rerouted", i64([this] { return metrics_.sends_rerouted(); }));
  reg.add("messages_disrupted",
          i64([this] { return metrics_.messages_disrupted(); }));
  reg.add("links_failed", i64([this] { return metrics_.links_failed(); }));
  reg.add("churn_joins_requested",
          i64([this] { return metrics_.joins_requested(); }));
  reg.add("churn_joins_applied", i64([this] { return metrics_.joins_applied(); }));
  reg.add("churn_rejoins", i64([this] { return metrics_.rejoins(); }));
  reg.add("churn_leaves", i64([this] { return metrics_.leaves(); }));
  reg.add("shed_joins", i64([this] { return metrics_.joins_shed(); }));
  reg.add("shed_joins_final", i64([this] { return metrics_.joins_abandoned(); }));
  reg.add("membership_queue_peak",
          i64([this] { return membership_queue_peak_; }));
  reg.add("flap_windows", i64([this] { return faults_->flap_windows(); }));
  reg.add("fabric_bytes_sent",
          i64([this] { return fabric_->fabric_bytes_sent(); }));
  reg.add("fabric_bytes_swallowed",
          i64([this] { return fabric_->total_bytes_swallowed(); }));
  reg.add("fabric_overflows", i64([this] { return fabric_->total_overflows(); }));
  reg.add("faults_injected", i64([this] { return faults_->total_injected(); }));
  reg.add("tree_worms_planned",
          i64([this] { return strategy_->worms_planned(); }));
  reg.add("tree_partitions_merged",
          i64([this] { return strategy_->partitions_merged(); }));
  reg.add("tree_replans", i64([this] { return strategy_->replans(); }));
  reg.add("mcast_connections",
          i64([this] { return mcast_engine_->connections_opened(); }));
  reg.add("mcast_fragments",
          i64([this] { return mcast_engine_->fragments_sent(); }));
  reg.add("unicasts_flushed",
          i64([this] { return mcast_engine_->unicasts_flushed(); }));
  reg.add("events_dispatched", i64([this] { return events_dispatched(); }));
  reg.add("event_queue_peak", i64([this] { return event_queue_peak(); }));
  reg.add("trace_events_recorded", i64([this] { return trace_recorded(); }));
  reg.add("trace_events_dropped", i64([this] { return trace_dropped(); }));
  // Memory audit: capacity-based resident-byte estimates per subsystem,
  // so BENCH json shows where a large fabric's memory goes. Deterministic
  // for a given run (capacities follow the event sequence, not the
  // allocator), but per-executor structures (queues, trace rings, arena)
  // legitimately scale with the shard count — the shard gate exempts
  // mem_* wholesale. The protocol entry counts object shells plus the
  // random-stream state each host has allocated by its first draw; the
  // fabric/adapters/tables entries include their queues and tables.
  reg.add("mem_fabric_bytes",
          i64([this] { return fabric_->heap_bytes_estimate(); }));
  reg.add("mem_adapters_bytes", i64([this] {
    std::size_t bytes = 0;
    for (const auto& a : adapters_) bytes += a->heap_bytes_estimate();
    return bytes;
  }));
  reg.add("mem_protocols_bytes", i64([this] {
    std::size_t bytes = protocols_.size() * sizeof(HostProtocol);
    for (const auto& p : protocols_) bytes += p->rng_state_bytes();
    return bytes;
  }));
  reg.add("mem_tables_bytes",
          i64([this] { return tables_->heap_bytes_estimate(); }));
  reg.add("mem_queues_bytes", i64([this] {
    std::size_t bytes = sim_.event_queue_heap_bytes();
    for (const auto& w : worker_sims_) bytes += w->event_queue_heap_bytes();
    return bytes;
  }));
  reg.add("mem_trace_bytes", i64([this] {
    std::size_t bytes = sim_.tracer().capacity() * sizeof(TraceEvent);
    for (const auto& w : worker_sims_)
      bytes += w->tracer().capacity() * sizeof(TraceEvent);
    return bytes;
  }));
  reg.add("mem_arena_bytes", i64([this] {
    return worm_pool_.parked() * sizeof(Worm);
  }));
}

DeadlockWatchdog& Network::attach_watchdog(Time interval) {
  watchdog_ = std::make_unique<DeadlockWatchdog>(
      sim_, interval, [this] { return metrics_.outstanding(); }, nullptr);
  watchdog_->set_diagnostics([this] { return debug_report(); });
  // Sharded runs: bytes can be moving on worker executors while exec0's
  // own progress counter sits still, so the stall detector must watch the
  // engine-wide sum (reads are racy-but-monotone; fine for a watchdog).
  if (engine_)
    watchdog_->set_progress_source([this] { return engine_->progress(); });
  watchdog_->arm();
  return *watchdog_;
}

std::string Network::debug_report() const {
  std::ostringstream out;
  out << "t=" << sim_.now() << " outstanding=" << metrics_.outstanding()
      << " faults=" << faults_->total_injected() << '\n';
  for (HostId h = 0; h < topo_.num_hosts(); ++h) {
    const HostProtocol::DebugSnapshot snap = protocols_[h]->debug_snapshot();
    out << "host " << h << ':' << (protocols_[h]->crashed() ? " dead" : "")
        << " tasks=" << snap.tasks.size()
        << " pool_used=" << snap.pool_used
        << " ack_wait=" << snap.ack_wait_keys.size()
        << " txq=" << adapters_[h]->tx_queue_depth() << '\n';
    for (const HostProtocol::TaskDebug& t : snap.tasks) {
      out << "  msg=" << t.message_id << " origin=" << t.origin
          << " group=" << t.group << " reserved=" << t.reserved
          << (t.rx_complete ? " rx-done" : " rx-partial")
          << (t.delivered ? " delivered" : "")
          << (t.originator ? " originator" : "") << " sends=[";
      for (std::size_t i = 0; i < t.sends.size(); ++i) {
        const HostProtocol::SendDebug& sd = t.sends[i];
        if (i > 0) out << ' ';
        out << sd.to << ':'
            << (sd.failed ? "failed"
                          : (sd.acked ? "acked"
                                      : (sd.started ? "unacked" : "queued")));
        if (sd.attempts > 0) out << "(a" << sd.attempts << ')';
      }
      out << "]\n";
    }
  }
  return out.str();
}

}  // namespace wormcast

#include "net/channel.h"

#include <algorithm>
#include <cassert>

namespace wormcast {

void Channel::set_cross_executor(ShardBus* bus, int tx_exec, int rx_exec,
                                 Simulator* rx_sim) {
  assert(bus_ == nullptr && "cross-executor mode set twice");
  assert(rx_sim != nullptr && tx_exec != rx_exec);
  bus_ = bus;
  tx_exec_ = tx_exec;
  rx_exec_ = rx_exec;
  rx_sim_ = rx_sim;
}

void Channel::publish_rx_budget() {
  assert(sink_ != nullptr);
  rx_dirty_ = false;
  budget_left_ = sink_->rx_burst_budget() - (tx_committed_ - rx_delivered_);
}

void Channel::attach_feed(ByteFeed* feed) {
  assert(feed_ == nullptr && "channel already has a feed");
  feed_ = feed;
  kick();
}

void Channel::detach_feed() {
  assert(feed_ != nullptr);
  feed_ = nullptr;
}

void Channel::kick() {
  if (feed_ == nullptr || stopped_ || pump_scheduled_) return;
  schedule_pump();
}

void Channel::schedule_pump() {
  // Respect the one-byte-per-byte-time line rate. After a burst committed
  // through last_send_, the next pump lands right after the run.
  const Time when = std::max(sim_.now(), last_send_ + 1);
  pump_scheduled_ = true;
  // Late class: a pump scheduled a whole burst ahead must still run after
  // the same-tick deliveries and protocol events, exactly like a per-byte
  // pump scheduled one byte-time ahead would.
  sim_.at_late(when, [this] { pump(); });
}

std::int64_t Channel::bytes_sent() const {
  // A burst committed at t counts its bytes at logical times t..t+n-1;
  // subtract the not-yet-logically-sent tail so mid-run reads (the
  // utilization window edges) match per-byte stepping exactly.
  const Time pending = std::max<Time>(0, last_send_ - sim_.now());
  return bytes_sent_ - (last_run_swallowed_ ? 0 : pending);
}

std::int64_t Channel::bytes_swallowed() const {
  const Time pending = std::max<Time>(0, last_send_ - sim_.now());
  return bytes_swallowed_ - (last_run_swallowed_ ? pending : 0);
}

void Channel::pump() {
  pump_scheduled_ = false;
  if (feed_ == nullptr || stopped_) return;
  if (last_send_ >= sim_.now()) {
    // This tick is already claimed (a burst's logical run extends through
    // last_send_, or a byte went out this tick): hold the line rate and
    // resume right after the run.
    if (!pump_scheduled_) schedule_pump();
    return;
  }
  if (!feed_->byte_available()) {
    // Starved either for a kick (feed will call kick() when ready) or only
    // by bytes that have not logically arrived yet — in the latter case no
    // kick will ever come, so self-schedule at the next logical arrival.
    const Time next = feed_->next_byte_time();
    if (next != kTimeNever) {
      pump_scheduled_ = true;
      sim_.at_late(std::max(next, last_send_ + 1), [this] { pump(); });
    }
    return;
  }

  if (burst_ && try_burst()) return;

  // Claim this tick before calling into the feed: take_byte() can free
  // slack-buffer space and re-entrantly kick() this channel, and that kick
  // must see last_send_ current so it schedules the next tick, not this one.
  last_send_ = sim_.now();
  const TxByte b = feed_->take_byte();
  if (b.head) {
    burst_ok_ = b.worm == nullptr || b.worm->kind != WormKind::kSwitchMcast;
    if (faults_ != nullptr && faults_->armed()) classify_fault(b);
  }
#if !defined(WORMCAST_TRACE_DISABLED)
  if (sim_.tracer().enabled()) {
    if (b.head) {
      trace_worm_ = b.worm != nullptr ? b.worm->id : 0;
      sim_.tracer().record(sim_.now(), TraceEventType::kChanHead, trace_node_,
                           trace_port_, trace_worm_, b.wire_len);
      if (fault_mode_ == FaultMode::kSwallow)
        sim_.tracer().record(sim_.now(), TraceEventType::kChanSwallow,
                             trace_node_, trace_port_, trace_worm_, 0);
    }
    if (b.tail)
      sim_.tracer().record(sim_.now(), TraceEventType::kChanTail, trace_node_,
                           trace_port_, trace_worm_, 0);
  }
#endif

  bool deliver = true;
  bool synth_tail = false;
  switch (fault_mode_) {
    case FaultMode::kNone:
      break;
    case FaultMode::kSwallow:
      deliver = false;
      break;
    case FaultMode::kTruncate:
      if (fault_pass_left_ > 0) {
        --fault_pass_left_;
        synth_tail = (fault_pass_left_ == 0);
      } else {
        deliver = false;
      }
      break;
  }
  if (deliver) {
    ++bytes_sent_;
    last_run_swallowed_ = false;
    const InFlight run{1, b.head, b.tail || synth_tail};
    if (bus_ != nullptr) {
      --budget_left_;  // may go negative; per-byte never consults it
      post_delivery(run, InFlightHead{b.worm, b.wire_len});
    } else {
      in_flight_.push_back(run);
      if (b.head) in_flight_heads_.push_back(InFlightHead{b.worm, b.wire_len});
      ++in_flight_bytes_;
      sim_.after(delay_, [this] { deliver_front(); });
    }
  } else {
    // Swallowed bytes still count as global progress: the transmitter is
    // draining, so the network is not deadlocked, merely lossy.
    ++bytes_swallowed_;
    last_run_swallowed_ = true;
    sim_.note_progress(1);
  }

  if (b.tail) {
    fault_mode_ = FaultMode::kNone;
    ByteFeed* done = feed_;
    feed_ = nullptr;
    done->on_tail_sent();  // may attach a new feed (re-entrant safe)
  } else if (!pump_scheduled_) {  // a re-entrant kick may have scheduled
    schedule_pump();
  }
}

bool Channel::try_burst() {
  // A burst may cover only plain body bytes of an already-classified worm:
  // burst_available() excludes heads and tails by contract, and the fault
  // mode was fixed when this worm's head went through per-byte.
  if (!burst_ok_) return false;
  std::int64_t cap = feed_->burst_available();
  if (cap <= 1) return false;
  if (fault_mode_ == FaultMode::kTruncate) {
    // The synthesized-tail byte (and everything after it) steps per-byte.
    cap = std::min(cap, fault_pass_left_ - 1);
    if (cap <= 1) return false;
  }
  if (fault_mode_ != FaultMode::kSwallow) {
    // Flow-control safety: never let (in flight + this burst) reach the
    // receiver's STOP decision point, so no STOP/GO signal can move. In
    // cross-executor mode the sink is on another thread, so the budget is
    // the conservative barrier-published snapshot instead of a live read.
    cap = std::min(cap, bus_ != nullptr
                            ? budget_left_
                            : sink_->rx_burst_budget() - in_flight_bytes_);
    if (cap <= 1) return false;
  }

  last_send_ = sim_.now();  // claim the tick across the re-entrant window
  const std::int64_t n = feed_->take_bytes(cap);
  assert(n >= 1 && n <= cap);
  last_send_ = sim_.now() + n - 1;  // logical sends at now .. now+n-1
  WORMTRACE(sim_, kChanBurst, trace_node_, trace_port_, trace_worm_, n);
  if (fault_mode_ == FaultMode::kSwallow) {
    bytes_swallowed_ += n;
    last_run_swallowed_ = true;
    sim_.note_progress(n);
  } else {
    if (fault_mode_ == FaultMode::kTruncate) fault_pass_left_ -= n;
    bytes_sent_ += n;
    last_run_swallowed_ = false;
    if (bus_ != nullptr) {
      budget_left_ -= n;
      post_delivery(InFlight{n}, InFlightHead{});
    } else {
      in_flight_.push_back(InFlight{n});
      in_flight_bytes_ += n;
      sim_.after(delay_, [this] { deliver_front(); });
    }
  }
  if (!pump_scheduled_) schedule_pump();
  return true;
}

void Channel::classify_fault(const TxByte& b) {
  fault_mode_ = FaultMode::kNone;
  const WormPtr& w = b.worm;
  if (faults_->link_down(this, sim_.now())) {
    faults_->note_outage_drop();  // this head byte IS a discarded worm
    fault_mode_ = FaultMode::kSwallow;
    return;
  }
  if (w->kind == WormKind::kAck || w->kind == WormKind::kNack ||
      w->kind == WormKind::kProbe || w->kind == WormKind::kProbeAck) {
    if (faults_->should_drop_control(w->id, sim_.now()))
      fault_mode_ = FaultMode::kSwallow;
    return;
  }
  // Only plain data worms are eligible for mid-flight kills: switch-level
  // multicast worms (advisory framing, no end-to-end recovery protocol) and
  // credit-scheme control worms are exempt.
  if (w->kind != WormKind::kData) return;
  if (w->mcast.has_value() && w->mcast->credit != CreditOp::kNone) return;
  if (w->truncated) return;  // already killed upstream
  // A truncated stub must stay frameable: each remaining switch strips one
  // route byte and the final adapter still needs a head and a tail byte.
  // Subtract in signed space: an offset past the route end must fail loudly,
  // not wrap to a huge hop count.
  const std::int64_t remaining_hops =
      static_cast<std::int64_t>(w->route.size()) -
      static_cast<std::int64_t>(w->route_offset);
  assert(remaining_hops >= 0 && "route offset past end of route");
  const std::int64_t min_len = remaining_hops + 2;
  if (b.wire_len - 1 < min_len) return;  // too short to kill cleanly
  if (!faults_->should_kill_worm(w->dst, w->id, sim_.now())) return;
  w->truncated = true;
  fault_mode_ = FaultMode::kTruncate;
  fault_pass_left_ =
      faults_->pick_truncation(min_len, b.wire_len - 1, w->id, sim_.now());
}

void Channel::post_delivery(const InFlight& b, InFlightHead h) {
  tx_committed_ += b.count;
  const Time when = sim_.now() + delay_;
  if (b.head) {
    bus_->post(tx_exec_, rx_exec_, when, /*late=*/false,
               [this, b, h = std::move(h)] { deliver_remote(b, &h); });
  } else {
    bus_->post(tx_exec_, rx_exec_, when, /*late=*/false,
               [this, b] { deliver_remote(b, nullptr); });
  }
}

void Channel::deliver_remote(const InFlight& b, const InFlightHead* h) {
  rx_delivered_ += b.count;
  rx_sim_->note_progress(b.count);  // RX executor: its own counter
  // Landed bytes change the sink-side headroom: have the next barrier
  // republish the burst budget (once, however many runs land this window).
  if (!rx_dirty_) {
    rx_dirty_ = true;
    bus_->enqueue_barrier_task(
        rx_exec_, ShardBus::BarrierTask{
                      [](void* arg) {
                        static_cast<Channel*>(arg)->publish_rx_budget();
                      },
                      this});
  }
  land(b, h);
}

void Channel::deliver_front() {
  assert(!in_flight_.empty());
  const InFlight b = in_flight_.pop_front();
  in_flight_bytes_ -= b.count;
  sim_.note_progress(b.count);
  if (b.head) {
    const InFlightHead h = in_flight_heads_.pop_front();
    land(b, &h);
  } else {
    land(b, nullptr);
  }
}

void Channel::land(const InFlight& b, const InFlightHead* h) {
  assert(sink_ != nullptr && "channel delivered into the void");
  if (b.head)
    sink_->on_head(h->worm, h->wire_len, b.tail);
  else if (b.count > 1)
    sink_->on_body_burst(b.count, /*tail=*/false);
  else
    sink_->on_body(b.tail);
}

void Channel::signal_stop() {
  // Called from the receiver side. In cross-executor mode that is the RX
  // thread, so the transmitter-state flip travels as a boundary message
  // stamped off the *receiver's* clock (the caller's frame of reference —
  // in classic mode the two clocks are the same object).
  if (bus_ != nullptr) {
    bus_->post(rx_exec_, tx_exec_, rx_sim_->now() + delay_, /*late=*/false,
               [this] {
                 stopped_ = true;
                 WORMTRACE(sim_, kChanStop, trace_node_, trace_port_,
                           trace_worm_, 0);
               });
    return;
  }
  sim_.after(delay_, [this] {
    stopped_ = true;
    WORMTRACE(sim_, kChanStop, trace_node_, trace_port_, trace_worm_, 0);
  });
}

void Channel::signal_go() {
  if (bus_ != nullptr) {
    bus_->post(rx_exec_, tx_exec_, rx_sim_->now() + delay_, /*late=*/false,
               [this] {
                 stopped_ = false;
                 WORMTRACE(sim_, kChanGo, trace_node_, trace_port_,
                           trace_worm_, 0);
                 kick();
               });
    return;
  }
  sim_.after(delay_, [this] {
    stopped_ = false;
    WORMTRACE(sim_, kChanGo, trace_node_, trace_port_, trace_worm_, 0);
    kick();
  });
}

}  // namespace wormcast

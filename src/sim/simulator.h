// The discrete-event simulation engine.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_queue.h"
#include "sim/trace.h"
#include "sim/types.h"

namespace wormcast {

/// Discrete-event simulator with a byte-time clock.
///
/// Components schedule callbacks with `at` (absolute) or `after` (relative)
/// and the engine fires them in timestamp order. The engine also maintains a
/// global *progress counter* that components bump whenever payload moves;
/// the DeadlockWatchdog uses it to distinguish "quiescent" from "deadlocked".
class Simulator {
 public:
  explicit Simulator(EventQueueKind queue_kind = EventQueueKind::kCalendar)
      : queue_(queue_kind) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `action` at absolute time `when >= now()`. Like every
  /// scheduling call, takes any void() callable (or an InlineAction
  /// rvalue) and builds it directly in the event queue's arena slot.
  template <typename F>
  EventHandle at(Time when, F&& action) {
    assert(when >= now_ && "scheduling into the past");
    return queue_.schedule(when, std::forward<F>(action));
  }

  /// Schedules `action` at `now() + delay`, `delay >= 0`.
  template <typename F>
  EventHandle after(Time delay, F&& action) {
    assert(delay >= 0 && "negative delay");
    return queue_.schedule(now_ + delay, std::forward<F>(action));
  }

  /// Late-class variant of at(): fires after every same-time normal event
  /// no matter when it was inserted. Used for channel pump self-schedules
  /// so burst-mode (scheduled a whole run ahead) and per-byte (scheduled
  /// one byte-time ahead) pumps occupy the same slot within a tick.
  template <typename F>
  EventHandle at_late(Time when, F&& action) {
    assert(when >= now_ && "scheduling into the past");
    return queue_.schedule(when, std::forward<F>(action), /*late=*/true);
  }

  void cancel(EventHandle handle) { queue_.cancel(handle); }

  /// Runs until the queue drains or `stop()` is called.
  void run();

  /// Runs events with time <= `deadline`; the clock ends at `deadline`
  /// (or at the stop point) even if the queue drained earlier.
  void run_until(Time deadline);

  /// Stops the run loop after the current event completes.
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Time of the earliest pending event; kTimeNever when idle. The sharded
  /// engine polls this at window boundaries to pick the next lookahead
  /// window start.
  [[nodiscard]] Time next_event_time() const { return queue_.next_time(); }

  /// Total events fired since construction (hot-path bench instrumentation).
  [[nodiscard]] std::int64_t events_dispatched() const { return dispatched_; }
  /// High-water mark of the event queue (live + lazily-cancelled entries).
  [[nodiscard]] std::size_t event_queue_peak() const {
    return queue_.peak_size();
  }
  [[nodiscard]] EventQueueKind queue_kind() const { return queue_.kind(); }
  /// Estimated heap bytes behind the event queue (memory audit).
  [[nodiscard]] std::size_t event_queue_heap_bytes() const {
    return queue_.heap_bytes_estimate();
  }

  /// Progress accounting: bumped by components when a byte of payload moves
  /// anywhere in the network. Monotone; used for deadlock detection.
  ///
  /// Single-writer invariant: only the thread running this Simulator's
  /// events ever calls note_progress() on it. A channel bumps its
  /// transmitter's Simulator from the pump (swallowed bytes) and from
  /// deliver_front(), both TX-side events; in cross-executor mode
  /// deliver_remote() runs on the receiver's executor and bumps that
  /// executor's Simulator. So the update is a plain load and store — no
  /// locked read-modify-write on the per-delivery path. The counter stays
  /// a relaxed atomic so the watchdog (on executor 0 of a sharded engine)
  /// can read another executor's counter mid-window without a data race;
  /// it orders nothing, it only has to move when payload moves.
  void note_progress(std::int64_t amount = 1) {
    progress_.store(progress_.load(std::memory_order_relaxed) + amount,
                    std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// The wormtrace flight recorder (disabled until Tracer::enable); every
  /// component reaches it through its Simulator reference via WORMTRACE.
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

 private:
  void dispatch_one();

  EventQueue queue_;
  Tracer tracer_;
  Time now_ = 0;
  bool stopped_ = false;
  std::atomic<std::int64_t> progress_{0};
  std::int64_t dispatched_ = 0;
};

}  // namespace wormcast

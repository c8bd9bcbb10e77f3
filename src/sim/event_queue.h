// A cancellable discrete-event queue ordered by (time, late, sequence).
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/action.h"
#include "sim/types.h"

namespace wormcast {

/// Which pending-event structure backs an EventQueue.
///
/// Both structures fire events in exactly the same order — the comparator
/// (time, late, insertion sequence) is a total order, so any correct
/// priority queue yields the identical event sequence bit for bit (the
/// queue-equivalence suite pins this on full experiment sweeps) — and both
/// reclaim cancelled entries at the same moments, so even the queue peak
/// matches. They differ only in cost: the flat binary heap pays O(log n)
/// per operation; the calendar (a one-tick timing wheel) pays O(1) for
/// every event due within the wheel's horizon.
enum class EventQueueKind : std::uint8_t {
  kCalendar,  // one-tick timing wheel + far-future heap (default)
  kHeap,      // flat binary heap (reference oracle for equivalence tests)
};

/// Handle returned by EventQueue::schedule; can be used to cancel the event.
/// Value-semantic and cheap to copy. A default-constructed handle is invalid.
///
/// Internally the handle names a reusable slot plus the generation the slot
/// had when the event was scheduled; a stale handle (its event fired or was
/// cancelled and the slot was reused) no longer matches the slot's current
/// generation, so cancelling it is a guaranteed no-op. Generations are
/// 64-bit: a uint32 would wrap after 2^32 retire/reuse cycles of one slot,
/// at which point a hoarded stale handle would alias a live event and
/// cancel() would kill it. 2^64 cycles is unreachable (centuries at a
/// billion events per wall-second), so a handle can be held forever.
class EventHandle {
 public:
  EventHandle() = default;
  [[nodiscard]] bool valid() const { return slot_ != kNoSlot; }

 private:
  friend class EventQueue;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  EventHandle(std::uint32_t slot, std::uint64_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kNoSlot;
  std::uint64_t gen_ = 0;
};

/// Priority queue of timestamped callbacks. Events at equal times fire in
/// insertion order (late-class events after every same-time normal event),
/// which makes runs fully deterministic.
///
/// Calendar structure: a wheel of kWheelTicks one-byte-time buckets covers
/// [base, base + kWheelTicks), where base is the time of the last pop. Each
/// bucket holds two FIFO lists (normal, late) linked through the slot
/// arena, and a bitmap of occupied buckets finds the next one. Sequence
/// numbers only grow, so appending already yields (time, late, seq) order
/// with no comparisons. Events past the horizon wait in a flat binary heap
/// of 24-byte entries and move into the wheel when a pop advances base.
///
/// Allocation discipline: actions are InlineActions stored in the slot
/// arena (a recycled vector indexed by the handle's slot), so
/// schedule()/cancel()/pop() never allocate in steady state.
///
/// Cancellation is lazy: a cancelled event's action is destroyed at once
/// (releasing captured shared_ptrs), but its slot stays parked — keeping
/// list links valid — until the entry is dropped, which happens
///   (a) after every pop and cancel, for dead entries at the front (so
///       next_time() is a pure read of a live head);
///   (b) for all dead entries, when a cancel leaves more than half of the
///       parked entries dead;
///   (c) for all dead entries, whenever the live count crosses a resize
///       threshold (a budget starting at 64 that doubles when live exceeds
///       twice it and halves when live falls below an eighth of it).
/// peak_size() counts parked entries, and recorded baselines pin it, so
/// both kinds follow exactly this rule.
class EventQueue {
 public:
  using Action = InlineAction;

  explicit EventQueue(EventQueueKind kind = EventQueueKind::kCalendar);

  [[nodiscard]] EventQueueKind kind() const { return kind_; }

  /// Schedules `action` at absolute time `when`. Events with `late` set
  /// fire after every same-time normal event regardless of insertion
  /// order; within a class, insertion order still breaks ties. Channel
  /// pump self-schedules use the late class so that a pump scheduled far
  /// ahead (the burst fast path) and one scheduled one byte-time ahead
  /// (per-byte stepping) land at the same position in the tick.
  ///
  /// `action` is any void() callable (or an InlineAction rvalue); it is
  /// constructed directly in its arena slot, never moved on the way in.
  template <typename F>
  EventHandle schedule(Time when, F&& action, bool late = false) {
    const std::uint32_t slot = acquire_slot();
    slots_[slot].action.emplace(std::forward<F>(action));
    return enqueue(when, late, slot);
  }

  /// Cancels a previously scheduled event. Cancelling an already-fired or
  /// already-cancelled event is a harmless no-op.
  void cancel(EventHandle handle);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest live event; kTimeNever when empty. Pure read:
  /// the head-is-live invariant means no cleanup is ever needed here.
  [[nodiscard]] Time next_time() const {
    return live_count_ == 0 ? kTimeNever : head_time_;
  }

  /// Removes and returns the earliest live event. Precondition: !empty().
  struct Popped {
    Time time = 0;
    Action action;
  };
  Popped pop();

  /// High-water mark of queue occupancy (live + lazily-cancelled entries);
  /// the hot-path bench reports it as the queue's peak memory proxy.
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }
  /// Dead entries currently parked awaiting a drop.
  [[nodiscard]] std::size_t cancelled_in_heap() const { return dead_parked_; }

  /// Estimated heap bytes behind the queue (slot arena, overflow heap and
  /// the fixed wheel). Capacity-based, so it is deterministic for a given
  /// event sequence — the memory audit's mem_queues_bytes counter.
  [[nodiscard]] std::size_t heap_bytes_estimate() const {
    return sizeof(lists_) + sizeof(occupied_) +
           slots_.capacity() * sizeof(Slot) +
           free_slots_.capacity() * sizeof(std::uint32_t) +
           heap_.capacity() * sizeof(Entry);
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// Wheel horizon in byte-times. Channel pumps and deliveries land within
  /// a few hundred byte-times; per-packet costs and ACK timeouts (tens of
  /// thousands) go to the overflow heap. Measured: 4096 buckets ran no
  /// faster on the testbed or reliable-torus workloads, for 48 KiB more
  /// per queue.
  static constexpr std::size_t kWheelTicks = 1024;
  static constexpr std::size_t kWords = kWheelTicks / 64;

  /// Overflow-heap entry. `key` packs the tie-break: bit 63 is the late
  /// flag and the low 63 bits the insertion sequence, so ordering by
  /// (time, key) equals ordering by (time, late, seq).
  struct Entry {
    Time time = 0;
    std::uint64_t key = 0;
    std::uint32_t slot = 0;
  };
  /// std::push_heap/pop_heap build a max-heap w.r.t. this comparator, so
  /// "later is greater" puts the earliest (time, key) at the front.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.key > b.key;
    }
  };
  /// One arena cell. A slot is owned by its parked entry until that entry
  /// is popped or dropped, so `next` (the wheel-list link) stays valid and
  /// entries need no generation of their own.
  struct Slot {
    Action action;
    std::uint64_t gen = 1;
    std::uint32_t next = kNil;
    bool live = false;
  };
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  [[nodiscard]] static std::size_t bucket_of(Time t) {
    return static_cast<std::uint64_t>(t) & (kWheelTicks - 1);
  }
  /// The one time in [base, base + kWheelTicks) that maps to `bucket`.
  [[nodiscard]] Time bucket_time(std::size_t bucket) const {
    return base_ + static_cast<Time>((bucket - bucket_of(base_)) &
                                     (kWheelTicks - 1));
  }
  /// Takes a free arena slot (recycled first), growing the arena if none.
  std::uint32_t acquire_slot() {
    if (free_slots_.empty()) {
      slots_.emplace_back();
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  /// Parks the event whose action `slot` now holds; schedule()'s
  /// non-template half.
  EventHandle enqueue(Time when, bool late, std::uint32_t slot);
  [[nodiscard]] std::size_t first_bucket() const;
  void append(Time t, bool late, std::uint32_t slot);
  /// Unlinks the front of `list`, clearing the bucket bit when it empties.
  std::uint32_t unlink_front(std::size_t list);
  void release_slot(std::uint32_t slot);
  /// Moves overflow entries now inside the horizon into the wheel.
  void migrate();
  /// Re-bases the wheel below its current base (cold path).
  void rewind(Time when);
  /// Rule (a): drops dead front entries and caches the live head.
  void settle();
  /// Rules (b)/(c): drops every dead entry.
  void sweep();
  void rebudget();

  EventQueueKind kind_;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;  // whole queue (kHeap) or overflow (kCalendar)

  std::array<List, 2 * kWheelTicks> lists_{};  // [2b] normal, [2b+1] late
  std::array<std::uint64_t, kWords> occupied_{};
  std::size_t wheel_size_ = 0;
  Time base_ = 0;

  // Head cache: always names the earliest parked entry once settled.
  Time head_time_ = kTimeNever;
  std::uint32_t head_slot_ = kNil;
  bool head_late_ = false;

  std::size_t live_count_ = 0;
  std::size_t dead_parked_ = 0;
  std::size_t budget_ = 64;
  std::uint64_t next_seq_ = 1;
  std::size_t peak_size_ = 0;
};

}  // namespace wormcast

#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace wormcast {

namespace {

// Typical experiments keep a few hundred in-flight events per host; one
// up-front reservation avoids the incremental regrowth entirely.
constexpr std::size_t kInitialSlotCapacity = 1024;
// Rule (c)'s starting budget and floor.
constexpr std::size_t kMinBudget = 64;

}  // namespace

EventQueue::EventQueue(EventQueueKind kind) : kind_(kind) {
  slots_.reserve(kInitialSlotCapacity);
  free_slots_.reserve(kInitialSlotCapacity);
  if (kind_ == EventQueueKind::kHeap) heap_.reserve(kInitialSlotCapacity);
}

EventHandle EventQueue::enqueue(Time when, bool late, std::uint32_t slot) {
  Slot& s = slots_[slot];
  assert(s.action);
  assert(!s.live);
  s.live = true;
  const std::uint64_t gen = s.gen;
  const std::uint64_t seq = next_seq_++;

  if (kind_ == EventQueueKind::kCalendar && when < base_) rewind(when);
  if (kind_ == EventQueueKind::kCalendar &&
      static_cast<std::uint64_t>(when - base_) < kWheelTicks) {
    append(when, late, slot);
  } else {
    heap_.push_back({when, (static_cast<std::uint64_t>(late) << 63) | seq,
                     slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  // Every parked entry is older than this one, so it leads only by time or
  // by being normal-class against a late head of the same tick. An empty
  // queue parks nothing (settle() drops dead entries once none are live).
  if (live_count_++ == 0 || when < head_time_ ||
      (when == head_time_ && !late && head_late_)) {
    head_time_ = when;
    head_slot_ = slot;
    head_late_ = late;
  }
  rebudget();
  peak_size_ = std::max(peak_size_, live_count_ + dead_parked_);
  return EventHandle(slot, gen);
}

void EventQueue::cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= slots_.size()) return;
  Slot& s = slots_[handle.slot_];
  if (!s.live || s.gen != handle.gen_) return;  // already fired or cancelled
  s.live = false;
  // Destroy the action now, not when the entry is dropped: cancelled
  // retransmit timers capture worm shared_ptrs, and holding those until a
  // sweep would keep whole payloads alive for no reason.
  s.action.reset();
  --live_count_;
  ++dead_parked_;
  settle();
  if (dead_parked_ * 2 > live_count_ + dead_parked_) sweep();
  rebudget();
}

EventQueue::Popped EventQueue::pop() {
  assert(live_count_ > 0 && "pop() on empty EventQueue");
  const std::uint32_t slot = head_slot_;
  assert(slots_[slot].live);
  Popped out{head_time_, std::move(slots_[slot].action)};
  // The wheel list the head came from; lists_.size() for the heap.
  std::size_t list = lists_.size();
  if (wheel_size_ > 0) {
    // The wheel holds everything before the horizon, so a non-empty wheel
    // holds the head, at the front of its list.
    list = 2 * bucket_of(head_time_) + head_late_;
    const std::uint32_t front = unlink_front(list);
    assert(front == slot);
    (void)front;
  } else {
    assert(heap_.front().slot == slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  release_slot(slot);
  --live_count_;
  if (kind_ == EventQueueKind::kCalendar && out.time > base_) {
    base_ = out.time;
    migrate();
  }
  // Fast path: the next entry of the same tick — the rest of the head's
  // list, then (from a normal list) the tick's late list — is the new head
  // when it is live. Every other parked entry is later, and migrate() only
  // brings in entries past this tick. A dead or missing successor leaves
  // the drop and the bitmap scan to settle(), so rule (a) is unchanged.
  head_slot_ = kNil;
  if (list < lists_.size()) {
    std::uint32_t next = lists_[list].head;
    if (next == kNil && !head_late_) {
      next = lists_[list + 1].head;
      head_late_ = true;
    }
    if (next != kNil && slots_[next].live) head_slot_ = next;
  }
  if (head_slot_ == kNil) settle();
  rebudget();
  return out;
  // The caller runs the action after we return, so a re-entrant schedule()
  // sees fully consistent counters and may immediately reuse this slot.
}

std::size_t EventQueue::first_bucket() const {
  assert(wheel_size_ > 0);
  const std::size_t start = bucket_of(base_);
  std::size_t word = start / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start % 64));
  // kWords + 1 probes: the last revisits the start word for buckets that
  // wrapped below the start bit.
  for (std::size_t probe = 0; bits == 0 && probe < kWords; ++probe) {
    word = (word + 1) % kWords;
    bits = occupied_[word];
  }
  assert(bits != 0);
  return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

void EventQueue::append(Time t, bool late, std::uint32_t slot) {
  const std::size_t bucket = bucket_of(t);
  List& l = lists_[2 * bucket + late];
  slots_[slot].next = kNil;
  if (l.tail == kNil) {
    l.head = slot;
  } else {
    slots_[l.tail].next = slot;
  }
  l.tail = slot;
  occupied_[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
  ++wheel_size_;
}

std::uint32_t EventQueue::unlink_front(std::size_t list) {
  List& l = lists_[list];
  const std::uint32_t slot = l.head;
  l.head = slots_[slot].next;
  if (l.head == kNil) {
    l.tail = kNil;
    const std::size_t bucket = list / 2;
    if (lists_[bucket * 2].head == kNil && lists_[bucket * 2 + 1].head == kNil)
      occupied_[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
  }
  --wheel_size_;
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  ++s.gen;  // invalidates every outstanding handle
  free_slots_.push_back(slot);
}

void EventQueue::migrate() {
  while (!heap_.empty() && static_cast<std::uint64_t>(heap_.front().time -
                                                      base_) < kWheelTicks) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry e = heap_.back();
    heap_.pop_back();
    append(e.time, (e.key >> 63) != 0, e.slot);
  }
}

void EventQueue::rewind(Time when) {
  // Only direct EventQueue users schedule before the last pop (Simulator
  // never schedules before now()). Move every wheel entry to the heap,
  // keyed by its position in its list — every such key is below next_seq_
  // and the moved times overlap no overflow entry — then refill the wheel.
  std::uint64_t pos = 0;
  for (std::size_t list = 0; list < lists_.size(); ++list) {
    for (std::uint32_t s = lists_[list].head; s != kNil; s = slots_[s].next) {
      heap_.push_back({bucket_time(list / 2),
                       (static_cast<std::uint64_t>(list % 2) << 63) | ++pos,
                       s});
    }
    lists_[list] = List{};
  }
  occupied_ = {};
  wheel_size_ = 0;
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  base_ = when;
  migrate();
}

void EventQueue::settle() {
  if (head_slot_ != kNil && slots_[head_slot_].live) return;
  for (;;) {
    std::uint32_t slot;
    if (wheel_size_ > 0) {
      const std::size_t bucket = first_bucket();
      const bool late = lists_[bucket * 2].head == kNil;
      slot = lists_[bucket * 2 + late].head;
      if (slots_[slot].live) {
        head_time_ = bucket_time(bucket);
        head_slot_ = slot;
        head_late_ = late;
        return;
      }
      unlink_front(bucket * 2 + late);
    } else if (!heap_.empty()) {
      const Entry& top = heap_.front();
      slot = top.slot;
      if (slots_[slot].live) {
        head_time_ = top.time;
        head_slot_ = slot;
        head_late_ = (top.key >> 63) != 0;
        return;
      }
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    } else {
      head_time_ = kTimeNever;
      head_slot_ = kNil;
      return;
    }
    release_slot(slot);
    --dead_parked_;
  }
}

void EventQueue::sweep() {
  for (std::size_t word = 0; word < kWords; ++word) {
    for (std::uint64_t bits = occupied_[word]; bits != 0; bits &= bits - 1) {
      const std::size_t bucket =
          word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      for (std::size_t list = bucket * 2; list < bucket * 2 + 2; ++list) {
        List survivors;
        for (std::uint32_t s = lists_[list].head, next; s != kNil; s = next) {
          next = slots_[s].next;
          if (!slots_[s].live) {
            release_slot(s);
            --wheel_size_;
          } else if (survivors.tail == kNil) {
            survivors.head = survivors.tail = s;
          } else {
            slots_[survivors.tail].next = s;
            survivors.tail = s;
          }
        }
        if (survivors.tail != kNil) slots_[survivors.tail].next = kNil;
        lists_[list] = survivors;
      }
      if (lists_[bucket * 2].head == kNil && lists_[bucket * 2 + 1].head == kNil)
        occupied_[word] &= ~(std::uint64_t{1} << (bucket % 64));
    }
  }
  std::size_t kept = 0;
  for (const Entry& e : heap_) {
    if (slots_[e.slot].live) {
      heap_[kept++] = e;
    } else {
      release_slot(e.slot);
    }
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_parked_ = 0;
}

void EventQueue::rebudget() {
  if (live_count_ > budget_ * 2) {
    budget_ *= 2;
  } else if (budget_ > kMinBudget && live_count_ < budget_ / 8) {
    budget_ /= 2;
  } else {
    return;
  }
  if (dead_parked_ > 0) sweep();
}

}  // namespace wormcast

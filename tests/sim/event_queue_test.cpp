#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <tuple>
#include <vector>

#include "sim/simulator.h"

namespace wormcast {
namespace {

// Every test runs against both pending-event structures: the flat binary
// heap and the calendar (a 1024-tick timing wheel plus a far-future heap)
// implement the same total order (time, late, insertion sequence) and the
// same reclaim rule, so the whole contract must hold for either kind.
class EventQueueTest : public ::testing::TestWithParam<EventQueueKind> {
 protected:
  EventQueue make() { return EventQueue(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(AllKinds, EventQueueTest,
                         ::testing::Values(EventQueueKind::kCalendar,
                                           EventQueueKind::kHeap),
                         [](const auto& param_info) {
                           return std::string(
                               param_info.param == EventQueueKind::kCalendar
                                   ? "calendar"
                                   : "heap");
                         });

TEST_P(EventQueueTest, FiresInTimeOrder) {
  EventQueue q = make();
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST_P(EventQueueTest, EqualTimesFireInInsertionOrder) {
  EventQueue q = make();
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) q.schedule(5, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST_P(EventQueueTest, LateClassFiresAfterEverySameTimeNormalEvent) {
  EventQueue q = make();
  std::vector<int> fired;
  // Late event inserted FIRST still fires after all same-time normal
  // events; a later time beats both classes.
  q.schedule(5, [&] { fired.push_back(90); }, /*late=*/true);
  q.schedule(5, [&] { fired.push_back(1); });
  q.schedule(5, [&] { fired.push_back(91); }, /*late=*/true);
  q.schedule(5, [&] { fired.push_back(2); });
  q.schedule(6, [&] { fired.push_back(100); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 90, 91, 100}));
}

TEST_P(EventQueueTest, NextTimeReportsEarliestLiveEvent) {
  EventQueue q = make();
  EXPECT_EQ(q.next_time(), kTimeNever);
  auto h = q.schedule(7, [] {});
  q.schedule(9, [] {});
  EXPECT_EQ(q.next_time(), 7);
  q.cancel(h);
  EXPECT_EQ(q.next_time(), 9);
}

TEST_P(EventQueueTest, CancelPreventsExecution) {
  EventQueue q = make();
  bool ran = false;
  auto h = q.schedule(1, [&] { ran = true; });
  q.cancel(h);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST_P(EventQueueTest, CancelTwiceIsHarmless) {
  EventQueue q = make();
  auto h = q.schedule(1, [] {});
  q.cancel(h);
  q.cancel(h);
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueTest, CancelAfterFireIsHarmless) {
  EventQueue q = make();
  auto h = q.schedule(1, [] {});
  q.pop().action();
  q.cancel(h);  // must not corrupt later events
  bool ran = false;
  q.schedule(2, [&] { ran = true; });
  q.pop().action();
  EXPECT_TRUE(ran);
}

TEST_P(EventQueueTest, DefaultHandleIsInvalidAndIgnored) {
  EventQueue q = make();
  EventHandle h;
  EXPECT_FALSE(h.valid());
  q.cancel(h);
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueTest, SizeCountsLiveEventsOnly) {
  EventQueue q = make();
  auto a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST_P(EventQueueTest, InterleavedCancelAndPop) {
  EventQueue q = make();
  std::vector<int> fired;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i)
    handles.push_back(q.schedule(i, [&fired, i] { fired.push_back(i); }));
  for (int i = 0; i < 100; i += 2) q.cancel(handles[static_cast<std::size_t>(i)]);
  while (!q.empty()) q.pop().action();
  ASSERT_EQ(fired.size(), 50u);
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_EQ(fired[i], static_cast<int>(2 * i + 1));
}

TEST_P(EventQueueTest, StaleHandleAfterSlotReuseIsIgnored) {
  EventQueue q = make();
  // Fire an event, then schedule a new one: the new event reuses the old
  // slot (LIFO free list), so the stale handle must not be able to kill it.
  auto stale = q.schedule(1, [] {});
  q.pop().action();
  bool ran = false;
  q.schedule(2, [&] { ran = true; });
  q.cancel(stale);
  ASSERT_FALSE(q.empty());
  q.pop().action();
  EXPECT_TRUE(ran);
}

TEST_P(EventQueueTest, StaleHandleAfterCancelAndReuseIsIgnored) {
  EventQueue q = make();
  auto stale = q.schedule(1, [] {});
  q.cancel(stale);
  bool ran = false;
  q.schedule(2, [&] { ran = true; });
  q.cancel(stale);  // slot was reused by the new event; must be a no-op
  ASSERT_EQ(q.size(), 1u);
  q.pop().action();
  EXPECT_TRUE(ran);
}

TEST_P(EventQueueTest, MassCancellationCompacts) {
  EventQueue q = make();
  std::vector<EventHandle> handles;
  // One far-future survivor keeps the head live while thousands of nearer
  // timers get cancelled (the retransmit-timer pattern).
  bool survivor_ran = false;
  q.schedule(1'000'000, [&] { survivor_ran = true; });
  for (int i = 0; i < 4096; ++i)
    handles.push_back(q.schedule(100 + i, [] {}));
  for (auto& h : handles) q.cancel(h);
  // Compaction bounds parked dead entries to at most half the structure.
  EXPECT_LE(q.cancelled_in_heap() * 2, q.size() + q.cancelled_in_heap());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 1'000'000);
  q.pop().action();
  EXPECT_TRUE(survivor_ran);
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueTest, PeakSizeTracksHighWaterMark) {
  EventQueue q = make();
  std::vector<EventHandle> handles;
  for (int i = 0; i < 64; ++i) handles.push_back(q.schedule(i, [] {}));
  for (int i = 0; i < 32; ++i) q.pop().action();
  EXPECT_EQ(q.peak_size(), 64u);
  q.schedule(1000, [] {});
  EXPECT_EQ(q.peak_size(), 64u);  // never reached 65 live at once
}

// Regression: a cancelled entry parked mid-structure must stay dead even
// after its slot is reused by a newer event. Without a generation check on
// the parked entry, the stale entry pops as if live (firing a cancelled
// action) and retires the reused slot, silently dropping the newer event.
TEST_P(EventQueueTest, ParkedCancelledEntrySurvivesSlotReuse) {
  EventQueue q = make();
  bool cancelled_ran = false;
  bool replacement_ran = false;
  q.schedule(5, [] {});  // live head keeps the cancelled entry parked
  auto doomed = q.schedule(10, [&] { cancelled_ran = true; });
  q.cancel(doomed);  // not the head: entry stays parked
  // Reuses the slot just freed by the cancel.
  q.schedule(20, [&] { replacement_ran = true; });
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().action();
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(replacement_ran);
}

TEST_P(EventQueueTest, NextTimeIsStableAcrossRepeatedCalls) {
  EventQueue q = make();
  auto a = q.schedule(5, [] {});
  q.schedule(8, [] {});
  q.cancel(a);
  // next_time() is a pure read; calling it many times must not change state.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.next_time(), 8);
  EXPECT_EQ(q.size(), 1u);
}

// Slot generations are 64-bit. A 32-bit generation wraps after 2^32
// retire/reuse cycles of one slot, at which point a hoarded stale handle
// aliases a live event and cancel() kills it. 2^32 cycles is reachable in
// hours of simulation; 2^64 is not. The handle must carry the full width.
static_assert(sizeof(EventHandle) >= sizeof(std::uint32_t) + sizeof(std::uint64_t),
              "EventHandle must hold a 32-bit slot and a 64-bit generation");

TEST_P(EventQueueTest, HoardedStaleHandleStaysDeadAcrossHeavySlotReuse) {
  EventQueue q = make();
  // Cycle one slot through many generations while hoarding the first
  // handle; the stale handle must never become able to cancel the current
  // occupant. (A full 2^32 wrap is impractical in a unit test; the
  // static_assert above pins the width, this pins the per-cycle behavior.)
  auto hoarded = q.schedule(1, [] {});
  q.pop().action();
  for (int i = 0; i < 100'000; ++i) {
    auto h = q.schedule(i, [] {});
    q.cancel(h);
  }
  bool ran = false;
  q.schedule(7, [&] { ran = true; });
  q.cancel(hoarded);
  ASSERT_EQ(q.size(), 1u);
  q.pop().action();
  EXPECT_TRUE(ran);
}

// An action fired from pop() may re-enter the queue: scheduling at the
// current time must land after every already-pending same-time event
// (higher insertion sequence), and the accounting (size, next_time) must
// stay coherent mid-dispatch.
TEST_P(EventQueueTest, ReentrantScheduleDuringPop) {
  EventQueue q = make();
  std::vector<int> fired;
  q.schedule(10, [&] {
    fired.push_back(1);
    q.schedule(10, [&] { fired.push_back(3); });  // same tick, new seq
    q.schedule(15, [&] { fired.push_back(4); });
    q.schedule(10, [&] { fired.push_back(100); }, /*late=*/false);
  });
  q.schedule(10, [&] { fired.push_back(2); });
  while (!q.empty()) {
    auto p = q.pop();
    p.action();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 100, 4}));
}

// Randomized differential test: drive the queue with a mixed
// schedule/cancel/pop workload (including re-entrant schedules from inside
// fired actions) and check the fired sequence against a std::multimap
// reference ordered by the documented key (time, late, seq). Exercises
// compaction, calendar resizes, and head-cache maintenance under churn.
TEST_P(EventQueueTest, RandomizedStressMatchesReferenceModel) {
  EventQueue q = make();
  std::mt19937_64 rng(0xC0FFEE);
  using Key = std::tuple<Time, bool, std::uint64_t>;  // (time, late, seq)
  std::map<Key, int> reference;                       // key is unique per event
  std::vector<std::pair<EventHandle, Key>> outstanding;
  std::uint64_t next_seq = 0;
  Time now = 0;
  int next_id = 0;
  int fired_ok = 0;

  auto do_schedule = [&](Time at, bool late) {
    const int id = next_id++;
    const Key key{at, late, next_seq++};
    EventHandle h = q.schedule(
        at,
        [&, id, key] {
          // Differential check at fire time: the reference's earliest
          // pending event must be exactly this one.
          ASSERT_FALSE(reference.empty());
          EXPECT_EQ(reference.begin()->second, id);
          EXPECT_EQ(reference.begin()->first, key);
          reference.erase(reference.begin());
          ++fired_ok;
        },
        late);
    reference.emplace(key, id);
    outstanding.emplace_back(h, key);
  };

  for (int step = 0; step < 30'000; ++step) {
    const auto roll = rng() % 100;
    if (roll < 55 || q.empty()) {
      // Schedule at or after `now` (popping advances the clock; scheduling
      // in the past would be a simulator bug, not a queue workload).
      const Time at = now + static_cast<Time>(rng() % 1024);
      do_schedule(at, (rng() % 8) == 0);
    } else if (roll < 75 && !outstanding.empty()) {
      // Cancel a random outstanding handle (may already be fired/stale —
      // the reference only drops it if still pending).
      const std::size_t i = rng() % outstanding.size();
      q.cancel(outstanding[i].first);
      reference.erase(outstanding[i].second);
      outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ASSERT_EQ(q.size(), reference.size());
      ASSERT_EQ(q.next_time(), std::get<0>(reference.begin()->first));
      auto p = q.pop();
      now = p.time;
      // Occasionally re-enter: schedule from inside the fired action.
      if ((rng() % 16) == 0) {
        p.action();
        do_schedule(now, false);
      } else {
        p.action();
      }
    }
  }
  while (!q.empty()) {
    ASSERT_EQ(q.size(), reference.size());
    q.pop().action();
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_GT(fired_ok, 1000);
}

// Cancel-heavy randomized sweep: forces repeated compactions and verifies
// the live/dead accounting never drifts (size() + cancelled_in_heap() is
// exactly the parked population, and survivors all fire).
TEST_P(EventQueueTest, RandomizedCancelHeavyAccounting) {
  EventQueue q = make();
  std::mt19937_64 rng(42);
  int expected_survivors = 0;
  int fired = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventHandle> doomed;
    for (int i = 0; i < 400; ++i) {
      const Time at = static_cast<Time>(round * 10'000 + (rng() % 5000));
      if ((rng() % 10) == 0) {
        q.schedule(at, [&fired] { ++fired; });
        ++expected_survivors;
      } else {
        doomed.push_back(q.schedule(at, [] {
          FAIL() << "cancelled event fired";
        }));
      }
    }
    for (auto& h : doomed) q.cancel(h);
    // Compaction invariant: parked dead entries never exceed live ones
    // once the cancel burst is over.
    EXPECT_LE(q.cancelled_in_heap(), q.size() + 1);
  }
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, expected_survivors);
}

// --- timing-wheel edges ----------------------------------------------------
// The calendar's wheel covers [base, base + 1024) byte-times, where base is
// the time of the last pop; later events wait in an overflow heap. These
// cases sit on that boundary. The heap kind must behave identically.
constexpr Time kWheel = 1024;

std::vector<Time> drain_times(EventQueue& q) {
  std::vector<Time> times;
  while (!q.empty()) {
    auto p = q.pop();
    times.push_back(p.time);
    p.action();
  }
  return times;
}

TEST_P(EventQueueTest, HorizonBoundaryEventsFireInTimeOrder) {
  EventQueue q = make();
  q.schedule(500, [] {});
  EXPECT_EQ(q.pop().time, 500);  // base is now 500
  const Time base = 500;
  q.schedule(base + kWheel + 1, [] {});
  q.schedule(base + kWheel, [] {});
  q.schedule(base + kWheel - 1, [] {});
  q.schedule(base, [] {});
  EXPECT_EQ(q.next_time(), base);
  EXPECT_EQ(drain_times(q), (std::vector<Time>{base, base + kWheel - 1,
                                               base + kWheel,
                                               base + kWheel + 1}));
}

TEST_P(EventQueueTest, SameTickClassesKeepSeqOrderAcrossMigration) {
  EventQueue q = make();
  std::vector<int> fired;
  const Time far = 5 * kWheel;
  // Beyond the horizon: parked in the overflow heap.
  q.schedule(far, [&] { fired.push_back(90); }, /*late=*/true);
  q.schedule(far, [&] { fired.push_back(1); });
  q.schedule(far, [&] { fired.push_back(91); }, /*late=*/true);
  q.schedule(far, [&] { fired.push_back(2); });
  // Popping this one moves base to within a wheel of `far`, migrating the
  // four above into the wheel; the same-tick events after it append.
  q.schedule(far - kWheel / 2, [&] {
    q.schedule(far, [&] { fired.push_back(92); }, /*late=*/true);
    q.schedule(far, [&] { fired.push_back(3); });
  });
  drain_times(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 90, 91, 92}));
}

TEST_P(EventQueueTest, BitmapScanWrapsAroundTheWheel) {
  EventQueue q = make();
  q.schedule(kWheel - 8, [] {});
  EXPECT_EQ(q.pop().time, kWheel - 8);
  // Buckets below the base's bucket: the scan must wrap to find them.
  q.schedule(kWheel + 40, [] {});
  q.schedule(kWheel + 3, [] {});
  q.schedule(kWheel - 2, [] {});
  EXPECT_EQ(drain_times(q),
            (std::vector<Time>{kWheel - 2, kWheel + 3, kWheel + 40}));
  // Only a wrapped bucket occupied.
  q.schedule(2 * kWheel + 1, [] {});
  EXPECT_EQ(q.next_time(), 2 * kWheel + 1);
  EXPECT_EQ(drain_times(q), (std::vector<Time>{2 * kWheel + 1}));
}

TEST_P(EventQueueTest, RunUntilPastTheHorizonThenSchedule) {
  Simulator sim(GetParam());
  std::vector<std::pair<Time, int>> fired;
  sim.at(10, [&] { fired.emplace_back(sim.now(), 0); });
  sim.run_until(100'000);  // clock jumps far past base + wheel
  EXPECT_EQ(sim.now(), 100'000);
  sim.after(kWheel + 5, [&] { fired.emplace_back(sim.now(), 4); });
  sim.at_late(sim.now() + 5, [&] { fired.emplace_back(sim.now(), 3); });
  sim.after(5, [&] { fired.emplace_back(sim.now(), 2); });
  sim.after(0, [&] {
    fired.emplace_back(sim.now(), 1);
    sim.after(3, [&] { fired.emplace_back(sim.now(), 5); });
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::pair<Time, int>>{
                       {10, 0},
                       {100'000, 1},
                       {100'003, 5},
                       {100'005, 2},
                       {100'005, 3},
                       {100'000 + kWheel + 5, 4}}));
}

TEST_P(EventQueueTest, CancelInOverflowHeap) {
  EventQueue q = make();
  q.schedule(1, [] {});
  auto far_head = q.schedule(50'000, [] { FAIL() << "cancelled event fired"; });
  auto far_mid = q.schedule(55'000, [] { FAIL() << "cancelled event fired"; });
  q.schedule(60'000, [] {});
  q.cancel(far_mid);  // parked far-future entry, not the head
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().time, 1);
  q.cancel(far_head);  // the head, while the wheel is empty
  EXPECT_EQ(q.next_time(), 60'000);
  EXPECT_EQ(drain_times(q), (std::vector<Time>{60'000}));
  EXPECT_EQ(q.cancelled_in_heap(), 0u);
}

// Direct EventQueue users may schedule before the last pop (the Simulator
// never does). The wheel then re-bases below its old base; entries already
// parked must keep their (time, late, seq) order against newer ones.
TEST_P(EventQueueTest, ScheduleBeforeLastPopKeepsOrder) {
  EventQueue q = make();
  std::vector<int> fired;
  q.schedule(2000, [] {});
  EXPECT_EQ(q.pop().time, 2000);
  q.schedule(2010, [&] { fired.push_back(20); }, /*late=*/true);
  q.schedule(2010, [&] { fired.push_back(10); });
  q.schedule(2900, [&] { fired.push_back(30); });
  q.schedule(100, [&] { fired.push_back(1); });  // before base 2000
  q.schedule(2010, [&] { fired.push_back(21); }, /*late=*/true);
  q.schedule(2010, [&] { fired.push_back(11); });
  q.schedule(2900, [&] { fired.push_back(31); });
  EXPECT_EQ(q.next_time(), 100);
  EXPECT_EQ(drain_times(q), (std::vector<Time>{100, 2010, 2010, 2010, 2010,
                                               2900, 2900}));
  EXPECT_EQ(fired, (std::vector<int>{1, 10, 11, 20, 21, 30, 31}));
}

// Pins reclaim rule (c): when the live count crosses a resize threshold
// (it first exceeds 128), every dead entry is dropped, so the peak counts
// live entries only from then on. Without the rule the 50 dead entries
// below would stay parked and the peak would read 239.
TEST_P(EventQueueTest, PeakDropsDeadEntriesAtResizeThresholds) {
  EventQueue q = make();
  q.schedule(0, [] {});  // live head: the cancelled entries stay parked
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 100; ++i) doomed.push_back(q.schedule(100 + i, [] {}));
  // 50 dead of 101 parked: not more than half, so rule (b) keeps them.
  for (int i = 0; i < 50; ++i) q.cancel(doomed[static_cast<std::size_t>(2 * i)]);
  EXPECT_EQ(q.cancelled_in_heap(), 50u);
  for (int i = 0; i < 78; ++i) q.schedule(300 + i, [] {});  // live 51 -> 129
  EXPECT_EQ(q.peak_size(), 178u);  // 128 live + 50 dead, before the sweep
  EXPECT_EQ(q.cancelled_in_heap(), 0u);
  for (int i = 0; i < 60; ++i) q.schedule(400 + i, [] {});  // live 189
  EXPECT_EQ(q.peak_size(), 189u);
}

}  // namespace
}  // namespace wormcast

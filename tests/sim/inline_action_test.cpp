// InlineAction: inline storage vs heap fallback, memcpy relocation of
// trivially copyable captures, and exact lifetime semantics for captures
// that own something (a shared_ptr must be released on reset, on cancel
// and once the event has run).
#include "sim/action.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace wormcast {
namespace {

/// A callable of `Bytes` bytes whose heap allocations are counted.
template <std::size_t Bytes>
struct Sized {
  static inline int allocations = 0;
  static void* operator new(std::size_t n) {
    ++allocations;
    return ::operator new(n);
  }
  static void operator delete(void* p) { ::operator delete(p); }

  void operator()() const { *out = pad[0] + pad[Bytes - sizeof(int*) - 1]; }

  int* out = nullptr;
  char pad[Bytes - sizeof(int*)] = {};
};

TEST(InlineAction, SmallCallablesStayInlineLargeOnesFallBackToTheHeap) {
  using Small = Sized<InlineAction::kInlineBytes>;
  using Large = Sized<InlineAction::kInlineBytes + 8>;
  int small_out = 0;
  int large_out = 0;
  {
    Small s;
    s.out = &small_out;
    s.pad[0] = 3;
    InlineAction a(s);
    Large l;
    l.out = &large_out;
    l.pad[0] = 5;
    InlineAction b(l);
    EXPECT_EQ(Small::allocations, 0);
    EXPECT_EQ(Large::allocations, 1);
    // Moving a heap-held callable moves the pointer, not the callable.
    InlineAction moved(std::move(b));
    EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move): checks the source
    EXPECT_EQ(Large::allocations, 1);
    a();
    moved();
  }
  EXPECT_EQ(small_out, 3);
  EXPECT_EQ(large_out, 5);
}

TEST(InlineAction, TriviallyCopyableCapturesSurviveRelocation) {
  std::vector<int> seen;
  std::vector<int>* sink = &seen;
  const int a = 7;
  const long b = 11;
  auto fn = [sink, a, b] { sink->push_back(a + static_cast<int>(b)); };
  static_assert(std::is_trivially_copyable_v<decltype(fn)>);
  InlineAction first(fn);
  InlineAction second(std::move(first));
  InlineAction third;
  third = std::move(second);
  EXPECT_FALSE(first);   // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(second);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(third);
  third();
  third();
  EXPECT_EQ(seen, (std::vector<int>{18, 18}));

  // Through the queue's arena as it grows (every growth relocates every
  // parked action).
  EventQueue q;
  for (int i = 0; i < 5000; ++i)
    q.schedule(i, [sink, i] { sink->push_back(i); });
  seen.clear();
  while (!q.empty()) q.pop().action();
  ASSERT_EQ(seen.size(), 5000u);
  for (int i = 0; i < 5000; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

/// Counts live instances, so a test sees every construct matched by
/// exactly one destroy across moves.
struct Tracked {
  static inline int live = 0;
  Tracked() { ++live; }
  Tracked(const Tracked&) { ++live; }
  Tracked(Tracked&&) noexcept { ++live; }
  ~Tracked() { --live; }
  void operator()() const {}
};

TEST(InlineAction, NonTrivialCapturesAreMovedAndDestroyedExactly) {
  static_assert(!std::is_trivially_copyable_v<Tracked>);
  {
    InlineAction a{Tracked{}};
    EXPECT_EQ(Tracked::live, 1);
    InlineAction b(std::move(a));
    EXPECT_EQ(Tracked::live, 1);
    b();
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineAction, SharedPtrCaptureReleasedOnReset) {
  auto payload = std::make_shared<int>(1);
  InlineAction a([payload] { ++*payload; });
  EXPECT_EQ(payload.use_count(), 2);
  InlineAction b(std::move(a));
  EXPECT_EQ(payload.use_count(), 2);
  b();
  EXPECT_EQ(*payload, 2);
  b.reset();
  EXPECT_FALSE(b);
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(InlineAction, SharedPtrCaptureReleasedOnCancel) {
  auto payload = std::make_shared<int>(0);
  EventQueue q;
  const EventHandle h = q.schedule(10, [payload] { ++*payload; });
  q.schedule(20, [] {});
  EXPECT_EQ(payload.use_count(), 2);
  q.cancel(h);
  EXPECT_EQ(payload.use_count(), 1);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(*payload, 0);
}

TEST(InlineAction, SharedPtrCaptureReleasedAfterPopAndRun) {
  auto payload = std::make_shared<int>(0);
  Simulator sim;
  sim.at(5, [payload] { ++*payload; });
  EXPECT_EQ(payload.use_count(), 2);
  sim.run();
  EXPECT_EQ(*payload, 1);
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(InlineAction, EmplaceOverAHeldCallableReleasesIt) {
  auto old_capture = std::make_shared<int>(0);
  int ran = 0;
  InlineAction a([old_capture] { ++*old_capture; });
  EXPECT_EQ(old_capture.use_count(), 2);
  a.emplace([&ran] { ++ran; });
  EXPECT_EQ(old_capture.use_count(), 1);
  a();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(*old_capture, 0);

  // An InlineAction rvalue is moved in whole.
  InlineAction other([&ran] { ran += 10; });
  a.emplace(std::move(other));
  EXPECT_FALSE(other);  // NOLINT(bugprone-use-after-move)
  a();
  EXPECT_EQ(ran, 11);
}

TEST(InlineAction, SelfMoveAssignKeepsTheCallable) {
  auto payload = std::make_shared<int>(0);
  InlineAction a([payload] { ++*payload; });
  InlineAction& alias = a;
  a = std::move(alias);
  ASSERT_TRUE(a);
  EXPECT_EQ(payload.use_count(), 2);
  a();
  EXPECT_EQ(*payload, 1);
}

}  // namespace
}  // namespace wormcast

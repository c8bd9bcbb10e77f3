// A fixed-capacity, allocation-free callable for simulator events.
//
// EventQueue::schedule used to take a std::function<void()>; any capture
// list larger than the library's small-object buffer (16 bytes on
// libstdc++) heap-allocated on every schedule — one malloc/free pair per
// retransmit timer, per worm-holding retry closure, per saturating-app
// poll. InlineAction stores the callable in a 64-byte in-place buffer
// instead, sized for the largest hot-path capture (this + a shared_ptr +
// a couple of scalars), so steady-state scheduling never touches the
// allocator. Callables that genuinely exceed the buffer (rare, setup-time
// composites) fall back to the heap transparently rather than failing to
// compile — the invariant protected here is "no allocation in steady
// state", not "no allocation ever".
//
// Per-event cost: the event queue builds each closure in its arena slot
// (emplace) and moves it out once when it fires. A trivially copyable
// callable (most hot closures capture only `this` and scalars) moves by
// a fixed-size memcpy, and a trivially destructible one skips its destroy,
// so such an event costs exactly one indirect call: the invoke. Callables
// with non-trivial captures (a shared_ptr) keep exact move-construct and
// destroy semantics.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace wormcast {

/// Move-only void() callable with a 64-byte inline buffer.
class InlineAction {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  InlineAction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineAction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineAction(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                         // std::function at every schedule() call site
    construct(std::forward<F>(f));
  }

  InlineAction(InlineAction&& other) noexcept { move_from(other); }
  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;
  ~InlineAction() { reset(); }

  /// Replaces the held callable with `f`, constructed in place. An
  /// InlineAction argument (an rvalue) is moved in instead.
  template <typename F>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineAction>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "emplace moves from an InlineAction; pass an rvalue");
      *this = std::move(f);
    } else {
      static_assert(std::is_invocable_r_v<void, std::decay_t<F>&>,
                    "an event action must be callable as void()");
      reset();
      construct(std::forward<F>(f));
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  /// Manual vtable: one static instance per stored callable type.
  struct Ops {
    void (*invoke)(void* buf);
    /// Moves the callable from `src` into `dst` and destroys the source;
    /// null when a memcpy of the buffer does the same.
    void (*relocate)(void* dst, void* src);
    /// Null when destruction is a no-op.
    void (*destroy)(void* buf);
  };

  template <typename Fn>
  static Fn* held(void* buf) {
    return std::launder(reinterpret_cast<Fn*>(buf));
  }
  template <typename Fn>
  static void invoke_inline(void* buf) {
    (*held<Fn>(buf))();
  }
  template <typename Fn>
  static void relocate_inline(void* dst, void* src) {
    ::new (dst) Fn(std::move(*held<Fn>(src)));
    held<Fn>(src)->~Fn();
  }
  template <typename Fn>
  static void destroy_inline(void* buf) {
    held<Fn>(buf)->~Fn();
  }

  template <typename Fn>
  static constexpr Ops inline_ops = {
      &invoke_inline<Fn>,
      std::is_trivially_copyable_v<Fn> ? nullptr : &relocate_inline<Fn>,
      std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_inline<Fn>};

  // Heap fallback: the buffer holds only the owning pointer, which a
  // memcpy relocates.
  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* buf) { (**reinterpret_cast<Fn**>(buf))(); }, nullptr,
      [](void* buf) { delete *reinterpret_cast<Fn**>(buf); }};

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<void**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = &heap_ops<Fn>;
    }
  }

  void move_from(InlineAction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate == nullptr) {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      } else {
        ops_->relocate(buf_, other.buf_);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace wormcast

// A FIFO on a power-of-two ring that allocates nothing until first use.
//
// Channel in-flight windows hold at most delay+1 entries (one per send
// tick), are touched on every delivery, and exist once per channel
// direction — tens of thousands at scale, most of them idle. The ring
// keeps the empty state at one pointer plus three indices, grows by
// doubling only while the window is deeper than any seen before, and
// then pushes and pops by index arithmetic alone. Popping moves the
// element out, so a ring of shared_ptrs releases each reference at pop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace wormcast {

template <typename T>
class FifoRing {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const {
    return buf_ == nullptr ? 0 : std::size_t{mask_} + 1;
  }

  void push_back(T v) {
    if (size_ == capacity()) grow();
    buf_[(head_ + size_) & mask_] = std::move(v);
    ++size_;
  }

  /// Removes and returns the oldest element. Precondition: !empty().
  T pop_front() {
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return v;
  }

  /// Heap bytes behind the ring (memory audit): zero until first push.
  [[nodiscard]] std::size_t heap_bytes_estimate() const {
    return capacity() * sizeof(T);
  }

 private:
  static constexpr std::uint32_t kMinCapacity = 4;

  void grow() {
    const std::uint32_t cap =
        buf_ == nullptr ? kMinCapacity : 2 * (mask_ + 1);
    auto next = std::make_unique<T[]>(cap);
    for (std::uint32_t i = 0; i < size_; ++i)
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    buf_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::unique_ptr<T[]> buf_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t mask_ = 0;
};

}  // namespace wormcast

#include "harness/sweep_runner.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/random.h"

namespace wormcast::harness {

std::uint64_t point_seed(std::uint64_t base_seed, std::uint64_t index) {
  return index == 0 ? base_seed : RandomStream::seed_mix(base_seed, index);
}

SweepRunner::SweepRunner(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

std::vector<double> SweepRunner::run_indexed(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::vector<double> wall_ms(n, 0.0);
  if (n == 0) return wall_ms;

  std::atomic<std::size_t> cursor{0};
  std::mutex error_mu;
  std::exception_ptr first_error;

  auto worker = [&] {
    for (;;) {
      // On a thrown point, stop handing out work: the sweep is already
      // doomed, and finishing the backlog only delays the rethrow.
      {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error) return;
      }
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const auto t0 = std::chrono::steady_clock::now();
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        return;
      }
      wall_ms[i] = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    }
  };

  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), n);
  if (workers <= 1) {
    worker();  // inline: exactly the sequential pre-parallel behavior
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return wall_ms;
}

}  // namespace wormcast::harness

// Parallel sweep execution: run independent simulation points across a
// fixed-size thread pool with deterministic, order-stable results.
//
// Every experiment in the paper is a *sweep* — Figure 12 walks packet
// sizes, the fault-recovery bench walks loss rates, the deadlock ablation
// walks burst intensities — and the points share nothing at runtime: each
// builds its own Network/Simulator/RandomStream. That independence is the
// classic "independent replications" parallelism of discrete-event studies
// (Fujimoto, CACM 1990): farm whole runs out to cores rather than trying
// to parallelize inside one run.
//
// Determinism contract:
//   * Point i's result lands in pre-sized slot i; output order never
//     depends on completion order or on the number of workers.
//   * Each point derives its own seed via point_seed(base, i), so the
//     simulation a point runs is a pure function of (config, base seed, i)
//     — bit-identical at --jobs 1 and --jobs 64 (CI gates on this).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace wormcast::harness {

/// Seed for sweep point `index`, derived from the experiment's base seed
/// (splitmix-style, via RandomStream::seed_mix). Index 0 keeps the base
/// seed itself so a one-point sweep reproduces the unswept experiment.
[[nodiscard]] std::uint64_t point_seed(std::uint64_t base_seed,
                                       std::uint64_t index);

class SweepRunner {
 public:
  /// `jobs` worker threads; clamped to >= 1. 1 means run inline on the
  /// calling thread (no pool, exactly the pre-parallel behavior).
  explicit SweepRunner(int jobs);

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Executes fn(0), ..., fn(n-1) across the pool (an atomic cursor hands
  /// out indices; at most min(jobs, n) threads run at once). Blocks until
  /// every point finishes. Returns each point's wall-clock in milliseconds,
  /// indexed by point. The first exception a point throws is rethrown here
  /// after all workers have stopped.
  std::vector<double> run_indexed(std::size_t n,
                                  const std::function<void(std::size_t)>& fn);

 private:
  int jobs_ = 1;
};

/// Wall-clock stopwatch for sweep totals (what JsonBench::set_meta wants).
class WallTimer {
 public:
  WallTimer() : t0_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace wormcast::harness

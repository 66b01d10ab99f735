// ParallelSweep: fan independent scenario points out to worker threads.
//
// Every figure/table reproduction runs its sweep as N fully independent
// Experiment instances (own Simulator, own Platform, own RNG streams), so the
// points can execute on any thread in any order. Determinism is preserved by
// construction: per-point seeds depend only on the point index (never on
// execution order or thread identity), and results are collected into a
// vector indexed by point, so the output of map() is bit-identical for any
// jobs count — `--jobs 8` produces the same bytes as `--jobs 1`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/lockstep.hpp"

namespace scn::exec {

/// Deterministic per-point RNG seed: a splitmix64 mix of (base, point) that
/// depends only on its arguments — never on execution order or thread — so a
/// sweep that derives its flow seeds through it is reproducible under any
/// jobs count. Use this (rather than `base + point`) when adding replicated
/// points, so neighbouring points do not get correlated streams.
[[nodiscard]] std::uint64_t point_seed(std::uint64_t base, std::uint64_t point) noexcept;

/// Resolve a worker-count request: `requested` if positive, else
/// std::thread::hardware_concurrency() (minimum 1).
[[nodiscard]] int resolve_jobs(int requested = 0) noexcept;

/// The points 0 .. n-1 in index order.
[[nodiscard]] std::vector<int> identity_order(int n);

/// The indices of `costs` sorted by descending cost, ties by index: the
/// order in which ParallelSweep::map(count, fn, cost) starts its points.
[[nodiscard]] std::vector<int> heaviest_first(const std::vector<double>& costs);

class ParallelSweep {
 public:
  /// `jobs` as in resolve_jobs(): <= 0 means hardware concurrency.
  explicit ParallelSweep(int jobs = 0) : jobs_(resolve_jobs(jobs)) {}

  [[nodiscard]] int jobs() const noexcept { return jobs_; }

  /// Run fn(0) .. fn(count-1), each on some worker thread, and return the
  /// results in point order. fn must be invocable concurrently with distinct
  /// indices and must not touch shared mutable state. The first exception
  /// thrown by any point is rethrown here after every point has run.
  ///
  /// Points start in index order; this is map(count, fn, cost) with every
  /// point costing the same.
  template <typename Fn>
  auto map(int count, Fn&& fn) -> std::vector<std::invoke_result_t<Fn&, int>> {
    return run(fn, identity_order(count));
  }

  /// As map(count, fn), but points start heaviest first: cost(i) is a hint
  /// of point i's host time (say, its offered load), and the points start in
  /// descending cost, ties in index order. Running the stragglers first lets
  /// the cheap points fill in behind them, so the sweep does not end on one
  /// long point. The order changes only which worker runs a point and when;
  /// the results are the same for any cost.
  template <typename Fn, typename Cost>
  auto map(int count, Fn&& fn, Cost&& cost) -> std::vector<std::invoke_result_t<Fn&, int>> {
    std::vector<double> costs;
    costs.reserve(static_cast<std::size_t>(count > 0 ? count : 0));
    for (int i = 0; i < count; ++i) costs.push_back(static_cast<double>(cost(i)));
    return run(fn, heaviest_first(costs));
  }

 private:
  /// The one dispatch loop: an exec::Lockstep round over min(jobs, count)
  /// workers (inline on the caller when that is 1). Each worker takes the
  /// next ticket k from a shared counter and runs point order[k], so a worker
  /// that finishes early picks up the next one.
  template <typename Fn>
  auto run(Fn& fn, const std::vector<int>& order)
      -> std::vector<std::invoke_result_t<Fn&, int>> {
    using R = std::invoke_result_t<Fn&, int>;
    const int count = static_cast<int>(order.size());
    std::vector<R> out;
    if (count == 0) return out;

    std::vector<std::optional<R>> slots(static_cast<std::size_t>(count));
    std::atomic<int> next{0};
    std::exception_ptr first_error;
    std::mutex error_mu;
    {
      const int workers = jobs_ < count ? jobs_ : count;
      Lockstep step(workers > 1 ? workers : 0);
      step.set_work([&](int) {
        for (int k = next++; k < count; k = next++) {
          const int i = order[static_cast<std::size_t>(k)];
          try {
            slots[static_cast<std::size_t>(i)].emplace(fn(i));
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!first_error) first_error = std::current_exception();
          }
        }
      });
      step.run();
    }
    if (first_error) std::rethrow_exception(first_error);

    out.reserve(static_cast<std::size_t>(count));
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

  int jobs_;
};

/// Wall-clock stopwatch for reporting per-sweep speedups.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double elapsed_ms() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace scn::exec

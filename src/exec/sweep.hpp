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
  /// The sweep is one exec::Lockstep round over min(jobs, count) workers;
  /// each worker claims the next unclaimed index from a shared counter, so
  /// points start in index order and a worker that finishes early picks up
  /// the next one.
  template <typename Fn>
  auto map(int count, Fn&& fn) -> std::vector<std::invoke_result_t<Fn&, int>> {
    using R = std::invoke_result_t<Fn&, int>;
    std::vector<R> out;
    if (count <= 0) return out;
    if (jobs_ <= 1 || count == 1) {
      out.reserve(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) out.push_back(fn(i));
      return out;
    }

    std::vector<std::optional<R>> slots(static_cast<std::size_t>(count));
    std::atomic<int> next{0};
    std::exception_ptr first_error;
    std::mutex error_mu;
    {
      Lockstep step(jobs_ < count ? jobs_ : count);
      step.set_work([&](int) {
        for (int i = next++; i < count; i = next++) {
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

 private:
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

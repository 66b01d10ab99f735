// Discrete-event simulator core: a clock plus the timing-wheel EventQueue
// (event_queue.hpp), which delivers events in exact (time, seq) order.
//
// Single-threaded by design: the entire point of this substrate is exact
// reproducibility of the paper's measurements, and the experiments are small
// enough (hundreds of microseconds of simulated time) that parallelism would
// buy nothing but nondeterminism.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace scn::sim {

class Simulator {
 public:
  /// Current simulation time.
  [[nodiscard]] Tick now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay` ticks from now. A negative delay is a
  /// caller bug (asserts in debug builds); release builds clamp it to "now"
  /// rather than silently corrupting the queue's time order — step() asserts
  /// `entry.time >= now_`, so an unclamped past event would also break the
  /// monotonic-clock invariant every component depends on.
  /// Templated so the capture is constructed directly in its queue slot
  /// (no intermediate EventFn); any callable convertible to EventFn works.
  template <typename F>
  void schedule(Tick delay, F&& fn) {
    assert(delay >= 0 && "events cannot be scheduled in the past");
    if (delay < 0) delay = 0;
    queue_.push(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at an absolute time (>= now(); clamped like schedule()).
  template <typename F>
  void schedule_at(Tick when, F&& fn) {
    assert(when >= now_ && "events cannot be scheduled in the past");
    if (when < now_) when = now_;
    queue_.push(when, std::forward<F>(fn));
  }

  /// Sentinel returned by next_event_time() when the queue is empty.
  static constexpr Tick kNoPendingEvent = -1;

  /// Time of the earliest pending event, or kNoPendingEvent when drained.
  /// The co-simulation fast path uses this to negotiate its wake-up cadence
  /// with the timing wheel: while waiting for in-flight transactions to
  /// drain it re-checks exactly at the next event instead of polling on a
  /// fixed grid. The cluster's idle-epoch fast-skip leans on the same
  /// contract across whole Simulators: no observable state changes before
  /// this time, so run_until() up to it is a pure clock advance and any
  /// epoch boundaries in between can be jumped in one call.
  /// (Non-const: the wheel may lazily advance its cursor.)
  [[nodiscard]] Tick next_event_time() noexcept {
    return queue_.empty() ? kNoPendingEvent : queue_.next_time();
  }

  [[nodiscard]] bool has_pending() const noexcept { return !queue_.empty(); }
  [[nodiscard]] std::size_t pending_count() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_count() const noexcept { return executed_; }

  /// Run until the event queue drains. Returns the final simulation time.
  /// The whole drain runs inside one EventQueue::run_all call; in-order
  /// delivery is asserted per event in debug builds.
  Tick run() {
    queue_.run_all(&now_, &executed_);
    return now_;
  }

  /// Run events with time <= deadline; afterwards now() == deadline (or later
  /// if an executed event scheduled exactly at the deadline advanced time).
  Tick run_until(Tick deadline) {
    queue_.run_until_time(deadline, &now_, &executed_);
    if (now_ < deadline) now_ = deadline;
    return now_;
  }

  /// Execute exactly one event if available. Returns false when drained.
  bool step() {
    if (queue_.empty()) return false;
    [[maybe_unused]] const Tick prev = now_;
    ++executed_;
    // Fused pop+invoke: now_ is set to the event's time before its callable
    // runs (events read the clock), with one queue dispatch per event.
    queue_.run_next(&now_);
    assert(now_ >= prev && "event queue delivered an event out of order");
    return true;
  }

  /// Drop all pending events and reset the clock. Invalidates any component
  /// state tied to previous time values; intended for test fixtures only.
  /// Resets the queue's sequence counter too, so a reset simulator replays
  /// with the same event numbering as a fresh one (same-tick order included).
  void reset() {
    queue_.reset();
    now_ = 0;
    executed_ = 0;
  }

  // --- scheduler hints & introspection (performance only, never ordering) ---

  /// Pre-size the pending set for `n` concurrently in-flight events.
  void reserve_events(std::size_t n) { queue_.reserve(n); }

  /// Expected inter-event gap in ticks; tunes the timing wheel's bucket
  /// width.
  void hint_event_gap(Tick gap) noexcept { queue_.set_gap_hint(gap); }

  [[nodiscard]] QueueStats queue_stats() const noexcept { return queue_.stats(); }
  [[nodiscard]] const EventQueue& event_queue() const noexcept { return queue_; }

 private:
  EventQueue queue_;
  Tick now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace scn::sim

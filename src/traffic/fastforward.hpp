// Steady-state fast-forwarding: analytic batch-advance co-simulation.
//
// The event core pays one event chain per transaction. Once a set of stream
// flows has provably settled into steady state, those chains carry no new
// information — every window looks like the last one. The FastForwarder
// slices per-flow telemetry into fixed windows and accumulates them since
// the last disturbance; the span is certified steady when, for every
// watched flow, the first-half and second-half aggregates (completion count
// and mean RTT) agree within epsilon *and* no single window deviates wildly
// from the span median. Aggregate halves — not window-to-window deltas —
// are what make the detector robust to the platform's periodic noise: a
// refresh stall perturbs one window per interval far beyond any reasonable
// per-window epsilon, but contributes the same bounded mass to both halves
// of a span that covers it, while a genuine ramp (e.g. a write-combining
// queue slowly filling) drifts the halves apart and keeps the span
// uncertified. Once every flow is steady, the span covers at least one
// noise interval, and every flow has banked enough completions to resolve
// tail quantiles, the forwarder:
//
//   1. suspends every flow's issue loop and waits (at event granularity,
//      negotiated via Simulator::next_event_time()) for in-flight
//      transactions to drain,
//   2. asks model::batch_advance for the analytic carry over the horizon —
//      the measured steady rate drives the byte/completion counters, while
//      the model's physical bounds (path capacity, BDP bound, zero-load RTT)
//      act as the certificate that the measurement is trustworthy,
//   3. credits byte counters, completion counts, latency-histogram mass
//      (scaled from the measured steady-state sample, so the noise-driven
//      tail survives) and channel busy/byte telemetry in one step,
//   4. schedules a resume at the horizon and goes back to monitoring.
//
// The horizon is the earliest future demand change across all watched flows
// (flow start/stop, rate-schedule entry), so a batch-advance can never skip
// over a transition: any event that would change demand is *itself* the
// wake-up. Anything the certificate cannot vouch for — adaptive windows,
// attached time series, a failed model cross-check, an unbounded horizon —
// falls back to plain discrete events. When never armed (strict mode) the
// forwarder schedules nothing and the simulation is bit-for-bit identical.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "stats/histogram.hpp"
#include "traffic/flow_group.hpp"
#include "traffic/stream_flow.hpp"

namespace scn::traffic {

class FastForwarder {
 public:
  struct Config {
    sim::Tick sample_window = sim::from_us(5);  ///< telemetry slice width
    /// Minimum windows per half-span (a span certifies with 2x this many).
    int steady_windows = 3;
    /// Steady span required before a jump; raise to the platform's noise
    /// interval so the sample histogram contains the periodic stall tail.
    sim::Tick min_sample_span = sim::from_us(30);
    /// When nonzero, a jump is only taken at span lengths that are an exact
    /// multiple of this period (the platform's noise interval). Periodic
    /// stalls then contribute exactly span/period events to the sample for
    /// ANY stall phase, so the synthesized tail-mass fraction is right by
    /// construction — crucial when few noise sources feed the watched flows
    /// (a single CXL channel has no phase-averaging to hide behind).
    sim::Tick span_align = 0;
    /// Completions the span must bank across all watched flows before the
    /// scaled histograms can resolve tail quantiles. The budget is shared:
    /// what the experiment reports is the *merged* histogram, and merging N
    /// symmetric flows' scaled shapes averages away their individual sample
    /// noise. Low-rate points take longer to get here — and are exactly the
    /// points that are cheap to keep simulating.
    std::uint64_t min_samples = 8000;
    /// Per-flow floor below which a flow's shape is too lumpy to scale at
    /// all, no matter what the others banked.
    std::uint64_t min_flow_samples = 64;
    sim::Tick min_jump = sim::from_us(5);  ///< don't bother below this
  };

  struct Stats {
    std::uint64_t samples = 0;        ///< telemetry windows examined
    std::uint64_t jumps = 0;          ///< successful batch-advances
    std::uint64_t rejected = 0;       ///< certificate / model cross-check fails
    std::uint64_t aborted_drains = 0; ///< drains that ran past the 5 us cap
    sim::Tick skipped_ticks = 0;      ///< simulated time carried analytically
    std::uint64_t synthetic_completions = 0;
  };

  // Two overloads instead of `Config config = {}`: GCC 12 rejects a nested
  // aggregate with default member initializers as a `{}` default argument
  // inside the enclosing class.
  explicit FastForwarder(sim::Simulator& simulator) : FastForwarder(simulator, Config{}) {}
  FastForwarder(sim::Simulator& simulator, Config config);
  /// Detaches the sample histograms from the watched flows.
  ~FastForwarder();
  FastForwarder(const FastForwarder&) = delete;
  FastForwarder& operator=(const FastForwarder&) = delete;

  /// Watch one flow. All watched flows must drain before any jump; flows
  /// added after arm() are not picked up.
  void watch(StreamFlow* flow);
  /// Watch every flow of a group.
  void watch(FlowGroup& group);

  /// Start monitoring. Refuses (eligible() == false, zero events scheduled)
  /// if any watched flow uses adaptive windows or an attached time series —
  /// their dynamics are exactly what batch-advance would erase.
  void arm();

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] bool eligible() const noexcept { return eligible_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct FlowState {
    StreamFlow* flow = nullptr;
    stats::Histogram sample;            ///< steady-span RTT shape
    std::uint64_t prev_raw = 0;         ///< raw completions at last window edge
    std::int64_t prev_rtt = 0;          ///< raw RTT tick sum at last window edge
    std::uint64_t anchor_raw = 0;       ///< raw completions at span start
    std::vector<std::uint64_t> win_count;  ///< per-window completions, span-local
    std::vector<std::int64_t> win_rtt;     ///< per-window RTT tick sums
  };

  /// One flow's verdict on the current span.
  enum class Verdict {
    kWait,       ///< not enough windows/samples yet — keep accumulating
    kSteady,     ///< half-span aggregates agree, no outlier windows
    kDisturbed,  ///< a real transient: void the span and start over
  };

  void sample_tick();
  void begin_jump(sim::Tick horizon);
  void drain_wait(sim::Tick horizon, sim::Tick deadline);
  void commit_jump(sim::Tick horizon);
  void abort_jump();
  void resume_all();
  void reset_detector();

  void record_window(FlowState& fs);
  [[nodiscard]] Verdict flow_verdict(const FlowState& fs) const;
  /// Earliest future demand change across all watched flows; Tick max when
  /// none exists (jump refused).
  [[nodiscard]] sim::Tick next_demand_change() const;
  [[nodiscard]] bool all_done() const;

  sim::Simulator* simulator_;
  Config config_;
  std::vector<std::unique_ptr<FlowState>> flows_;
  sim::Tick span_start_ = 0;
  sim::Tick suspend_time_ = 0;
  bool armed_ = false;
  bool eligible_ = true;
  bool done_ = false;
  Stats stats_;
};

}  // namespace scn::traffic

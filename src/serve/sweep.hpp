// Latency-vs-QPS sweeps over placement policies.
//
// One LoadPoint is one fully independent serving experiment (own simulator,
// platform, RNG streams) at one (policy, offered rate); sweep() fans the
// whole policy x rate grid out through exec::ParallelSweep. Per-point seeds
// are keyed by the *rate index only*, so every policy sees the identical
// arrival sequence at each rate — the policy ablation is a paired
// comparison, not merely a same-distribution one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "serve/server.hpp"
#include "topo/params.hpp"

namespace scn::serve {

struct LoadPoint {
  double rate_per_us = 0.0;  ///< configured offered load
  Policy policy = Policy::kRoundRobin;
  Report report;
};

struct SweepConfig {
  std::vector<double> rates_per_us;
  std::vector<Policy> policies = {Policy::kRoundRobin, Policy::kLocal, Policy::kTelemetry};
  /// The arrival schedule (kind, MMPP factors, diurnal cycle, trace); the
  /// grid overrides its rate.
  ArrivalConfig arrival_template;
  /// GTM policy bundle applied to every server in the sweep.
  gtm::TrafficPolicy gtm;
  /// Tiered-memory config applied to every server (mode = kOff: pre-tier
  /// behavior, exactly).
  tier::TierConfig tier;
  std::vector<RequestClass> classes;  ///< empty => default catalog
  sim::Tick warmup = sim::from_us(40.0);
  sim::Tick stop = sim::from_us(200.0);
  sim::Tick max_drain = sim::from_ms(2.0);
  std::uint64_t seed = 1;
  int jobs = 0;  ///< as in exec::ParallelSweep
};

/// Run the full policy x rate grid. Results are policy-major: entry
/// [p * rates.size() + r] is policies[p] at rates[r]. Bit-identical for any
/// jobs count.
[[nodiscard]] std::vector<LoadPoint> sweep(const topo::PlatformParams& params,
                                           const SweepConfig& config);

/// Extract one policy's curve (rate order preserved) from sweep() output.
[[nodiscard]] std::vector<LoadPoint> policy_curve(const std::vector<LoadPoint>& points,
                                                  Policy policy);

/// Saturation knee of a curve with ascending rates: the first point whose
/// P99 exceeds `factor` x the baseline P99. The baseline is the first point
/// with a nonzero P99 — a zero P99 means nothing completed there and cannot
/// anchor the comparison. Returns -1 when no knee exists: every point has a
/// zero P99, or the curve never crosses the threshold (callers print "none"
/// rather than pretending the last rate is a knee).
[[nodiscard]] int knee_index(std::span<const double> p99_ns, double factor = 3.0);
[[nodiscard]] int knee_index(const std::vector<LoadPoint>& curve, double factor = 3.0);

}  // namespace scn::serve

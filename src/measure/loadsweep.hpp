// Figure 3 methodology: sweep offered load on one interconnect and record
// the average and tail (P999) latency of the loaded stream itself.
#pragma once

#include <vector>

#include "fabric/types.hpp"
#include "topo/params.hpp"

namespace scn::measure {

/// The interconnect under study. Scenario definitions (which cores drive
/// which endpoints) follow the paper's six panels; see EXPERIMENTS.md.
enum class SweepLink {
  kIfIntraCc,  ///< traffic within one compute chiplet over IF
  kIfInterCc,  ///< compute chiplet <-> compute chiplet over IF + I/O die
  kGmi,        ///< one compute chiplet -> local DIMMs over its GMI
  kPlink,      ///< one I/O-die quadrant of chiplets -> CXL over the P-Link
};

[[nodiscard]] constexpr const char* to_string(SweepLink l) noexcept {
  switch (l) {
    case SweepLink::kIfIntraCc: return "IF(CC)";
    case SweepLink::kIfInterCc: return "IF(CC<->CC)";
    case SweepLink::kGmi: return "GMI";
    case SweepLink::kPlink: return "P-Link/CXL";
  }
  return "?";
}

struct LoadPoint {
  double requested_gbps = 0.0;  ///< aggregate offered load (0 rate => max)
  double achieved_gbps = 0.0;
  double avg_ns = 0.0;
  double p999_ns = 0.0;
};

/// Run `points` load levels from light load to unthrottled and return one
/// LoadPoint per level. The last point is always the unthrottled maximum.
/// Points are independent Experiments fanned out over `jobs` worker threads
/// (exec::resolve_jobs semantics: <= 0 means hardware concurrency), heaviest
/// offered load first; results are bit-identical for any jobs count.
/// `fastforward` enables the analytic steady-state batch-advance
/// (traffic::FastForwarder): ~the same numbers, a fraction of the events.
/// Off (the default) is strict mode — bit-identical to the pre-fast-path
/// engine.
[[nodiscard]] std::vector<LoadPoint> latency_vs_load(const topo::PlatformParams& params,
                                                     SweepLink link, fabric::Op op,
                                                     int points = 8, int jobs = 0,
                                                     bool fastforward = false);

/// Point `i` (1-based) of a `points`-level latency_vs_load sweep, run in its
/// own Experiment: safe on any worker thread. The last point removes the
/// rate throttle entirely (the paper's "approaching max bandwidth").
[[nodiscard]] LoadPoint load_point(const topo::PlatformParams& params, SweepLink link,
                                   fabric::Op op, int i, int points, bool fastforward);

/// Cores that drive a load sweep on `link` (scenario_sites' count). Builds
/// one Platform, so call it once per panel, not once per point.
[[nodiscard]] int sweep_sites(const topo::PlatformParams& params, SweepLink link);

/// Aggregate offered load (GB/s) of point `i` over `sites` cores: the rate
/// actually configured on the flows. It is load_point's requested_gbps, and
/// the cost by which sweeps start their heaviest points first (per core,
/// sites = 1, within one latency_vs_load panel).
[[nodiscard]] double offered_gbps(const topo::PlatformParams& params, SweepLink link,
                                  fabric::Op op, int i, int points, int sites);

}  // namespace scn::measure

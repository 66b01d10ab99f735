#include "measure/loadsweep.hpp"

#include <algorithm>
#include <string>

#include "exec/sweep.hpp"
#include "measure/experiment.hpp"
#include "measure/scenario.hpp"
#include "traffic/fastforward.hpp"
#include "traffic/flow_group.hpp"

namespace scn::measure {
namespace {

// Writes need a long window: the deep Zen 4 write-combining queues fill
// slowly when the offered rate only slightly exceeds the drain rate.
constexpr double kWarmupUs = 40.0;
constexpr double kWindowUs = 80.0;

/// Per-core rates of point `i` (1-based). `target` is what the flow is
/// configured to issue (0 => unthrottled); `offered` is that rate as offered
/// load: the issue cap when one applies (the flow cannot request more), and
/// only the estimated per-core maximum when the flow is genuinely unthrottled.
struct CoreRate {
  double target = 0.0;
  double offered = 0.0;
};

CoreRate core_rate(const topo::PlatformParams& params, SweepLink link, fabric::Op op, int i,
                   int points) {
  const double per_core_max = per_core_max_gbps(params, link, op);
  const double issue_cap = scenario_issue_cap(params, link, op);
  if (i == points) return {issue_cap, issue_cap > 0.0 ? issue_cap : per_core_max};
  // Rate grid: fractions of the unthrottled per-core rate.
  double rate = per_core_max * static_cast<double>(i) / static_cast<double>(points);
  if (issue_cap > 0.0) rate = std::min(rate, issue_cap);
  return {rate, rate};
}

}  // namespace

LoadPoint load_point(const topo::PlatformParams& params, SweepLink link, fabric::Op op, int i,
                     int points, bool fastforward) {
  const CoreRate rate = core_rate(params, link, op, i, points);

  Experiment e(params);
  auto sites = scenario_sites(e.platform, link);
  traffic::FlowGroup group("sweep");
  int id = 0;
  for (auto& site : sites) {
    traffic::StreamFlow::Config cfg;
    // Appended: "s" + to_string(id) trips a g++ 12 -Wrestrict false positive.
    cfg.name = "s";
    cfg.name += std::to_string(id);
    cfg.op = op;
    cfg.paths = site.paths;
    cfg.pools = e.platform.pools_for(site.ccd, site.ccx, op);
    cfg.window = scenario_window(params, link, op);
    cfg.target_rate = rate.target;
    cfg.stats_after = sim::from_us(kWarmupUs);
    cfg.stop_at = sim::from_us(kWarmupUs + kWindowUs);
    cfg.record_latency = true;
    cfg.seed = 3000 + static_cast<std::uint64_t>(id++);
    group.add(e.simulator, std::move(cfg));
  }
  traffic::FastForwarder forwarder(e.simulator, fastforward_config(params));
  if (fastforward) {
    forwarder.watch(group);
  }
  group.start_all();
  if (fastforward) forwarder.arm();
  e.simulator.run_until(sim::from_us(kWarmupUs + kWindowUs + 15.0));

  LoadPoint pt;
  pt.requested_gbps = offered_gbps(params, link, op, i, points, static_cast<int>(sites.size()));
  pt.achieved_gbps = group.aggregate_gbps();
  const auto lat = group.merged_latency();
  pt.avg_ns = lat.mean() / 1000.0;
  pt.p999_ns = static_cast<double>(lat.p999()) / 1000.0;
  return pt;
}

int sweep_sites(const topo::PlatformParams& params, SweepLink link) {
  Experiment e(params);
  return static_cast<int>(scenario_sites(e.platform, link).size());
}

double offered_gbps(const topo::PlatformParams& params, SweepLink link, fabric::Op op, int i,
                    int points, int sites) {
  const double per_core = core_rate(params, link, op, i, points).offered;
  // Summed core by core, not multiplied: the same rounding the flows' own
  // aggregate would see.
  double total = 0.0;
  for (int s = 0; s < sites; ++s) total += per_core;
  return total;
}

std::vector<LoadPoint> latency_vs_load(const topo::PlatformParams& params, SweepLink link,
                                       fabric::Op op, int points, int jobs, bool fastforward) {
  // Every point of one panel drives the same cores, so the per-core offered
  // load (sites = 1) orders them as the aggregate would, without building a
  // Platform on the calling thread to count the cores.
  exec::ParallelSweep sweep(jobs);
  return sweep.map(
      points,
      [&](int idx) { return load_point(params, link, op, idx + 1, points, fastforward); },
      [&](int idx) { return offered_gbps(params, link, op, idx + 1, points, /*sites=*/1); });
}

}  // namespace scn::measure

#include "measure/loadsweep.hpp"

#include <memory>

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

/// One point of the sweep, fully self-contained (own Experiment): safe to run
/// on any ParallelSweep worker. `i` is 1-based; the last point removes the
/// rate throttle entirely (the paper's "approaching max bandwidth").
LoadPoint run_load_point(const topo::PlatformParams& params, SweepLink link, fabric::Op op,
                         int i, int points, bool fastforward) {
  const double per_core_max = per_core_max_gbps(params, link, op);
  const double issue_cap = scenario_issue_cap(params, link, op);

  // Rate grid: fractions of the unthrottled per-core rate.
  const bool unthrottled = i == points;
  double rate = per_core_max * static_cast<double>(i) / static_cast<double>(points);
  if (issue_cap > 0.0) rate = std::min(rate, issue_cap);

  Experiment e(params);
  auto sites = scenario_sites(e.platform, link);
  traffic::FlowGroup group("sweep");
  int id = 0;
  double requested = 0.0;
  for (auto& site : sites) {
    traffic::StreamFlow::Config cfg;
    cfg.name = "s" + std::to_string(id);
    cfg.op = op;
    cfg.paths = site.paths;
    cfg.pools = e.platform.pools_for(site.ccd, site.ccx, op);
    cfg.window = scenario_window(params, link, op);
    cfg.target_rate = unthrottled ? issue_cap : rate;
    cfg.stats_after = sim::from_us(kWarmupUs);
    cfg.stop_at = sim::from_us(kWarmupUs + kWindowUs);
    cfg.record_latency = true;
    cfg.seed = 3000 + static_cast<std::uint64_t>(id++);
    group.add(e.simulator, std::move(cfg));
    // Offered load is the rate actually configured on the flow: for the
    // unthrottled point that is the issue cap when one applies (the flow
    // cannot request more), and only the estimated per-core maximum when the
    // flow is genuinely unthrottled.
    requested += unthrottled ? (issue_cap > 0.0 ? issue_cap : per_core_max) : rate;
  }
  traffic::FastForwarder forwarder(e.simulator, fastforward_config(params));
  if (fastforward) {
    forwarder.watch(group);
  }
  group.start_all();
  if (fastforward) forwarder.arm();
  e.simulator.run_until(sim::from_us(kWarmupUs + kWindowUs + 15.0));

  LoadPoint pt;
  pt.requested_gbps = requested;
  pt.achieved_gbps = group.aggregate_gbps();
  const auto lat = group.merged_latency();
  pt.avg_ns = lat.mean() / 1000.0;
  pt.p999_ns = static_cast<double>(lat.p999()) / 1000.0;
  return pt;
}

}  // namespace

std::vector<LoadPoint> latency_vs_load(const topo::PlatformParams& params, SweepLink link,
                                       fabric::Op op, int points, int jobs, bool fastforward) {
  exec::ParallelSweep sweep(jobs);
  return sweep.map(points, [&](int idx) {
    return run_load_point(params, link, op, idx + 1, points, fastforward);
  });
}

}  // namespace scn::measure

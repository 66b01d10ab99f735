#include "measure/interference.hpp"

#include <algorithm>
#include <memory>

#include "exec/sweep.hpp"
#include "measure/experiment.hpp"
#include "measure/scenario.hpp"
#include "traffic/flow_group.hpp"

namespace scn::measure {
namespace {

constexpr double kWarmupUs = 15.0;
constexpr double kWindowUs = 45.0;

/// Run one point: fg sites unthrottled at `fg_op`, bg sites throttled to
/// `bg_rate` per core (0 => unthrottled). Returns {fg_gbps, bg_gbps}.
std::pair<double, double> run_point(const topo::PlatformParams& params, SweepLink link,
                                    fabric::Op fg_op, fabric::Op bg_op, double bg_rate,
                                    bool bg_active) {
  Experiment e(params);
  auto sites = scenario_sites(e.platform, link);
  const std::size_t split = sites.size() / 2;

  traffic::FlowGroup fg_group("fg");
  traffic::FlowGroup bg_group("bg");
  int id = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const bool is_fg = i < split;
    if (!is_fg && !bg_active) continue;
    const fabric::Op op = is_fg ? fg_op : bg_op;
    traffic::StreamFlow::Config cfg;
    // Appended: "X" + to_string(id) trips a g++ 12 -Wrestrict false positive.
    cfg.name = is_fg ? "X" : "Y";
    cfg.name += std::to_string(id);
    cfg.op = op;
    cfg.paths = sites[i].paths;
    cfg.pools = e.platform.pools_for(sites[i].ccd, sites[i].ccx, op);
    cfg.window = scenario_window(params, link, op);
    const double issue_cap = scenario_issue_cap(params, link, op);
    cfg.target_rate = is_fg ? issue_cap : (bg_rate > 0.0 ? bg_rate : issue_cap);
    if (!is_fg && issue_cap > 0.0 && bg_rate > 0.0) cfg.target_rate = std::min(bg_rate, issue_cap);
    cfg.stats_after = sim::from_us(kWarmupUs);
    cfg.stop_at = sim::from_us(kWarmupUs + kWindowUs);
    cfg.seed = 4000 + static_cast<std::uint64_t>(id++);
    (is_fg ? fg_group : bg_group).add(e.simulator, std::move(cfg));
  }
  fg_group.start_all();
  bg_group.start_all();
  e.simulator.run_until(sim::from_us(kWarmupUs + kWindowUs + 15.0));
  return {fg_group.aggregate_gbps(), bg_group.aggregate_gbps()};
}

}  // namespace

InterferenceResult interference_sweep(const topo::PlatformParams& params, SweepLink link,
                                      fabric::Op fg, fabric::Op bg, int points, int jobs) {
  InterferenceResult result;
  result.fg = fg;
  result.bg = bg;

  // Point 0 is the solo baseline; points 1..points sweep the background rate.
  // All points are independent Experiments, so they fan out together.
  const double per_core_max = per_core_max_gbps(params, link, bg);
  exec::ParallelSweep sweep(jobs);
  const auto raw = sweep.map(points + 1, [&](int i) -> InterferencePoint {
    if (i == 0) {
      InterferencePoint solo;
      solo.fg_achieved_gbps = run_point(params, link, fg, bg, 0.0, /*bg_active=*/false).first;
      return solo;
    }
    const bool unthrottled = i == points;
    const double rate =
        unthrottled ? 0.0 : per_core_max * static_cast<double>(i) / static_cast<double>(points);
    const auto [fg_gbps, bg_gbps] = run_point(params, link, fg, bg, rate, /*bg_active=*/true);
    InterferencePoint pt;
    pt.bg_requested_gbps = rate;
    pt.bg_achieved_gbps = bg_gbps;
    pt.fg_achieved_gbps = fg_gbps;
    return pt;
  });

  result.fg_solo_gbps = raw.front().fg_achieved_gbps;
  result.points.assign(raw.begin() + 1, raw.end());
  // The threshold scan is order-dependent, so it runs over the collected
  // points (in sweep order) rather than inside the workers.
  for (const auto& pt : result.points) {
    if (result.interference_threshold_gbps == 0.0 &&
        pt.fg_achieved_gbps < 0.95 * result.fg_solo_gbps) {
      result.interference_threshold_gbps = pt.fg_achieved_gbps + pt.bg_achieved_gbps;
    }
  }
  return result;
}

}  // namespace scn::measure

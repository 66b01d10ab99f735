#include "measure/partition.hpp"

#include <memory>

#include "exec/sweep.hpp"
#include "measure/experiment.hpp"
#include "measure/scenario.hpp"
#include "traffic/flow_group.hpp"

namespace scn::measure {
namespace {

constexpr double kWarmupUs = 20.0;
constexpr double kWindowUs = 60.0;

}  // namespace

PartitionResult partition_case(const topo::PlatformParams& params, SweepLink link,
                               PartitionCase pcase, fabric::Op op) {
  const double capacity = scenario_capacity(params, link, op);

  PartitionResult result;
  result.capacity_gbps = capacity;
  switch (pcase) {
    case PartitionCase::kUnderSubscribed:
      result.requested_gbps = {0.30 * capacity, 0.40 * capacity};
      break;
    case PartitionCase::kOneSmall:
      result.requested_gbps = {0.30 * capacity, 0.0};
      break;
    case PartitionCase::kEqualHigh:
      result.requested_gbps = {0.0, 0.0};
      break;
    case PartitionCase::kUnequalHigh:
      result.requested_gbps = {0.60 * capacity, 0.90 * capacity};
      break;
  }

  Experiment e(params);
  auto sites = scenario_sites(e.platform, link);
  // The two competing flows must be symmetric; drop the odd member so both
  // groups have the same core count (e.g. 3+3 of the 9634's 7-core CCD).
  if (sites.size() % 2 != 0) sites.pop_back();
  const std::size_t split = sites.size() / 2;

  std::array<traffic::FlowGroup, 2> groups{traffic::FlowGroup("flow0"),
                                           traffic::FlowGroup("flow1")};
  int id = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const std::size_t g = i < split ? 0 : 1;
    const std::size_t members = g == 0 ? split : sites.size() - split;
    traffic::StreamFlow::Config cfg;
    // Appended: "f" + to_string(g) trips a g++ 12 -Wrestrict false positive.
    cfg.name = "f";
    cfg.name += std::to_string(g) + "." + std::to_string(id);
    cfg.op = op;
    cfg.paths = sites[i].paths;
    cfg.pools = e.platform.pools_for(sites[i].ccd, sites[i].ccx, op);
    cfg.window = scenario_window(params, link, op);
    // A flow's demand is spread evenly over its member cores.
    const double demand = result.requested_gbps[g];
    if (pcase == PartitionCase::kUnequalHigh) {
      // Case 4 expresses demand the way the hardware actually sees it from
      // an aggressive sender: as requests pushed in flight. Size each
      // member's window so the flow *would* reach its demand at zero load;
      // FIFO links then split capacity proportionally to in-flight shares.
      const double rtt_ns = sim::to_ns(sites[i].paths.front()->zero_load_rtt());
      const double per_core = demand / static_cast<double>(members);
      cfg.window = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(per_core * rtt_ns / 64.0 + 0.5));
      cfg.target_rate = 0.0;
    } else {
      cfg.target_rate = demand > 0.0 ? demand / static_cast<double>(members) : 0.0;
      const double issue_cap = scenario_issue_cap(params, link, op);
      if (issue_cap > 0.0) {
        cfg.target_rate = cfg.target_rate > 0.0 ? std::min(cfg.target_rate, issue_cap) : issue_cap;
      }
    }
    cfg.stats_after = sim::from_us(kWarmupUs);
    cfg.stop_at = sim::from_us(kWarmupUs + kWindowUs);
    cfg.seed = 5000 + static_cast<std::uint64_t>(id++);
    groups[g].add(e.simulator, std::move(cfg));
  }
  groups[0].start_all();
  groups[1].start_all();
  e.simulator.run_until(sim::from_us(kWarmupUs + kWindowUs + 15.0));

  result.achieved_gbps = {groups[0].aggregate_gbps(), groups[1].aggregate_gbps()};
  return result;
}

std::vector<PartitionResult> partition_cases(const topo::PlatformParams& params, SweepLink link,
                                             const std::vector<PartitionCase>& cases,
                                             fabric::Op op, int jobs) {
  exec::ParallelSweep sweep(jobs);
  return sweep.map(static_cast<int>(cases.size()), [&](int i) {
    return partition_case(params, link, cases[static_cast<std::size_t>(i)], op);
  });
}

}  // namespace scn::measure

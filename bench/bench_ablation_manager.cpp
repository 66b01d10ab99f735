// Ablation A (paper Implication #4): the sender-driven baseline vs the
// global software traffic manager. Same Fig.-4 case-4 demands; the manager
// computes max-min fair rates and installs sender-side limits.
#include <memory>

#include "bench/bench_util.hpp"
#include "bench/options.hpp"
#include "cnet/traffic_manager.hpp"
#include "measure/experiment.hpp"
#include "measure/partition.hpp"
#include "stats/fairness.hpp"
#include "topo/params.hpp"

namespace {

using namespace scn;
using measure::Experiment;
using measure::PartitionCase;
using measure::SweepLink;

void run(const topo::PlatformParams& params, SweepLink link, std::uint64_t seed) {
  bench::subheading(params.name + "  " + to_string(link) + "  (Fig.4 case-4 demands)");
  const auto baseline = measure::partition_case(params, link, PartitionCase::kUnequalHigh);
  const std::vector<double> base{baseline.achieved_gbps[0], baseline.achieved_gbps[1]};
  std::printf("  baseline (sender-driven): [%5.1f %5.1f] GB/s  jain %.3f  total %5.1f\n", base[0],
              base[1], stats::jain_index(base), base[0] + base[1]);

  // Managed: two flow aggregates with declared demands; max-min allocation.
  Experiment e(params);
  const double cap = baseline.capacity_gbps;
  auto mk = [&](int idx) {
    traffic::StreamFlow::Config cfg;
    // Appended: "m" + to_string(i) trips a g++ 12 -Wrestrict false positive.
    cfg.name = "m";
    cfg.name += std::to_string(idx + 1);
    // Spread the two flow aggregates over the chiplet's CCX ports so the
    // shared segment under management (the GMI) is the only coupling.
    const int ccx = idx % params.ccx_per_ccd;
    cfg.paths = link == SweepLink::kPlink
                    ? std::vector<fabric::Path*>{&e.platform.cxl_path(idx, 0)}
                    : e.platform.dram_paths_all(0, ccx);
    cfg.pools = e.platform.pools_for(0, ccx, fabric::Op::kRead);
    cfg.window = 128;
    cfg.stats_after = sim::from_us(20.0);
    cfg.stop_at = sim::from_us(100.0);
    cfg.seed = seed + static_cast<std::uint64_t>(idx);
    return std::make_unique<traffic::StreamFlow>(e.simulator, std::move(cfg));
  };
  auto f0 = mk(0);
  auto f1 = mk(1);
  cnet::TrafficManager tm(e.simulator, {});
  const int l = tm.add_link(to_string(link), cap);
  tm.manage({0, f0.get(), 0.6 * cap, {l}});
  tm.manage({1, f1.get(), 0.9 * cap, {l}});
  tm.allocate_now();
  f0->start();
  f1->start();
  e.simulator.run_until(sim::from_us(100.0));
  const std::vector<double> managed{f0->achieved_gbps(), f1->achieved_gbps()};
  std::printf("  managed  (max-min fair):  [%5.1f %5.1f] GB/s  jain %.3f  total %5.1f\n",
              managed[0], managed[1], stats::jain_index(managed), managed[0] + managed[1]);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt("bench_ablation_manager",
                     "Ablation A: sender-driven partitioning vs traffic manager");
  opt.parse(argc, argv);
  bench::heading("Ablation A: sender-driven partitioning vs global traffic manager");
  if (opt.has_platform()) {
    const auto p = opt.platform_or("epyc9634");
    run(p, SweepLink::kIfIntraCc, opt.seed_or(1));
    run(p, SweepLink::kGmi, opt.seed_or(1));
  } else {
    run(topo::epyc9634(), SweepLink::kIfIntraCc, opt.seed_or(1));
    run(topo::epyc7302(), SweepLink::kGmi, opt.seed_or(1));
  }
  bench::note("the manager restores jain ~= 1.0 at comparable total throughput,");
  bench::note("materializing the flow abstraction the paper argues for");
  return 0;
}

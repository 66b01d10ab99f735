// chipletperf — the perf-like utility of the paper's direction #5: run a
// workload scenario on a platform, profile its flows with sketches, and dump
// the /proc/chiplet-net telemetry.
//
//   $ ./chipletperf [7302|9634] [ccd|cpu|cxl|mixed] [duration_us] [--json]
//
// Examples:
//   ./chipletperf 9634 mixed 60           # human-readable report
//   ./chipletperf 7302 cpu 40 --json      # machine-readable telemetry
//   ./chipletperf --platform my.scn cpu   # profile a custom spec
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/options.hpp"
#include "cnet/flow.hpp"
#include "cnet/profiler.hpp"
#include "cnet/telemetry.hpp"
#include "measure/experiment.hpp"
#include "spec/schema.hpp"
#include "topo/params.hpp"
#include "traffic/stream_flow.hpp"

namespace {

using namespace scn;

struct Scenario {
  std::string name = "mixed";
  double duration_us = 60.0;
  bool json = false;
};

}  // namespace

int main(int argc, char** argv) {
  Scenario opt;
  std::string positional_platform = "epyc9634";
  bench::Options cli("chipletperf", "profile a workload scenario's chiplet-network flows");
  cli.flag("--json", &opt.json, "dump machine-readable telemetry instead of the report")
      .positional(
          [&](const std::string& arg) {
            if (arg == "7302" || arg == "9634") {
              positional_platform = "epyc" + arg;
              return true;
            }
            if (arg == "ccd" || arg == "cpu" || arg == "cxl" || arg == "mixed") {
              opt.name = arg;
              return true;
            }
            // A finite duration whose tick count fits in a sim::Tick.
            const auto d = spec::to_finite(arg);
            if (d && *d > 0.0 && *d < spec::kMaxTickNs / 1000.0) {
              opt.duration_us = *d;
              return true;
            }
            return false;
          },
          "[7302|9634] [ccd|cpu|cxl|mixed] [duration_us]");
  cli.parse(argc, argv);
  const auto params =
      cli.has_platform() ? cli.platform_or("epyc9634") : spec::lookup(positional_platform);
  measure::Experiment e(params);
  auto& platform = e.platform;

  // Build the scenario's flows and register them with the flow layer.
  cnet::FlowRegistry registry;
  cnet::FlowProfiler profiler;
  std::vector<std::unique_ptr<traffic::StreamFlow>> flows;
  const auto stop = sim::from_us(opt.duration_us);

  auto add_flow = [&](int ccd, int ccx, cnet::Domain dst, fabric::Op op, double rate) {
    cnet::FlowDescriptor desc;
    desc.name = std::string(to_string(dst)) + "-" + fabric::to_string(op) + "-ccd" +
                std::to_string(ccd);
    desc.src_ccd = ccd;
    desc.src_ccx = ccx;
    desc.dst = dst;
    desc.op = op;
    desc.demand_gbps = rate;
    const auto id = registry.register_flow(desc);

    traffic::StreamFlow::Config cfg;
    cfg.name = desc.name;
    cfg.op = op;
    cfg.paths = dst == cnet::Domain::kCxl
                    ? std::vector<fabric::Path*>{&platform.cxl_path(ccd, ccx)}
                    : platform.dram_paths_all(ccd, ccx);
    cfg.pools = platform.pools_for(ccd, ccx, op);
    cfg.window = dst == cnet::Domain::kCxl
                     ? (op == fabric::Op::kRead ? params.cxl_core_read_window
                                                : params.cxl_core_write_window)
                     : (op == fabric::Op::kRead ? params.core_read_window
                                                : params.core_write_window);
    cfg.target_rate = rate;
    if (op == fabric::Op::kWrite && params.core_write_issue_bw > 0.0 &&
        dst != cnet::Domain::kCxl) {
      cfg.target_rate = rate > 0.0 ? std::min(rate, params.core_write_issue_bw)
                                   : params.core_write_issue_bw;
    }
    cfg.stop_at = stop;
    cfg.seed = cli.seed_or(0x9E0) + id;
    flows.push_back(std::make_unique<traffic::StreamFlow>(e.simulator, std::move(cfg)));
    return id;
  };

  std::vector<fabric::FlowId> ids;
  if (opt.name == "ccd") {
    for (int c = 0; c < params.cores_per_ccx; ++c) {
      ids.push_back(add_flow(0, 0, cnet::Domain::kDram, fabric::Op::kRead, 0.0));
    }
  } else if (opt.name == "cpu") {
    for (int d = 0; d < params.ccd_count; ++d) {
      ids.push_back(add_flow(d, 0, cnet::Domain::kDram, fabric::Op::kRead, 0.0));
    }
  } else if (opt.name == "cxl" && params.has_cxl()) {
    for (int d = 0; d < std::min(4, params.ccd_count); ++d) {
      ids.push_back(add_flow(d, 0, cnet::Domain::kCxl, fabric::Op::kRead, 0.0));
    }
  } else {  // mixed
    ids.push_back(add_flow(0, 0, cnet::Domain::kDram, fabric::Op::kRead, 0.0));
    ids.push_back(add_flow(0, 0, cnet::Domain::kDram, fabric::Op::kWrite, 0.0));
    ids.push_back(add_flow(1 % params.ccd_count, 0, cnet::Domain::kDram, fabric::Op::kRead, 6.0));
    if (params.has_cxl()) {
      ids.push_back(add_flow(2 % params.ccd_count, 0, cnet::Domain::kCxl, fabric::Op::kRead, 0.0));
    }
  }

  for (auto& f : flows) f->start();
  e.simulator.run_until(stop + sim::from_us(10.0));

  // Feed the sketch profiler from the flows' delivery counters.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto n = flows[i]->completions();
    for (std::uint64_t k = 0; k < n; k += 64) {
      profiler.record(ids[i], 64.0 * std::min<std::uint64_t>(64, n - k), 0);
    }
  }

  if (opt.json) {
    std::printf("%s\n", cnet::telemetry_json(platform).c_str());
    return 0;
  }

  std::printf("chipletperf: %s, scenario '%s', %.0f us simulated\n\n", params.name.c_str(),
              opt.name.c_str(), opt.duration_us);
  std::printf("flows:\n");
  for (std::size_t i = 0; i < flows.size(); ++i) {
    std::printf("  %-28s %7.2f GB/s   %s\n", flows[i]->name().c_str(),
                flows[i]->achieved_gbps(), registry.describe(ids[i]).to_string().c_str());
  }
  std::printf("\ntop flows by bytes (Space-Saving sketch, %zu B of state):\n",
              profiler.memory_bytes());
  for (const auto& counter : profiler.top_flows()) {
    if (counter.count == 0) continue;
    std::printf("  flow %-3llu %-28s ~%llu KB\n",
                static_cast<unsigned long long>(counter.key),
                registry.describe(static_cast<fabric::FlowId>(counter.key)).name.c_str(),
                static_cast<unsigned long long>(counter.count >> 10));
  }
  std::printf("\n%s", cnet::proc_chiplet_net(platform).c_str());
  const auto hot = cnet::bottleneck_link(platform);
  std::printf("\nbottleneck: %s (%.0f%% utilized)\n", hot.name.c_str(), hot.utilization * 100.0);
  return 0;
}

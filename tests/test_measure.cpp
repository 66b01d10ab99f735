// Unit tests for the measurement harness itself: scenario definitions,
// capacity constants, and harness invariants that the calibration suite
// builds on.
#include <gtest/gtest.h>

#include "measure/experiment.hpp"
#include "measure/harvest.hpp"
#include "measure/latency.hpp"
#include "measure/loadsweep.hpp"
#include "measure/scenario.hpp"
#include "topo/params.hpp"

namespace scn::measure {
namespace {

TEST(Scenario, IfIntraCcSiteCounts) {
  Experiment e7(topo::epyc7302());
  EXPECT_EQ(scenario_sites(e7.platform, SweepLink::kIfIntraCc).size(), 2u);  // one CCX's cores
  Experiment e9(topo::epyc9634());
  EXPECT_EQ(scenario_sites(e9.platform, SweepLink::kIfIntraCc).size(), 7u);  // one CCD's cores
}

TEST(Scenario, GmiUsesNearUmcsOnly) {
  Experiment e(topo::epyc7302());
  for (const auto& site : scenario_sites(e.platform, SweepLink::kGmi)) {
    for (const auto* path : site.paths) {
      // NPS4-style: all targets are near-position UMCs (zero-load RTT < 126).
      EXPECT_LT(sim::to_ns(path->zero_load_rtt()), 126.0) << path->name;
    }
  }
}

TEST(Scenario, PlinkSpansOneQuadrant) {
  Experiment e(topo::epyc9634());
  const auto sites = scenario_sites(e.platform, SweepLink::kPlink);
  EXPECT_EQ(sites.size(), 4u * 7u);  // 4 CCDs x 7 cores
  int max_ccd = 0;
  for (const auto& s : sites) max_ccd = std::max(max_ccd, s.ccd);
  EXPECT_EQ(max_ccd, 3);
}

TEST(Scenario, WindowsFollowOpAndLink) {
  const auto p = topo::epyc9634();
  EXPECT_EQ(scenario_window(p, SweepLink::kGmi, fabric::Op::kRead), p.core_read_window);
  EXPECT_EQ(scenario_window(p, SweepLink::kGmi, fabric::Op::kWrite), p.core_write_window);
  EXPECT_EQ(scenario_window(p, SweepLink::kPlink, fabric::Op::kRead), p.cxl_core_read_window);
  EXPECT_EQ(scenario_window(p, SweepLink::kPlink, fabric::Op::kWrite), p.cxl_core_write_window);
}

TEST(Scenario, IssueCapOnlyForDramWrites) {
  const auto p = topo::epyc9634();
  EXPECT_DOUBLE_EQ(scenario_issue_cap(p, SweepLink::kGmi, fabric::Op::kRead), 0.0);
  EXPECT_DOUBLE_EQ(scenario_issue_cap(p, SweepLink::kGmi, fabric::Op::kWrite),
                   p.core_write_issue_bw);
  EXPECT_DOUBLE_EQ(scenario_issue_cap(p, SweepLink::kPlink, fabric::Op::kWrite), 0.0);
}

TEST(Scenario, CapacitiesMatchBindingSegments) {
  const auto p9 = topo::epyc9634();
  EXPECT_DOUBLE_EQ(scenario_capacity(p9, SweepLink::kGmi, fabric::Op::kRead), p9.gmi_down_bw);
  EXPECT_DOUBLE_EQ(scenario_capacity(p9, SweepLink::kPlink, fabric::Op::kRead), p9.cxl_read_bw);
  EXPECT_DOUBLE_EQ(scenario_capacity(p9, SweepLink::kIfInterCc, fabric::Op::kRead),
                   p9.peer_out_bw);
  const auto p7 = topo::epyc7302();
  EXPECT_DOUBLE_EQ(scenario_capacity(p7, SweepLink::kIfIntraCc, fabric::Op::kRead),
                   p7.ccx_down_bw);
}

TEST(LoadSweep, RequestedLoadIsTheOfferedLoadHelper) {
  // The reported offered load and the sweep's dispatch cost come from one
  // helper, so they cannot drift apart.
  struct Panel {
    topo::PlatformParams params;
    SweepLink link;
    fabric::Op op;
  };
  const std::vector<Panel> panels{{topo::epyc7302(), SweepLink::kGmi, fabric::Op::kRead},
                                  {topo::epyc9634(), SweepLink::kGmi, fabric::Op::kWrite},
                                  {topo::epyc9634(), SweepLink::kPlink, fabric::Op::kRead}};
  constexpr int kPoints = 3;
  for (const auto& p : panels) {
    const int sites = sweep_sites(p.params, p.link);
    ASSERT_GT(sites, 0);
    const auto pts = latency_vs_load(p.params, p.link, p.op, kPoints, /*jobs=*/2,
                                     /*fastforward=*/true);
    ASSERT_EQ(pts.size(), static_cast<std::size_t>(kPoints));
    for (int i = 1; i <= kPoints; ++i) {
      EXPECT_EQ(pts[static_cast<std::size_t>(i - 1)].requested_gbps,
                offered_gbps(p.params, p.link, p.op, i, kPoints, sites))
          << p.params.name << " " << to_string(p.link) << " point " << i;
    }
  }
}

TEST(Harness, CacheLatencySweepIsMonotone) {
  const auto p = topo::epyc7302();
  double last = 0.0;
  for (std::uint64_t ws : {16ULL << 10, 256ULL << 10, 8ULL << 20, 64ULL << 20}) {
    const auto r = cache_latency(p, ws);
    EXPECT_GE(r.avg_ns, last);
    last = r.avg_ns;
  }
  EXPECT_GT(last, 100.0);  // the 64 MB working set spills to DRAM
}

TEST(Harness, LatencyResultFieldsConsistent) {
  const auto r = dram_position_latency(topo::epyc9634(), topo::DimmPosition::kNear, 3000);
  EXPECT_EQ(r.samples, 3000u);
  EXPECT_LE(r.p50_ns, r.p999_ns);
  EXPECT_LE(r.p999_ns, r.max_ns + 0.001);
  EXPECT_GT(r.avg_ns, 100.0);
}

TEST(Harness, HarvestTraceShape) {
  const auto trace = harvest_trace(topo::epyc9634(), SweepLink::kIfIntraCc);
  EXPECT_EQ(trace.flow0_gbps.size(), 300u);  // 6 scaled-s / 20 scaled-ms
  EXPECT_EQ(trace.flow0_gbps.size(), trace.flow1_gbps.size());
  ASSERT_EQ(trace.throttle_windows_ms.size(), 2u);
  // Flow 0 is actually throttled inside its windows.
  const auto idx = static_cast<std::size_t>(2.5 / trace.interval_ms);
  const auto before = static_cast<std::size_t>(1.5 / trace.interval_ms);
  EXPECT_LT(trace.flow0_gbps[idx], trace.flow0_gbps[before]);
}

TEST(Harness, HarvestTimeZeroOnFlatTrace) {
  HarvestTrace flat;
  flat.interval_ms = 0.02;
  flat.throttle_windows_ms = {{2.0, 3.0}, {4.0, 5.0}};
  flat.flow0_gbps.assign(300, 10.0);
  flat.flow1_gbps.assign(300, 10.0);
  EXPECT_DOUBLE_EQ(harvest_time_ms(flat), 0.0);
}

}  // namespace
}  // namespace scn::measure

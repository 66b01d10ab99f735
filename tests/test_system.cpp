// Tests: dual-socket system model (xGMI tier of the chiplet network).
#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.hpp"
#include "topo/params.hpp"
#include "topo/system.hpp"
#include "traffic/flow_group.hpp"
#include "traffic/pointer_chase.hpp"

namespace scn::topo {
namespace {

SystemParams dell7525() {
  SystemParams sp;
  sp.socket = epyc7302();
  sp.socket_count = 2;  // the paper's Dell 7525 testbed
  return sp;
}

TEST(System, BuildsTwoSockets) {
  sim::Simulator s;
  System sys(s, dell7525());
  EXPECT_EQ(sys.socket_count(), 2);
  EXPECT_EQ(sys.socket(0).ccd_count(), 4);
  EXPECT_NE(&sys.socket(0), &sys.socket(1));
  EXPECT_NE(sys.socket(0).params().name, sys.socket(1).params().name);
}

TEST(System, LocalPathIsThePlatformPath) {
  sim::Simulator s;
  System sys(s, dell7525());
  EXPECT_EQ(&sys.dram_path(0, 0, 0, 0, 0), &sys.socket(0).dram_path(0, 0, 0));
}

TEST(System, RemoteLatencyAddsSocketHop) {
  sim::Simulator s;
  System sys(s, dell7525());
  traffic::PointerChase::Config local_cfg;
  local_cfg.paths = {&sys.dram_path(0, 0, 0, 0, 0)};
  local_cfg.samples = 2000;
  traffic::PointerChase local(s, local_cfg);
  local.start();
  s.run_until(sim::from_ms(1.0));

  traffic::PointerChase::Config remote_cfg;
  remote_cfg.paths = {&sys.dram_path(0, 0, 0, 1, 0)};
  remote_cfg.samples = 2000;
  traffic::PointerChase remote(s, remote_cfg);
  remote.start();
  s.run_until(sim::from_ms(3.0));

  // Remote = local + ~2x xGMI propagation (+ extra I/O-die traversal):
  // classic 2P EPYC NUMA distance (~90-110 ns over local).
  const double delta = remote.mean_ns() - local.mean_ns();
  EXPECT_GT(delta, 80.0);
  EXPECT_LT(delta, 130.0);
}

TEST(System, XgmiCapsCrossSocketBandwidth) {
  sim::Simulator s;
  auto params = dell7525();
  System sys(s, params);
  // Every core of socket 0 streams from socket 1's DIMMs.
  traffic::FlowGroup group("remote");
  int id = 0;
  for (int d = 0; d < sys.socket(0).ccd_count(); ++d) {
    for (int x = 0; x < sys.socket(0).ccx_per_ccd(); ++x) {
      for (int c = 0; c < sys.socket(0).cores_per_ccx(); ++c) {
        traffic::StreamFlow::Config cfg;
        // Appended: "r" + to_string(id) trips a g++ 12 -Wrestrict false positive.
        cfg.name = "r";
        cfg.name += std::to_string(id);
        cfg.paths = sys.dram_paths_all(0, d, x, 1);
        cfg.pools = sys.socket(0).pools_for(d, x, fabric::Op::kRead);
        cfg.window = 48;  // extra MLP: the remote BDP is larger (Impl. #3)
        cfg.stats_after = sim::from_us(15.0);
        cfg.stop_at = sim::from_us(60.0);
        cfg.seed = 100 + static_cast<std::uint64_t>(id++);
        group.add(s, std::move(cfg));
      }
    }
  }
  group.start_all();
  s.run_until(sim::from_us(75.0));
  // Socket-wide local read would be 106.7 GB/s; remote clips at the xGMI cap.
  EXPECT_NEAR(group.aggregate_gbps(), params.xgmi_bw, params.xgmi_bw * 0.08);
}

TEST(System, XgmiTelemetryCountsCrossTraffic) {
  sim::Simulator s;
  System sys(s, dell7525());
  traffic::StreamFlow::Config cfg;
  cfg.paths = sys.dram_paths_all(0, 0, 0, 1);
  cfg.pools = sys.socket(0).pools_for(0, 0, fabric::Op::kRead);
  cfg.window = 32;
  cfg.stop_at = sim::from_us(20.0);
  traffic::StreamFlow flow(s, cfg);
  flow.start();
  s.run_until(sim::from_us(25.0));
  EXPECT_GT(sys.xgmi(0, 1).messages_total(), 1000u);  // requests out
  EXPECT_GT(sys.xgmi(1, 0).bytes_total(), sys.xgmi(0, 1).bytes_total());  // data back
  // The system channel sweep includes both sockets and the xGMI mesh.
  const auto all = sys.all_channels();
  EXPECT_GT(all.size(), 2 * 40u);
}

TEST(System, SingleSocketDegenerate) {
  sim::Simulator s;
  auto params = dell7525();
  params.socket_count = 1;
  System sys(s, params);
  EXPECT_EQ(sys.socket_count(), 1);
  EXPECT_EQ(&sys.dram_path(0, 0, 0, 0, 3), &sys.socket(0).dram_path(0, 0, 3));
}

}  // namespace
}  // namespace scn::topo

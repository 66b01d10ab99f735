// scn::exec: Lockstep engine + ParallelSweep driver, the determinism guarantee
// (parallel sweeps are bit-identical to serial), and regression tests for the
// telemetry accounting fixes that rode along (channel utilization clamping,
// loadsweep offered-load reporting).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/lockstep.hpp"
#include "exec/sweep.hpp"
#include "fabric/channel.hpp"
#include "measure/experiment.hpp"
#include "measure/loadsweep.hpp"
#include "measure/partition.hpp"
#include "measure/scenario.hpp"
#include "topo/params.hpp"

namespace scn {
namespace {

using sim::from_ns;

// ---- lockstep barrier ----------------------------------------------------

TEST(Lockstep, InlineModeRunsOnCaller) {
  exec::Lockstep step(0);
  EXPECT_EQ(step.shards(), 0);  // no worker threads: run() executes inline
  int runs = 0;
  step.set_work([&runs](int shard) {
    EXPECT_EQ(shard, 0);
    ++runs;
  });
  step.run();
  step.run();
  EXPECT_EQ(runs, 2);
}

TEST(Lockstep, EveryShardRunsEveryGeneration) {
  constexpr int kShards = 4;
  constexpr int kRounds = 200;  // enough generations to cross spin/park modes
  exec::Lockstep step(kShards);
  EXPECT_EQ(step.shards(), kShards);
  std::vector<int> counts(kShards, 0);  // distinct slots: no write sharing
  step.set_work([&counts](int shard) { ++counts[static_cast<std::size_t>(shard)]; });
  for (int r = 0; r < kRounds; ++r) step.run();
  for (int shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(counts[static_cast<std::size_t>(shard)], kRounds);
  }
}

TEST(Lockstep, RunHappensBeforeReturn) {
  // The caller must observe every worker's writes after run() — the
  // completion chain is the release/acquire edge the cluster leans on.
  exec::Lockstep step(3);
  std::vector<std::uint64_t> acc(3, 0);
  step.set_work([&acc](int shard) {
    acc[static_cast<std::size_t>(shard)] += static_cast<std::uint64_t>(shard + 1);
  });
  std::uint64_t total = 0;
  for (int r = 0; r < 50; ++r) {
    step.run();
    total = acc[0] + acc[1] + acc[2];
    ASSERT_EQ(total, static_cast<std::uint64_t>(6 * (r + 1)));
  }
}

TEST(Lockstep, PostedTasksRunOnTheirShard) {
  exec::Lockstep step(2);
  std::vector<std::vector<int>> seen(2);
  for (int i = 0; i < 8; ++i) {
    step.post(i % 2, [&seen, i] { seen[static_cast<std::size_t>(i % 2)].push_back(i); });
  }
  step.drain();
  EXPECT_EQ(seen[0], (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(seen[1], (std::vector<int>{1, 3, 5, 7}));
  // drain() with nothing queued is a no-op, and work still fires after it.
  step.drain();
  std::atomic<int> runs{0};  // both workers bump it in the same round
  step.set_work([&runs](int) { ++runs; });
  step.run();
  EXPECT_EQ(runs.load(), 2);
}

TEST(ResolveJobs, ExplicitRequestWins) {
  EXPECT_EQ(exec::resolve_jobs(3), 3);
  EXPECT_EQ(exec::ParallelSweep(7).jobs(), 7);
}

TEST(ResolveJobs, NonPositiveMeansHardwareConcurrency) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int expected = hw > 0 ? static_cast<int>(hw) : 1;
  EXPECT_EQ(exec::resolve_jobs(0), expected);
  EXPECT_EQ(exec::resolve_jobs(-2), expected);
  EXPECT_EQ(exec::ParallelSweep().jobs(), expected);
}

TEST(PointSeed, DeterministicAndDistinct) {
  EXPECT_EQ(exec::point_seed(42, 7), exec::point_seed(42, 7));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t p = 0; p < 64; ++p) seeds.insert(exec::point_seed(1234, p));
  EXPECT_EQ(seeds.size(), 64u);  // no collisions among neighbouring points
  EXPECT_NE(exec::point_seed(1, 0), exec::point_seed(2, 0));
}

// ---- ParallelSweep ------------------------------------------------------------

TEST(ParallelSweep, ResultsInPointOrder) {
  exec::ParallelSweep sweep(4);
  const auto out = sweep.map(33, [](int i) { return i * i; });
  ASSERT_EQ(out.size(), 33u);
  for (int i = 0; i < 33; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(ParallelSweep, SerialFallbackMatches) {
  exec::ParallelSweep serial(1);
  exec::ParallelSweep parallel(8);
  const auto a = serial.map(10, [](int i) { return 3 * i + 1; });
  const auto b = parallel.map(10, [](int i) { return 3 * i + 1; });
  EXPECT_EQ(a, b);
}

TEST(ParallelSweep, EmptyAndSingle) {
  exec::ParallelSweep sweep(4);
  EXPECT_TRUE(sweep.map(0, [](int) { return 0; }).empty());
  const auto one = sweep.map(1, [](int i) { return i + 41; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41);
}

TEST(ParallelSweep, EveryPointRunsExactlyOnce) {
  // More points than workers: each worker keeps claiming tickets until the
  // sweep is exhausted, no point is claimed twice, and the results stay
  // point-indexed whatever the dispatch order.
  constexpr int kPoints = 257;
  for (int jobs : {1, 3, 4}) {
    for (bool with_cost : {false, true}) {
      std::vector<std::atomic<int>> runs(kPoints);
      exec::ParallelSweep sweep(jobs);
      auto fn = [&runs](int i) {
        ++runs[static_cast<std::size_t>(i)];
        return i;
      };
      // Costs that scramble the order: (i * 37) % 11 has many ties.
      const auto out = with_cost
                           ? sweep.map(kPoints, fn, [](int i) { return (i * 37) % 11; })
                           : sweep.map(kPoints, fn);
      ASSERT_EQ(out.size(), static_cast<std::size_t>(kPoints));
      for (int i = 0; i < kPoints; ++i) {
        EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
            << "jobs " << jobs << " cost " << with_cost << " point " << i;
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
      }
    }
  }
}

TEST(ParallelSweep, PropagatesExceptions) {
  exec::ParallelSweep sweep(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(sweep.map(8,
                         [&ran](int i) -> int {
                           ++ran;
                           if (i == 5) throw std::runtime_error("point failed");
                           return i;
                         }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 8);  // a failed point does not cancel the others
}

TEST(ParallelSweep, HeaviestFirstOrderIsDescendingCostTiesByIndex) {
  EXPECT_EQ(exec::heaviest_first({1.0, 5.0, 3.0, 5.0, 0.0, 3.0}),
            (std::vector<int>{1, 3, 2, 5, 0, 4}));
  EXPECT_EQ(exec::heaviest_first({2.0, 2.0, 2.0}), exec::identity_order(3));
  EXPECT_TRUE(exec::heaviest_first({}).empty());
}

TEST(ParallelSweep, OneWorkerStartsPointsInDispatchOrder) {
  // With one worker the start sequence is the ticket sequence itself.
  exec::ParallelSweep sweep(1);
  std::vector<int> started;
  const auto plain = sweep.map(5, [&started](int i) {
    started.push_back(i);
    return i;
  });
  EXPECT_EQ(started, (std::vector<int>{0, 1, 2, 3, 4}));
  started.clear();
  const std::vector<double> cost{0.5, 4.0, 2.0, 4.0, 1.0};
  const auto weighted = sweep.map(
      5,
      [&started](int i) {
        started.push_back(i);
        return i;
      },
      [&cost](int i) { return cost[static_cast<std::size_t>(i)]; });
  EXPECT_EQ(started, (std::vector<int>{1, 3, 2, 4, 0}));
  EXPECT_EQ(plain, weighted);  // results stay point-indexed under any order
}

// ---- determinism: parallel sweeps == serial sweeps ---------------------------

TEST(ParallelSweep, LoadSweepBitIdenticalToSerial) {
  const auto params = topo::epyc7302();
  const auto serial =
      measure::latency_vs_load(params, measure::SweepLink::kIfIntraCc, fabric::Op::kRead, 4,
                               /*jobs=*/1);
  const auto parallel =
      measure::latency_vs_load(params, measure::SweepLink::kIfIntraCc, fabric::Op::kRead, 4,
                               /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Bitwise equality: the points run the same seeded Experiments, so every
    // double must match exactly, not just approximately.
    EXPECT_EQ(serial[i].requested_gbps, parallel[i].requested_gbps) << "point " << i;
    EXPECT_EQ(serial[i].achieved_gbps, parallel[i].achieved_gbps) << "point " << i;
    EXPECT_EQ(serial[i].avg_ns, parallel[i].avg_ns) << "point " << i;
    EXPECT_EQ(serial[i].p999_ns, parallel[i].p999_ns) << "point " << i;
  }
}

TEST(ParallelSweep, PartitionCasesBitIdenticalToSerial) {
  const std::vector<measure::PartitionCase> cases{
      measure::PartitionCase::kUnderSubscribed, measure::PartitionCase::kOneSmall,
      measure::PartitionCase::kEqualHigh, measure::PartitionCase::kUnequalHigh};
  const auto params = topo::epyc9634();
  const auto serial = measure::partition_cases(params, measure::SweepLink::kIfIntraCc, cases,
                                               fabric::Op::kRead, /*jobs=*/1);
  const auto parallel = measure::partition_cases(params, measure::SweepLink::kIfIntraCc, cases,
                                                 fabric::Op::kRead, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].achieved_gbps[0], parallel[i].achieved_gbps[0]) << "case " << i;
    EXPECT_EQ(serial[i].achieved_gbps[1], parallel[i].achieved_gbps[1]) << "case " << i;
    EXPECT_EQ(serial[i].requested_gbps[0], parallel[i].requested_gbps[0]) << "case " << i;
    EXPECT_EQ(serial[i].requested_gbps[1], parallel[i].requested_gbps[1]) << "case " << i;
  }
}

// ---- regression: channel utilization accounting ------------------------------

TEST(ChannelTelemetry, UtilizationNeverExceedsOneUnderSaturation) {
  // A giant message is credited to busy_ticks_ at admission, but the link is
  // still serializing long after `now`; utilization must clamp to elapsed
  // time (the pre-fix accounting reported 100x here).
  fabric::Channel ch("c", 1.0, 0);  // 1 byte/ns
  ch.admit(0, 1000.0);              // 1000 ns of serialization
  EXPECT_DOUBLE_EQ(ch.utilization(from_ns(10.0)), 1.0);
  EXPECT_DOUBLE_EQ(ch.utilization(from_ns(1000.0)), 1.0);
  EXPECT_NEAR(ch.utilization(from_ns(2000.0)), 0.5, 1e-12);
}

TEST(ChannelTelemetry, UtilizationCountsOnlyElapsedBusyTime) {
  fabric::Channel ch("c", 64.0, 0);
  ch.admit(0, 128.0);                // busy [0, 2ns)
  ch.admit(from_ns(6.0), 128.0);     // busy [6ns, 8ns)
  // At t=7ns: 2ns of the first message + 1ns of the second have elapsed.
  EXPECT_NEAR(ch.utilization(from_ns(7.0)), 3.0 / 7.0, 1e-12);
  EXPECT_NEAR(ch.utilization(from_ns(8.0)), 4.0 / 8.0, 1e-12);
}

TEST(ChannelTelemetry, StallTrackedSeparatelyFromBusy) {
  fabric::Channel ch("c", 64.0, 0);
  ch.stall(0, from_ns(50.0));
  EXPECT_EQ(ch.busy_ticks(), 0);
  EXPECT_EQ(ch.stall_ticks(), from_ns(50.0));
  // The stalled link is occupied (not serving), and the accounting still
  // clamps to elapsed time.
  EXPECT_DOUBLE_EQ(ch.utilization(from_ns(25.0)), 1.0);
  ch.admit(from_ns(10.0), 64.0);  // queues behind the stall
  EXPECT_EQ(ch.busy_ticks(), from_ns(1.0));
  EXPECT_EQ(ch.stall_ticks(), from_ns(50.0));
  EXPECT_LE(ch.utilization(from_ns(30.0)), 1.0);
  ch.reset_telemetry();
  EXPECT_EQ(ch.stall_ticks(), 0);
}

// ---- regression: offered load reflects the configured rate -------------------

TEST(LoadSweep, RequestedRateMatchesConfiguredRate) {
  // 9634 GMI writes have a per-core issue cap; the unthrottled point's flows
  // are configured at that cap, so the reported offered load must be
  // sites * cap — not sites * per_core_max estimate.
  const auto params = topo::epyc9634();
  const double cap =
      measure::scenario_issue_cap(params, measure::SweepLink::kGmi, fabric::Op::kWrite);
  ASSERT_GT(cap, 0.0);
  measure::Experiment e(params);
  const auto sites = measure::scenario_sites(e.platform, measure::SweepLink::kGmi);
  ASSERT_FALSE(sites.empty());

  const auto pts =
      measure::latency_vs_load(params, measure::SweepLink::kGmi, fabric::Op::kWrite, 3);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts.back().requested_gbps, cap * static_cast<double>(sites.size()));
  // Offered load never exceeds what the flows were actually configured to
  // issue, and the grid is non-decreasing.
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_LE(pts[i].requested_gbps, cap * static_cast<double>(sites.size()) + 1e-9);
    if (i > 0) {
      EXPECT_GE(pts[i].requested_gbps, pts[i - 1].requested_gbps);
    }
  }
}

}  // namespace
}  // namespace scn

// The request-level serving subsystem: arrival-process statistics, request
// DAG ordering, placement policies, SLO accounting, determinism, and the
// headline latency-vs-QPS acceptance property (saturation knee on both
// characterized platforms, telemetry placement beating round-robin at the
// knee).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "measure/experiment.hpp"
#include "serve/arrival.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/sweep.hpp"
#include "topo/params.hpp"

namespace {

using namespace scn;

// ---- arrival processes -----------------------------------------------------

double empirical_rate_per_us(serve::ArrivalProcess& p, int arrivals) {
  sim::Tick total = 0;
  for (int i = 0; i < arrivals; ++i) total += p.next_gap();
  return arrivals / sim::to_us(total);
}

TEST(ServeArrival, DeterministicRateIsExact) {
  serve::ArrivalConfig cfg;
  cfg.kind = serve::ArrivalKind::kDeterministic;
  cfg.rate_per_us = 4.0;
  serve::ArrivalProcess p(cfg, 1);
  EXPECT_NEAR(empirical_rate_per_us(p, 100), 4.0, 1e-6);
}

TEST(ServeArrival, DeterministicCarryKeepsNonDivisibleRatesExact) {
  // Regression: per-draw rounding used to bias rates whose period is not an
  // integer tick count. The residue carry must keep the emitted schedule
  // within one tick of the exact one over any horizon — far inside the 0.1%
  // budget over a 10 ms window.
  for (const double rate : {3.0, 4.9, 7.3}) {
    serve::ArrivalConfig cfg;
    cfg.kind = serve::ArrivalKind::kDeterministic;
    cfg.rate_per_us = rate;
    serve::ArrivalProcess p(cfg, 1);
    const auto n = static_cast<int>(rate * 10000.0);  // ~10 ms of arrivals
    sim::Tick total = 0;
    for (int i = 0; i < n; ++i) total += p.next_gap();
    const double exact_ticks = static_cast<double>(n) * 1e6 / rate;  // 1/rate us in ps
    EXPECT_NEAR(static_cast<double>(total), exact_ticks, 1.0) << "rate " << rate;
    const double measured = static_cast<double>(n) / sim::to_us(total);
    EXPECT_NEAR(measured, rate, rate * 0.001) << "rate " << rate;
  }
}

TEST(ServeArrival, PoissonCarryKeepsHighRateMeanExact) {
  // At 50 req/us the mean gap is 20k ticks, but individual exponential draws
  // are often sub-mean; rounding each one independently used to understate
  // offered load. With the carry the long-run mean tracks the sample's exact
  // (unquantized) mean to within one tick overall.
  serve::ArrivalConfig cfg;
  cfg.kind = serve::ArrivalKind::kPoisson;
  cfg.rate_per_us = 50.0;
  serve::ArrivalProcess p(cfg, 9);
  const int n = 500000;  // ~10 ms
  sim::Tick total = 0;
  for (int i = 0; i < n; ++i) total += p.next_gap();
  const double measured = static_cast<double>(n) / sim::to_us(total);
  // Statistical bound: sample-mean noise at n=500k is ~0.14%; the old
  // quantization alone cannot be the dominant error term any more.
  EXPECT_NEAR(measured, 50.0, 50.0 * 0.01);
}

TEST(ServeArrival, PoissonMatchesConfiguredMean) {
  serve::ArrivalConfig cfg;
  cfg.kind = serve::ArrivalKind::kPoisson;
  cfg.rate_per_us = 2.0;
  serve::ArrivalProcess p(cfg, 7);
  // 20000 draws: the sample mean of an exponential is within a few percent.
  EXPECT_NEAR(empirical_rate_per_us(p, 20000), 2.0, 0.1);
}

TEST(ServeArrival, MmppPreservesLongRunMean) {
  serve::ArrivalConfig cfg;
  cfg.kind = serve::ArrivalKind::kMmpp;
  cfg.rate_per_us = 2.0;
  serve::ArrivalProcess p(cfg, 13);
  // (burst 1.7 + calm 0.3) / 2 == 1, so the long-run mean is rate_per_us.
  // Convergence is over phase sojourns (20 us each), hence the wide run.
  EXPECT_NEAR(empirical_rate_per_us(p, 60000), 2.0, 0.2);
}

TEST(ServeArrival, MmppActuallyAlternatesPhases) {
  serve::ArrivalConfig cfg;
  cfg.kind = serve::ArrivalKind::kMmpp;
  cfg.rate_per_us = 1.0;
  serve::ArrivalProcess p(cfg, 5);
  int flips = 0;
  bool last = p.in_burst();
  for (int i = 0; i < 5000; ++i) {
    (void)p.next_gap();
    if (p.in_burst() != last) {
      ++flips;
      last = p.in_burst();
    }
  }
  EXPECT_GT(flips, 10);
}

TEST(ServeArrival, GapsNeverZero) {
  serve::ArrivalConfig cfg;
  cfg.rate_per_us = 1e9;  // absurd rate: gaps clamp to 1 tick, never 0
  serve::ArrivalProcess p(cfg, 3);
  for (int i = 0; i < 100; ++i) EXPECT_GE(p.next_gap(), 1);
}

TEST(ServeArrival, SameSeedSameSchedule) {
  serve::ArrivalConfig cfg;
  cfg.kind = serve::ArrivalKind::kMmpp;
  serve::ArrivalProcess a(cfg, 42);
  serve::ArrivalProcess b(cfg, 42);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_gap(), b.next_gap());
}

// ---- catalog validation ----------------------------------------------------

serve::ServerConfig base_config(double rate_per_us = 1.0) {
  serve::ServerConfig cfg;
  cfg.arrival.kind = serve::ArrivalKind::kPoisson;
  cfg.arrival.rate_per_us = rate_per_us;
  cfg.warmup = sim::from_us(10.0);
  cfg.stop = sim::from_us(60.0);
  cfg.seed = 1;
  return cfg;
}

TEST(ServeValidate, EmptyStageListThrows) {
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config();
  cfg.classes = {{"broken", "t", 1.0, sim::from_us(1.0), {}}};
  EXPECT_THROW(serve::ServerSim(e.simulator, e.platform, cfg), std::invalid_argument);
}

TEST(ServeValidate, ForwardDependencyThrows) {
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config();
  serve::RequestClass c;
  c.name = "cyclic";
  c.tenant = "t";
  c.stages = {
      {"a", serve::StageKind::kDramRead, 4, 64.0, 4, {1}},  // depends on later stage
      {"b", serve::StageKind::kDramRead, 4, 64.0, 4, {}},
  };
  cfg.classes = {c};
  EXPECT_THROW(serve::ServerSim(e.simulator, e.platform, cfg), std::invalid_argument);
}

TEST(ServeValidate, CxlStageNeedsCxlTier) {
  measure::Experiment e(topo::epyc7302());  // no CXL on the 7302
  auto cfg = base_config();
  serve::RequestClass c;
  c.name = "tiered";
  c.tenant = "t";
  c.stages = {{"cold", serve::StageKind::kCxlRead, 4, 64.0, 4, {}}};
  cfg.classes = {c};
  EXPECT_THROW(serve::ServerSim(e.simulator, e.platform, cfg), std::invalid_argument);
}

TEST(ServeValidate, WarmupMustPrecedeStop) {
  // Regression: warmup >= stop silently produced a zero-or-negative
  // measurement window (rates divided by it went infinite). Now rejected.
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config();
  cfg.warmup = cfg.stop;
  EXPECT_THROW(serve::ServerSim(e.simulator, e.platform, cfg), std::invalid_argument);
  cfg.warmup = cfg.stop + sim::from_us(1.0);
  EXPECT_THROW(serve::ServerSim(e.simulator, e.platform, cfg), std::invalid_argument);
}

TEST(ServeValidate, DefaultCatalogTracksPlatformTiers) {
  const auto with_cxl = serve::default_classes(topo::epyc9634());
  const auto without = serve::default_classes(topo::epyc7302());
  EXPECT_EQ(with_cxl.size(), 3u);
  EXPECT_EQ(without.size(), 2u);
  for (const auto& c : without) {
    for (const auto& s : c.stages) EXPECT_NE(s.kind, serve::StageKind::kCxlRead);
  }
}

// ---- request DAG ordering --------------------------------------------------

TEST(ServeDag, StagesRespectDependencies) {
  // Diamond DAG on the CXL platform: compute -> {hot DRAM, cold CXL} ->
  // respond. The hook must see stage 0 first and stage 3 last for every
  // request, with both middle stages in between (fan-out/fan-in).
  measure::Experiment e(topo::epyc9634());
  auto cfg = base_config(0.5);
  serve::RequestClass c;
  c.name = "diamond";
  c.tenant = "t";
  c.slo = sim::from_us(50.0);
  c.stages = {
      {"compute", serve::StageKind::kCompute, 8, 64.0, 1, {}},
      {"hot", serve::StageKind::kDramRead, 8, 64.0, 8, {0}},
      {"cold", serve::StageKind::kCxlRead, 8, 64.0, 4, {0}},
      {"respond", serve::StageKind::kDramWrite, 2, 64.0, 2, {1, 2}},
  };
  cfg.classes = {c};
  std::map<std::uint64_t, std::vector<int>> order;
  cfg.on_stage_done = [&](std::uint64_t id, int stage) { order[id].push_back(stage); };
  serve::ServerSim server(e.simulator, e.platform, std::move(cfg));
  server.start();
  server.run();

  ASSERT_GT(order.size(), 10u);
  for (const auto& [id, stages] : order) {
    ASSERT_EQ(stages.size(), 4u) << "request " << id;
    EXPECT_EQ(stages.front(), 0) << "request " << id;
    EXPECT_EQ(stages.back(), 3) << "request " << id;
    // The two middle completions are stages 1 and 2 in either order.
    std::vector<int> mid = {stages[1], stages[2]};
    std::sort(mid.begin(), mid.end());
    EXPECT_EQ(mid, (std::vector<int>{1, 2})) << "request " << id;
  }
}

TEST(ServeDag, LinearChainCompletesInOrder) {
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config(0.5);
  serve::RequestClass c;
  c.name = "chain";
  c.tenant = "t";
  c.slo = sim::from_us(50.0);
  c.stages = {
      {"compute", serve::StageKind::kCompute, 4, 64.0, 1, {}},
      {"read", serve::StageKind::kDramRead, 8, 64.0, 4, {0}},
      {"write", serve::StageKind::kDramWrite, 2, 64.0, 2, {1}},
  };
  cfg.classes = {c};
  std::map<std::uint64_t, std::vector<int>> order;
  cfg.on_stage_done = [&](std::uint64_t id, int stage) { order[id].push_back(stage); };
  serve::ServerSim server(e.simulator, e.platform, std::move(cfg));
  server.start();
  server.run();

  ASSERT_GT(order.size(), 10u);
  for (const auto& [id, stages] : order) {
    EXPECT_EQ(stages, (std::vector<int>{0, 1, 2})) << "request " << id;
  }
}

// ---- placement -------------------------------------------------------------

TEST(ServePlacement, RoundRobinCyclesThroughAllWorkers) {
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config(2.0);
  cfg.policy = serve::Policy::kRoundRobin;
  std::vector<int> placed;
  cfg.on_placed = [&](std::uint64_t, int worker) { placed.push_back(worker); };
  serve::ServerSim server(e.simulator, e.platform, std::move(cfg));
  const int n = server.worker_count();
  EXPECT_EQ(n, topo::epyc7302().ccd_count * topo::epyc7302().ccx_per_ccd);
  server.start();
  server.run();
  ASSERT_GT(placed.size(), static_cast<std::size_t>(2 * n));
  for (std::size_t i = 0; i < placed.size(); ++i) {
    EXPECT_EQ(placed[i], static_cast<int>(i % n)) << "arrival " << i;
  }
}

TEST(ServePlacement, LocalPolicyKeepsTenantOnItsQuadrant) {
  measure::Experiment e(topo::epyc9634());
  auto cfg = base_config(2.0);
  cfg.policy = serve::Policy::kLocal;
  serve::RequestClass c;
  c.name = "pinned";
  c.tenant = "solo";  // first tenant -> quadrant 0
  c.slo = sim::from_us(50.0);
  c.stages = {{"read", serve::StageKind::kDramRead, 8, 64.0, 8, {}}};
  cfg.classes = {c};
  std::vector<int> placed;
  cfg.on_placed = [&](std::uint64_t, int worker) { placed.push_back(worker); };
  serve::ServerSim server(e.simulator, e.platform, std::move(cfg));
  server.start();
  server.run();
  ASSERT_GT(placed.size(), 20u);
  for (int w : placed) {
    EXPECT_EQ(server.worker_ccd(w) % 4, 0) << "worker " << w;
  }
}

TEST(ServePlacement, TelemetryPolicySteersAwayFromTheAntagonist) {
  // The antagonist saturates CCD 0's GMI; the telemetry policy should place
  // a below-fair-share fraction of requests on CCD 0's workers.
  measure::Experiment e(topo::epyc9634());
  auto cfg = base_config(4.0);
  cfg.policy = serve::Policy::kTelemetry;
  cfg.antagonist = true;
  serve::ServerSim server(e.simulator, e.platform, std::move(cfg));
  server.start();
  server.run();
  const auto report = server.report();
  ASSERT_EQ(report.served_per_worker.size(),
            static_cast<std::size_t>(server.worker_count()));
  std::uint64_t on_ccd0 = 0;
  std::uint64_t total = 0;
  for (int w = 0; w < server.worker_count(); ++w) {
    total += report.served_per_worker[w];
    if (server.worker_ccd(w) == 0) on_ccd0 += report.served_per_worker[w];
  }
  ASSERT_GT(total, 0u);
  const double fair_share = 1.0 / topo::epyc9634().ccd_count;
  EXPECT_LT(static_cast<double>(on_ccd0) / total, 0.5 * fair_share);
}

// ---- SLO accounting --------------------------------------------------------

TEST(ServeSlo, GenerousSloMeansNoViolations) {
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config(1.0);
  auto classes = serve::default_classes(topo::epyc7302());
  for (auto& c : classes) c.slo = sim::from_ms(1.0);
  cfg.classes = classes;
  serve::ServerSim server(e.simulator, e.platform, std::move(cfg));
  server.start();
  server.run();
  const auto r = server.report();
  ASSERT_GT(r.arrivals, 20u);
  EXPECT_EQ(r.completed, r.arrivals);
  EXPECT_EQ(r.in_slo, r.arrivals);
  EXPECT_DOUBLE_EQ(r.slo_violation_frac, 0.0);
  EXPECT_GT(r.goodput_per_us, 0.0);
  EXPECT_NEAR(r.jain_tenant_fairness, 1.0, 0.35);  // weighted shares, finite run
}

TEST(ServeSlo, ImpossibleSloViolatesEverything) {
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config(1.0);
  auto classes = serve::default_classes(topo::epyc7302());
  for (auto& c : classes) c.slo = 1;  // one picosecond
  cfg.classes = classes;
  serve::ServerSim server(e.simulator, e.platform, std::move(cfg));
  server.start();
  server.run();
  const auto r = server.report();
  ASSERT_GT(r.arrivals, 20u);
  EXPECT_EQ(r.in_slo, 0u);
  EXPECT_DOUBLE_EQ(r.slo_violation_frac, 1.0);
  EXPECT_DOUBLE_EQ(r.goodput_per_us, 0.0);
  EXPECT_GT(r.completed, 0u);  // they complete, they just miss the SLO
}

TEST(ServeSlo, PerClassReportsSumToTotals) {
  measure::Experiment e(topo::epyc9634());
  auto cfg = base_config(2.0);
  serve::ServerSim server(e.simulator, e.platform, std::move(cfg));
  server.start();
  server.run();
  const auto r = server.report();
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_slo = 0;
  for (const auto& c : r.classes) {
    arrivals += c.arrivals;
    completed += c.completed;
    in_slo += c.in_slo;
  }
  EXPECT_EQ(arrivals, r.arrivals);
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(in_slo, r.in_slo);
  EXPECT_GE(r.p99_ns, r.p50_ns);
  EXPECT_GE(r.p999_ns, r.p99_ns);
}

TEST(ServeSlo, AchievedRateUsesDrainedWindow) {
  // Regression: achieved/goodput used to divide by the nominal arrival window
  // even though requests in flight at stop are drained (and counted) past it,
  // overstating throughput at saturation. The divisor is now the drained end.
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config(8.0);  // hot enough that work is in flight at stop
  serve::ServerSim server(e.simulator, e.platform, std::move(cfg));
  server.start();
  server.run();
  const auto r = server.report();
  ASSERT_GT(r.completed, 0u);
  EXPECT_GE(server.measured_end(), sim::from_us(60.0));
  const double drained_us = sim::to_us(server.measured_end() - sim::from_us(10.0));
  EXPECT_NEAR(r.achieved_per_us, static_cast<double>(r.completed) / drained_us,
              1e-9);
  // Offered load still reflects the configured window, so at saturation
  // achieved must come out strictly below offered.
  EXPECT_LE(r.achieved_per_us, r.offered_per_us);
}

TEST(ServeExternal, InjectedRequestsKeepTheirOrigin) {
  // Cluster mode: arrivals are injected by a front end with an origin stamp
  // earlier than delivery; end-to-end latency must include that gap.
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config(1.0);
  cfg.external_arrivals = true;
  auto classes = serve::default_classes(topo::epyc7302());
  for (auto& c : classes) c.slo = sim::from_ms(1.0);
  cfg.classes = classes;
  serve::ServerSim server(e.simulator, e.platform, std::move(cfg));
  server.start();
  const sim::Tick lag = sim::from_us(2.0);
  constexpr int kInjected = 64;
  for (int i = 0; i < kInjected; ++i) {
    const sim::Tick deliver = sim::from_us(12.0) + i * sim::from_us(0.5);
    e.simulator.schedule_at(deliver, [&server, deliver, lag] {
      server.inject(0, deliver - lag);
    });
  }
  EXPECT_THROW(server.inject(99, 0), std::out_of_range);
  server.run();
  const auto r = server.report();
  EXPECT_EQ(r.arrivals, static_cast<std::uint64_t>(kInjected));
  EXPECT_EQ(r.completed, r.arrivals);
  // Mean e2e must carry the 2 us origin-to-delivery lag on top of service.
  EXPECT_GT(r.mean_ns, sim::to_ns(lag));
}

// ---- determinism -----------------------------------------------------------

TEST(ServeDeterminism, SameSeedSameReport) {
  auto run_once = [] {
    measure::Experiment e(topo::epyc9634());
    auto cfg = base_config(2.0);
    cfg.policy = serve::Policy::kTelemetry;
    cfg.antagonist = true;
    serve::ServerSim server(e.simulator, e.platform, std::move(cfg));
    server.start();
    server.run();
    return server.report();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.in_slo, b.in_slo);
  EXPECT_DOUBLE_EQ(a.p99_ns, b.p99_ns);
  EXPECT_DOUBLE_EQ(a.mean_ns, b.mean_ns);
  EXPECT_EQ(a.served_per_worker, b.served_per_worker);
}

TEST(ServeDeterminism, PoliciesSeeIdenticalArrivalSequence) {
  // The paired-comparison contract: at a fixed seed the arrival schedule and
  // class mix must not depend on the placement policy.
  auto arrivals_with = [](serve::Policy policy) {
    measure::Experiment e(topo::epyc7302());
    auto cfg = base_config(2.0);
    cfg.policy = policy;
    serve::ServerSim server(e.simulator, e.platform, std::move(cfg));
    server.start();
    server.run();
    return server.arrivals_total();
  };
  const auto rr = arrivals_with(serve::Policy::kRoundRobin);
  const auto local = arrivals_with(serve::Policy::kLocal);
  const auto tel = arrivals_with(serve::Policy::kTelemetry);
  EXPECT_EQ(rr, local);
  EXPECT_EQ(rr, tel);
}

// ---- the headline acceptance property --------------------------------------

// Reduced grid per platform, quick-style timings: cheap enough for ASan CI
// while still driving the system past saturation at the top rate.
serve::SweepConfig knee_sweep_config(std::vector<double> rates) {
  serve::SweepConfig sc;
  sc.rates_per_us = std::move(rates);
  sc.policies = {serve::Policy::kRoundRobin, serve::Policy::kTelemetry};
  sc.warmup = sim::from_us(25.0);
  sc.stop = sim::from_us(100.0);
  sc.max_drain = sim::from_ms(1.0);
  sc.seed = 1;
  return sc;
}

void expect_knee_and_telemetry_win(const topo::PlatformParams& params,
                                   std::vector<double> rates) {
  const auto points = serve::sweep(params, knee_sweep_config(std::move(rates)));
  const auto rr = serve::policy_curve(points, serve::Policy::kRoundRobin);
  const auto tel = serve::policy_curve(points, serve::Policy::kTelemetry);
  ASSERT_FALSE(rr.empty());
  ASSERT_EQ(rr.size(), tel.size());

  // Approximately monotone: the P99 curve may dip slightly at light load
  // (telemetry steering shifts the mix) but must never collapse.
  for (std::size_t i = 1; i < rr.size(); ++i) {
    EXPECT_GE(rr[i].report.p99_ns, 0.5 * rr[i - 1].report.p99_ns)
        << params.name << " rr rate " << rr[i].rate_per_us;
  }

  // A real saturation knee: P99 at the knee blows past 3x the light-load P99.
  const int knee = serve::knee_index(rr);
  ASSERT_GE(knee, 1) << params.name;
  EXPECT_GT(rr[knee].report.p99_ns, 3.0 * rr[0].report.p99_ns) << params.name;

  // The ablation headline: telemetry placement strictly beats round-robin at
  // round-robin's knee. Paired comparison — identical arrivals at this seed.
  EXPECT_LT(tel[knee].report.p99_ns, rr[knee].report.p99_ns) << params.name;
}

TEST(ServeKnee, Epyc7302SaturatesAndTelemetryWins) {
  expect_knee_and_telemetry_win(topo::epyc7302(), {1.0, 8.0, 20.0, 32.0});
}

TEST(ServeKnee, Epyc9634SaturatesAndTelemetryWins) {
  expect_knee_and_telemetry_win(topo::epyc9634(), {1.0, 8.0, 32.0, 48.0});
}

TEST(ServeSweep, PolicyMajorLayoutAndJobsInvariance) {
  auto sc = knee_sweep_config({1.0, 8.0});
  sc.stop = sim::from_us(60.0);
  sc.warmup = sim::from_us(10.0);
  const auto params = topo::epyc7302();
  sc.jobs = 1;
  const auto serial = serve::sweep(params, sc);
  sc.jobs = 4;
  const auto parallel = serve::sweep(params, sc);
  ASSERT_EQ(serial.size(), 4u);  // 2 policies x 2 rates
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].policy, parallel[i].policy);
    EXPECT_DOUBLE_EQ(serial[i].rate_per_us, parallel[i].rate_per_us);
    EXPECT_EQ(serial[i].report.arrivals, parallel[i].report.arrivals);
    EXPECT_DOUBLE_EQ(serial[i].report.p99_ns, parallel[i].report.p99_ns);
  }
}

TEST(ServeSweep, KneeIndexContract) {
  auto mk = [](std::vector<double> p99s) {
    std::vector<serve::LoadPoint> curve;
    for (double v : p99s) {
      serve::LoadPoint pt;
      pt.report.p99_ns = v;
      curve.push_back(pt);
    }
    return curve;
  };
  EXPECT_EQ(serve::knee_index(std::vector<serve::LoadPoint>{}), -1);
  // Regression: a curve that never crosses factor x baseline used to report
  // its last point as the "knee"; it now reports none.
  EXPECT_EQ(serve::knee_index(mk({100.0, 150.0, 200.0})), -1);
  EXPECT_EQ(serve::knee_index(mk({100.0, 150.0, 301.0, 900.0})), 2);
  EXPECT_EQ(serve::knee_index(mk({100.0, 150.0, 200.0, 250.0}), 2.0), 3);
  // Regression: a leading zero-sample point (warmup window saw no completed
  // requests) used to poison the baseline — anything beats 3 x 0. The first
  // positive P99 is the baseline now, and an all-zero curve has no knee.
  EXPECT_EQ(serve::knee_index(mk({0.0, 100.0, 150.0, 400.0})), 3);
  EXPECT_EQ(serve::knee_index(mk({0.0, 0.0, 100.0, 150.0, 400.0})), 4);
  EXPECT_EQ(serve::knee_index(mk({0.0, 0.0, 0.0})), -1);
  EXPECT_EQ(serve::knee_index(mk({0.0, 100.0, 150.0})), -1);
  // The span overload sees raw P99 values directly.
  EXPECT_EQ(serve::knee_index(std::vector<double>{0.0, 100.0, 500.0}), 2);
}

// ---- GTM: admission, hedging, trace arrivals -------------------------------

TEST(ServeGtm, RejectionsAreADistinctOutcomeNotViolations) {
  // Overload one box behind a tight token bucket. Rejections must land in
  // their own counters (total and per class, summing exactly), and the
  // violation fraction must be computed over *admitted* requests only —
  // "we said no in 0 ns" is the opposite operating point from "we said yes
  // and blew the deadline".
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config(32.0);
  cfg.gtm.admission.mode = gtm::AdmissionMode::kTokenBucket;
  cfg.gtm.admission.rate_per_us = 8.0;
  cfg.gtm.admission.burst = 8.0;
  serve::ServerSim s(e.simulator, e.platform, cfg);
  s.start();
  s.run(sim::from_ms(1.0));
  const auto rep = s.report();
  ASSERT_GT(rep.arrivals, 0u);
  EXPECT_GT(rep.rejected, 0u);
  EXPECT_LT(rep.rejected, rep.arrivals);
  std::uint64_t by_class_rejected = 0;
  std::uint64_t by_class_arrivals = 0;
  for (const auto& c : rep.classes) {
    by_class_rejected += c.rejected;
    by_class_arrivals += c.arrivals;
  }
  EXPECT_EQ(by_class_rejected, rep.rejected);
  EXPECT_EQ(by_class_arrivals, rep.arrivals);
  EXPECT_DOUBLE_EQ(rep.rejected_frac,
                   static_cast<double>(rep.rejected) / static_cast<double>(rep.arrivals));
  // The admitted trickle is far inside capacity: everything admitted
  // completes, and having shed 3/4 of the load the SLO miss rate is tiny.
  EXPECT_EQ(rep.completed, rep.arrivals - rep.rejected);
  EXPECT_LT(rep.slo_violation_frac, 0.05);
}

TEST(ServeGtm, HedgingDuplicatesWithoutDoubleCounting) {
  // An aggressive hedge (P50, warm after 8 samples) under antagonist
  // contention: duplicates must actually be issued, some must win, and
  // first-completion-wins must keep exactly one completion per arrival.
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config(16.0);
  cfg.antagonist = true;
  cfg.gtm.hedge.pct = 50.0;
  cfg.gtm.hedge.min_samples = 8;
  serve::ServerSim s(e.simulator, e.platform, cfg);
  s.start();
  s.run(sim::from_ms(1.0));
  const auto rep = s.report();
  ASSERT_GT(rep.arrivals, 100u);
  EXPECT_GT(rep.hedges, 0u);
  EXPECT_LE(rep.hedge_wins, rep.hedges);
  EXPECT_EQ(rep.completed, rep.arrivals);
  EXPECT_EQ(rep.rejected, 0u);
}

TEST(ServeGtm, SweepBitIdenticalAcrossJobsWithFullBundle) {
  // The lockstep/threading contract must survive every mitigation at once:
  // EDF heap ordering, token-bucket rejections and hedge timers all have to
  // be pure functions of simulated time, never of shard scheduling.
  auto run_once = [](int jobs) {
    serve::SweepConfig sc;
    sc.rates_per_us = {24.0};
    sc.policies = {serve::Policy::kRoundRobin};
    sc.warmup = sim::from_us(25.0);
    sc.stop = sim::from_us(100.0);
    sc.max_drain = sim::from_ms(1.0);
    sc.seed = 1;
    sc.jobs = jobs;
    sc.gtm.discipline = gtm::Discipline::kEdf;
    sc.gtm.admission.mode = gtm::AdmissionMode::kTokenBucket;
    sc.gtm.admission.rate_per_us = 16.0;
    sc.gtm.hedge.pct = 90.0;
    sc.gtm.hedge.min_samples = 16;
    return serve::sweep(topo::epyc7302(), sc);
  };
  const auto serial = run_once(1);
  const auto threaded = run_once(4);
  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(threaded.size(), 1u);
  const auto& a = serial[0].report;
  const auto& b = threaded[0].report;
  ASSERT_GT(a.arrivals, 0u);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.in_slo, b.in_slo);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.hedges, b.hedges);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_DOUBLE_EQ(a.p99_ns, b.p99_ns);
  EXPECT_DOUBLE_EQ(a.mean_ns, b.mean_ns);
  EXPECT_EQ(a.served_per_worker, b.served_per_worker);
}

TEST(ServeGtm, EmptyTraceRunsAndMeasuresNothing) {
  // kTrace with no entries: the arrival loop must never arm, and the run
  // must terminate normally (the platform's periodic noise cannot hold the
  // drain loop open) with an all-zero measured window.
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config();
  cfg.arrival.kind = serve::ArrivalKind::kTrace;
  cfg.arrival.trace_ns = {};
  serve::ServerSim s(e.simulator, e.platform, cfg);
  s.start();
  s.run(sim::from_ms(1.0));
  const auto rep = s.report();
  EXPECT_EQ(rep.arrivals, 0u);
  EXPECT_EQ(rep.completed, 0u);
  EXPECT_DOUBLE_EQ(rep.slo_violation_frac, 0.0);
}

TEST(ServeGtm, TraceEndingBeforeWarmupMeasuresNothing) {
  // Both timestamps land inside the 10 us warmup: the requests run (they
  // load the system) but the measured window must stay empty — exercising
  // the exhausted-schedule path while requests are still in flight.
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config();
  cfg.arrival.kind = serve::ArrivalKind::kTrace;
  cfg.arrival.trace_ns = {100.0, 5000.0};
  serve::ServerSim s(e.simulator, e.platform, cfg);
  s.start();
  s.run(sim::from_ms(1.0));
  const auto rep = s.report();
  EXPECT_EQ(rep.arrivals, 0u);
  EXPECT_EQ(rep.completed, 0u);
}

TEST(ServeGtm, TraceArrivalCountIsExact) {
  // A trace spanning the measured window: every post-warmup timestamp is one
  // measured arrival, no more, no fewer — replay is data, not a distribution.
  measure::Experiment e(topo::epyc7302());
  auto cfg = base_config();
  cfg.arrival.kind = serve::ArrivalKind::kTrace;
  for (int i = 0; i < 100; ++i) {
    cfg.arrival.trace_ns.push_back(5000.0 + 500.0 * i);  // 5 us .. 54.5 us
  }
  serve::ServerSim s(e.simulator, e.platform, cfg);
  s.start();
  s.run(sim::from_ms(1.0));
  const auto rep = s.report();
  // warmup 10 us: entries 0..9 (5.0..9.5 us) load only; 10..99 are measured.
  EXPECT_EQ(rep.arrivals, 90u);
  EXPECT_EQ(rep.completed, 90u);
}

}  // namespace

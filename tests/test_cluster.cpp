// Rack-scale cluster composition: config validation, the zero-forwarding
// equivalence proof (a cluster with local arrivals reproduces standalone
// ServerSim runs exactly), lockstep-lookahead determinism across --jobs,
// link-model edge cases (idle epochs, saturated ingress), front-end steering
// away from an antagonist box, and the .scnc spec parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/spec.hpp"
#include "measure/experiment.hpp"
#include "serve/server.hpp"
#include "spec/spec.hpp"
#include "topo/params.hpp"

namespace {

using namespace scn;

cluster::ClusterConfig base_cluster(int servers, double rate_per_us = 4.0) {
  cluster::ClusterConfig cc;
  for (int i = 0; i < servers; ++i) cc.servers.push_back(topo::epyc7302());
  cc.arrival.kind = serve::ArrivalKind::kPoisson;
  cc.arrival.rate_per_us = rate_per_us;
  cc.warmup = sim::from_us(10.0);
  cc.stop = sim::from_us(60.0);
  cc.max_drain = sim::from_ms(1.0);
  cc.seed = 3;
  return cc;
}

// ---- validation ------------------------------------------------------------

TEST(ClusterValidate, EmptyServerListThrows) {
  cluster::ClusterConfig cc = base_cluster(0);
  EXPECT_THROW(cluster::ClusterSim{cc}, std::invalid_argument);
}

TEST(ClusterValidate, AntagonistIndexMustBeInRange) {
  cluster::ClusterConfig cc = base_cluster(2);
  cc.antagonist_server = 2;
  EXPECT_THROW(cluster::ClusterSim{cc}, std::invalid_argument);
}

TEST(ClusterValidate, MemberServerWindowIsValidated) {
  // ServerSim's warmup < stop check must propagate out of the shard-threaded
  // instance build, not hang or get swallowed.
  cluster::ClusterConfig cc = base_cluster(2);
  cc.jobs = 2;
  cc.warmup = cc.stop;
  EXPECT_THROW(cluster::ClusterSim{cc}, std::invalid_argument);
}

TEST(ClusterValidate, EpochLengthTracksLinkLatency) {
  cluster::ClusterConfig cc = base_cluster(1);
  {
    cluster::ClusterSim c(cc);
    EXPECT_EQ(c.epoch_length(), cc.link.latency);
  }
  cc.link.latency = 0;  // degenerate link: lookahead clamps to one tick
  cluster::ClusterSim c(cc);
  EXPECT_EQ(c.epoch_length(), 1);
}

TEST(ClusterValidate, SharedCatalogDropsCxlOnMixedRacks) {
  cluster::ClusterConfig mixed = base_cluster(1);
  mixed.servers.push_back(topo::epyc9634());
  cluster::ClusterSim a(mixed);
  EXPECT_EQ(a.classes().size(), 2u);  // 7302 has no CXL tier: class dropped

  cluster::ClusterConfig all_cxl = base_cluster(0);
  all_cxl.servers = {topo::epyc9634(), topo::epyc9634()};
  cluster::ClusterSim b(all_cxl);
  EXPECT_EQ(b.classes().size(), 3u);
}

// ---- zero-forwarding equivalence -------------------------------------------

void expect_same_server_report(const serve::Report& a, const serve::Report& b,
                               int server) {
  EXPECT_EQ(a.arrivals, b.arrivals) << "server " << server;
  EXPECT_EQ(a.completed, b.completed) << "server " << server;
  EXPECT_EQ(a.in_slo, b.in_slo) << "server " << server;
  EXPECT_DOUBLE_EQ(a.achieved_per_us, b.achieved_per_us) << "server " << server;
  EXPECT_DOUBLE_EQ(a.goodput_per_us, b.goodput_per_us) << "server " << server;
  EXPECT_DOUBLE_EQ(a.mean_ns, b.mean_ns) << "server " << server;
  EXPECT_DOUBLE_EQ(a.p50_ns, b.p50_ns) << "server " << server;
  EXPECT_DOUBLE_EQ(a.p99_ns, b.p99_ns) << "server " << server;
  EXPECT_DOUBLE_EQ(a.p999_ns, b.p999_ns) << "server " << server;
  EXPECT_EQ(a.served_per_worker, b.served_per_worker) << "server " << server;
}

TEST(ClusterEquivalence, LocalArrivalsMatchStandaloneServers) {
  // Acceptance criterion: with forwarding disabled (each member runs its own
  // arrival process) a 4-server cluster is *exactly* four standalone
  // ServerSim runs at the member seeds — the epoch-composed advancement
  // executes the same event set as a monolithic run.
  cluster::ClusterConfig cc = base_cluster(4, 2.0);
  cc.local_arrivals = true;
  cc.antagonist_server = 1;
  cc.jobs = 4;
  cluster::ClusterSim c(cc);
  c.run();
  const auto rep = c.report();
  ASSERT_EQ(rep.per_server.size(), 4u);

  for (int i = 0; i < 4; ++i) {
    measure::Experiment e(topo::epyc7302());
    serve::ServerConfig sc;
    sc.policy = cc.placement;
    sc.arrival = cc.arrival;
    sc.classes = c.classes();
    sc.warmup = cc.warmup;
    sc.stop = cc.stop;
    sc.seed = cluster::server_seed(cc.seed, i);
    sc.antagonist = (i == cc.antagonist_server);
    serve::ServerSim standalone(e.simulator, e.platform, std::move(sc));
    standalone.start();
    standalone.run(cc.max_drain);
    expect_same_server_report(rep.per_server[static_cast<std::size_t>(i)],
                              standalone.report(), i);
  }
  EXPECT_EQ(rep.forwarded, 0u);
}

// ---- determinism -----------------------------------------------------------

void expect_same_cluster_report(const cluster::ClusterReport& a,
                                const cluster::ClusterReport& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.in_slo, b.in_slo);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.hedges, b.hedges);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_DOUBLE_EQ(a.achieved_per_us, b.achieved_per_us);
  EXPECT_DOUBLE_EQ(a.goodput_per_us, b.goodput_per_us);
  EXPECT_DOUBLE_EQ(a.mean_ns, b.mean_ns);
  EXPECT_DOUBLE_EQ(a.p50_ns, b.p50_ns);
  EXPECT_DOUBLE_EQ(a.p99_ns, b.p99_ns);
  EXPECT_DOUBLE_EQ(a.p999_ns, b.p999_ns);
  EXPECT_DOUBLE_EQ(a.jain_server_fairness, b.jain_server_fairness);
  EXPECT_DOUBLE_EQ(a.link_wait_mean_ns, b.link_wait_mean_ns);
  EXPECT_EQ(a.forwarded_per_server, b.forwarded_per_server);
}

TEST(ClusterDeterminism, JobsOneAndFourBitIdentical) {
  auto run_once = [](int jobs) {
    cluster::ClusterConfig cc = base_cluster(2, 8.0);
    cc.lb = cluster::LbPolicy::kTelemetry;
    cc.antagonist_server = 0;
    cc.jobs = jobs;
    cluster::ClusterSim c(cc);
    c.run();
    return c.report();
  };
  const auto serial = run_once(1);
  const auto threaded = run_once(4);
  const auto again = run_once(4);
  ASSERT_GT(serial.completed, 50u);
  expect_same_cluster_report(serial, threaded);
  expect_same_cluster_report(threaded, again);
}

// ---- engine equivalence ----------------------------------------------------
//
// The fused engine (batched barriers + idle-epoch fast-skip) must be an
// implementation detail: every observable number equals the per-epoch
// reference engine's, at every worker count, including the edge cases where
// the batching math is most likely to be off by one window.

cluster::ClusterReport run_engine(cluster::ClusterConfig cc, cluster::Engine engine,
                                  int jobs) {
  cc.engine = engine;
  cc.jobs = jobs;
  cluster::ClusterSim c(cc);
  c.run();
  return c.report();
}

TEST(ClusterEngine, FusedMatchesStepAcrossJobs) {
  cluster::ClusterConfig cc = base_cluster(3, 8.0);
  cc.lb = cluster::LbPolicy::kTelemetry;  // exercises the gmi-baseline path
  cc.antagonist_server = 0;
  const auto step = run_engine(cc, cluster::Engine::kStep, 1);
  ASSERT_GT(step.completed, 50u);
  for (int jobs : {1, 4, 16}) {
    expect_same_cluster_report(step, run_engine(cc, cluster::Engine::kFused, jobs));
  }
  // And the mechanism is actually engaged where fusing can apply: telemetry
  // routes (and samples) at every boundary, but round-robin never reads
  // server state, so its whole measured window collapses into one barrier.
  cc.lb = cluster::LbPolicy::kRoundRobin;
  const auto step_rr = run_engine(cc, cluster::Engine::kStep, 1);
  const auto fused_rr = run_engine(cc, cluster::Engine::kFused, 1);
  EXPECT_EQ(step_rr.epochs, fused_rr.epochs);  // the accounting is engine-invariant
  EXPECT_LT(fused_rr.barriers, step_rr.barriers);
}

TEST(ClusterEngine, ZeroLatencyLinkOneTickEpochs) {
  // Degenerate link: the lookahead clamps to one-tick epochs, so the fused
  // engine's window math runs at its finest possible granularity. Keep the
  // simulated window tiny — the reference engine walks every single tick.
  for (const auto lb : {cluster::LbPolicy::kRoundRobin, cluster::LbPolicy::kLeastOutstanding}) {
    cluster::ClusterConfig cc = base_cluster(2, 100.0);
    cc.lb = lb;
    cc.link.latency = 0;
    cc.warmup = sim::from_ns(5.0);
    cc.stop = sim::from_ns(105.0);
    const auto step = run_engine(cc, cluster::Engine::kStep, 1);
    ASSERT_GT(step.arrivals, 0u);
    expect_same_cluster_report(step, run_engine(cc, cluster::Engine::kFused, 1));
    expect_same_cluster_report(step, run_engine(cc, cluster::Engine::kFused, 4));
  }
}

TEST(ClusterEngine, SingleServerMatches) {
  // One box: every forward lands on server 0 and the fast-skip min() runs
  // over a single next-event time.
  cluster::ClusterConfig cc = base_cluster(1, 4.0);
  cc.lb = cluster::LbPolicy::kLeastOutstanding;
  const auto step = run_engine(cc, cluster::Engine::kStep, 1);
  ASSERT_GT(step.completed, 0u);
  expect_same_cluster_report(step, run_engine(cc, cluster::Engine::kFused, 1));
  expect_same_cluster_report(step, run_engine(cc, cluster::Engine::kFused, 2));
}

TEST(ClusterEngine, SkipLandsExactlyOnStopAndDeadline) {
  // stop is an exact multiple of the epoch and the drain budget truncates
  // while requests are still in flight, so both the measurement cutoff and
  // the drain deadline sit exactly on computed batch boundaries.
  cluster::ClusterConfig cc = base_cluster(2, 16.0);
  cc.link.latency = sim::from_ns(800.0);
  cc.warmup = sim::from_us(8.0);   // 10 epochs
  cc.stop = sim::from_us(40.0);    // 50 epochs exactly
  cc.max_drain = sim::from_ns(1600.0);  // 2 epochs: deadline cuts the drain short
  const auto step = run_engine(cc, cluster::Engine::kStep, 1);
  ASSERT_GT(step.arrivals, 0u);
  ASSERT_LT(step.completed, step.arrivals);  // the deadline really truncated
  expect_same_cluster_report(step, run_engine(cc, cluster::Engine::kFused, 1));
  expect_same_cluster_report(step, run_engine(cc, cluster::Engine::kFused, 4));
}

TEST(ClusterEngine, FusedSpeedupOnSmallLatencyRack) {
  // The acceptance bar for the fused engine: a 16-box rack at a small link
  // latency (many epochs, light per-epoch work) must run at least 3x faster
  // than the per-epoch reference. Both runs execute in this process on the
  // same machine, so the ratio is robust to slow or sanitized builds; retry
  // a few times anyway to ride out scheduler noise.
  cluster::ClusterConfig cc = base_cluster(16, 1.0);
  cc.lb = cluster::LbPolicy::kRoundRobin;
  cc.link.latency = sim::from_ns(1.0);  // 60k one-nanosecond epochs
  double best = 0.0;
  for (int attempt = 0; attempt < 3 && best < 3.0; ++attempt) {
    const auto wall = [&cc](cluster::Engine engine) {
      cluster::ClusterConfig run_cc = cc;
      run_cc.engine = engine;
      cluster::ClusterSim c(run_cc);
      const auto t0 = std::chrono::steady_clock::now();
      c.run();
      const auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double>(t1 - t0).count();
    };
    const double fused_s = wall(cluster::Engine::kFused);
    const double step_s = wall(cluster::Engine::kStep);
    best = std::max(best, fused_s > 0.0 ? step_s / fused_s : 1e9);
  }
  RecordProperty("fused_speedup", std::to_string(best));
  std::printf("fused engine speedup over step: %.1fx\n", best);
  EXPECT_GE(best, 3.0) << "fused engine speedup regressed";
}

// ---- link model edge cases -------------------------------------------------

TEST(ClusterLink, IdleEpochsWithNoForwardsInFlight) {
  // A trickle of arrivals: most lookahead epochs route nothing and most
  // boundaries see zero in-flight forwards, which must not stall the
  // lockstep loop or lose requests.
  cluster::ClusterConfig cc = base_cluster(2, 0.2);
  cc.warmup = sim::from_us(5.0);
  cc.stop = sim::from_us(45.0);
  cluster::ClusterSim c(cc);
  c.run();
  const auto rep = c.report();
  EXPECT_GT(rep.epochs, 40u);  // 800 ns epochs over >= 40 us
  ASSERT_GT(rep.arrivals, 0u);
  EXPECT_EQ(rep.completed, rep.arrivals);
  EXPECT_GE(rep.forwarded, rep.arrivals);  // forwarded counts warmup traffic too
}

TEST(ClusterLink, SaturatedIngressQueuesForwards) {
  // Serialization slower than the arrival rate: forwards must FIFO-queue on
  // the member's ingress link and the measured queue wait must show it.
  cluster::ClusterConfig cc = base_cluster(2, 1.0);
  cc.warmup = sim::from_us(5.0);
  cc.stop = sim::from_us(30.0);
  cc.link.bytes_per_ns = 0.05;  // 512 B take 10.24 us on the wire
  cluster::ClusterSim c(cc);
  c.run();
  const auto rep = c.report();
  ASSERT_GT(rep.arrivals, 0u);
  EXPECT_EQ(rep.completed, rep.arrivals);  // drain still clears everything
  EXPECT_GT(rep.link_wait_mean_ns, 0.0);
  // The wire time dominates service: e2e must reflect the link, not hide it.
  EXPECT_GT(rep.p50_ns, 10240.0);
}

// ---- front-end steering ----------------------------------------------------

TEST(ClusterSteering, RoundRobinSplitsEvenly) {
  cluster::ClusterConfig cc = base_cluster(2, 8.0);
  cc.lb = cluster::LbPolicy::kRoundRobin;
  cluster::ClusterSim c(cc);
  c.run();
  const auto rep = c.report();
  ASSERT_EQ(rep.forwarded_per_server.size(), 2u);
  const auto a = rep.forwarded_per_server[0];
  const auto b = rep.forwarded_per_server[1];
  EXPECT_LE(a > b ? a - b : b - a, 1u);
}

TEST(ClusterSteering, TelemetrySteersAwayFromAntagonistServer) {
  // Server 0 hosts the batch antagonist. Its queue depths look ordinary at
  // this rate, but its GMI deltas are saturated — only the telemetry policy
  // sees that, and it must shift forwards toward server 1.
  cluster::ClusterConfig cc = base_cluster(2, 8.0);
  cc.lb = cluster::LbPolicy::kTelemetry;
  cc.antagonist_server = 0;
  cluster::ClusterSim c(cc);
  c.run();
  const auto rep = c.report();
  ASSERT_EQ(rep.forwarded_per_server.size(), 2u);
  EXPECT_LT(rep.forwarded_per_server[0], rep.forwarded_per_server[1]);
}

TEST(ClusterSteering, LeastOutstandingAvoidsTheSlowBox) {
  // Deep queues: the antagonist box completes slower, so join-shortest-
  // outstanding should send it the smaller share.
  cluster::ClusterConfig cc = base_cluster(2, 24.0);
  cc.lb = cluster::LbPolicy::kLeastOutstanding;
  cc.antagonist_server = 0;
  cluster::ClusterSim c(cc);
  c.run();
  const auto rep = c.report();
  ASSERT_EQ(rep.forwarded_per_server.size(), 2u);
  EXPECT_LT(rep.forwarded_per_server[0], rep.forwarded_per_server[1]);
}

// ---- .scnc spec parsing ----------------------------------------------------

TEST(ClusterSpec, ParsesInlineText) {
  const auto spec = cluster::parse_cluster(
      "# rack\n"
      "[cluster]\n"
      "servers = epyc7302 epyc9634\n"
      "link_latency_ns = 500\n"
      "link_bytes_per_ns = 25\n"
      "request_bytes = 256\n",
      "inline");
  ASSERT_EQ(spec.servers.size(), 2u);
  EXPECT_EQ(spec.servers[0].name, topo::epyc7302().name);
  EXPECT_EQ(spec.servers[1].name, topo::epyc9634().name);
  EXPECT_EQ(spec.link.latency, sim::from_ns(500.0));
  EXPECT_DOUBLE_EQ(spec.link.bytes_per_ns, 25.0);
  EXPECT_DOUBLE_EQ(spec.link.request_bytes, 256.0);
}

TEST(ClusterSpec, PlacementKeyIsParsedAndValidated) {
  // Omitted: the historical default.
  const auto dflt = cluster::parse_cluster("[cluster]\nservers = epyc7302\n", "t");
  EXPECT_EQ(dflt.placement, "gmi-local");
  // Present: any serve::parse_policy word, stored verbatim.
  const auto rr = cluster::parse_cluster(
      "[cluster]\nservers = epyc7302\nplacement = round-robin\n", "t");
  EXPECT_EQ(rr.placement, "round-robin");
  ASSERT_TRUE(serve::parse_policy(rr.placement).has_value());
  // Vocabulary is checked at parse time, like every other semantic error.
  EXPECT_THROW(cluster::parse_cluster(
                   "[cluster]\nservers = epyc7302\nplacement = sideways\n", "t"),
               spec::Error);
  EXPECT_FALSE(cluster::validate_cluster(rr).size());
  auto bad = rr;
  bad.placement = "sideways";
  EXPECT_EQ(cluster::validate_cluster(bad).size(), 1u);
  // The registry carries dump/diff too: a changed placement shows up by key.
  const auto d = cluster::diff_cluster(rr, bad);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], "[cluster] placement: round-robin != sideways");
  EXPECT_NE(cluster::dump_cluster(rr).find("placement = round-robin"), std::string::npos);
}

TEST(ClusterSpec, RejectsMalformedInput) {
  EXPECT_THROW(cluster::parse_cluster("servers = epyc7302\n", "t"), spec::Error);
  EXPECT_THROW(cluster::parse_cluster("[cluster]\n", "t"), spec::Error);
  EXPECT_THROW(cluster::parse_cluster("[cluster]\nservers =\n", "t"), spec::Error);
  EXPECT_THROW(cluster::parse_cluster("[cluster]\nservers = nosuch\n", "t"),
               spec::Error);
  EXPECT_THROW(
      cluster::parse_cluster("[cluster]\nservers = epyc7302\nbogus_key = 1\n", "t"),
      spec::Error);
  EXPECT_THROW(cluster::parse_cluster(
                   "[cluster]\nservers = epyc7302\nlink_latency_ns = -1\n", "t"),
               spec::Error);
  EXPECT_THROW(cluster::parse_cluster("[cluster]\nservers = epyc7302\n"
                                      "request_bytes = 64\nrequest_bytes = 64\n",
                                      "t"),
               spec::Error);
  // [cluster] obeys the duplicate-section and duplicate-key rules every
  // section shares.
  EXPECT_THROW(cluster::parse_cluster("[cluster]\nservers = epyc7302\n"
                                      "[cluster]\nservers = epyc7302\n",
                                      "t"),
               spec::Error);
  EXPECT_THROW(cluster::parse_cluster("[cluster]\nservers = epyc7302\n"
                                      "servers = epyc9634\n",
                                      "t"),
               spec::Error);
}

TEST(ClusterSpec, LoadsTheCommittedRackExample) {
  const auto spec =
      cluster::load_cluster(std::string(SCN_SPECS_DIR) + "/rack-2x9634-2x7302.scnc");
  ASSERT_EQ(spec.servers.size(), 4u);
  EXPECT_EQ(spec.servers[0].name, topo::epyc9634().name);
  EXPECT_EQ(spec.servers[3].name, topo::epyc7302().name);
  EXPECT_EQ(spec.link.latency, sim::from_ns(800.0));
  EXPECT_DOUBLE_EQ(spec.link.bytes_per_ns, 12.5);

  // And the loaded spec actually runs.
  cluster::ClusterConfig cc;
  cc.servers = {spec.servers[2], spec.servers[3]};  // the two 7302s: cheap
  cc.link = spec.link;
  cc.arrival.kind = serve::ArrivalKind::kPoisson;
  cc.arrival.rate_per_us = 2.0;
  cc.warmup = sim::from_us(5.0);
  cc.stop = sim::from_us(25.0);
  cc.max_drain = sim::from_ms(1.0);
  cluster::ClusterSim c(cc);
  c.run();
  EXPECT_GT(c.report().completed, 0u);
}

TEST(ClusterSpec, GtmSectionsRoundTripThroughDump) {
  const char* text =
      "[cluster]\n"
      "servers = epyc7302 epyc7302\n"
      "link_latency_ns = 800\n"
      "[gtm]\n"
      "discipline = edf\n"
      "admission = token-bucket\n"
      "hedge_pct = 95\n"
      "[arrivals]\n"
      "kind = mmpp\n"
      "rate_per_us = 16\n";
  const auto spec = cluster::parse_cluster(text, "inline");
  EXPECT_EQ(spec.gtm.discipline, "edf");
  EXPECT_EQ(spec.gtm.admission, "token-bucket");
  EXPECT_DOUBLE_EQ(spec.gtm.hedge_pct, 95.0);
  EXPECT_EQ(spec.gtm.arrival_kind, "mmpp");
  EXPECT_DOUBLE_EQ(spec.gtm.rate_per_us, 16.0);

  // Canonical-form fixpoint, the same contract the platform schema honors:
  // dump(parse(dump(x))) == dump(x), and a re-parsed dump diffs clean.
  const auto dumped = cluster::dump_cluster(spec);
  const auto back = cluster::parse_cluster(dumped, "dump");
  EXPECT_TRUE(spec.gtm == back.gtm);
  EXPECT_EQ(spec.server_tokens, back.server_tokens);
  EXPECT_EQ(cluster::dump_cluster(back), dumped);
  EXPECT_TRUE(cluster::diff_cluster(spec, back).empty());

  auto changed = back;
  changed.gtm.discipline = "fifo";
  const auto d = cluster::diff_cluster(spec, changed);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], "[gtm] discipline: edf != fifo");
}

TEST(ClusterSpec, LoadsTheCommittedGtmRack) {
  const auto spec =
      cluster::load_cluster(std::string(SCN_SPECS_DIR) + "/rack-2x7302-gtm.scnc");
  ASSERT_EQ(spec.servers.size(), 2u);
  EXPECT_EQ(spec.servers[0].name, topo::epyc7302().name);
  EXPECT_EQ(spec.gtm.discipline, "edf");
  EXPECT_EQ(spec.gtm.admission, "token-bucket");
  EXPECT_DOUBLE_EQ(spec.gtm.admission_rate_per_us, 24.0);
  EXPECT_DOUBLE_EQ(spec.gtm.hedge_pct, 95.0);
  EXPECT_EQ(spec.gtm.arrival_kind, "mmpp");

  // And the declarative form converts to a runnable policy bundle.
  const auto policy = gtm::to_policy(spec.gtm);
  EXPECT_EQ(policy.discipline, gtm::Discipline::kEdf);
  EXPECT_TRUE(policy.admitting());
  EXPECT_TRUE(policy.hedging());
  const auto arrival = gtm::to_arrival(spec.gtm);
  EXPECT_EQ(arrival.kind, serve::ArrivalKind::kMmpp);
}

// ---- GTM policy plumbing ---------------------------------------------------

TEST(ClusterGtm, RejectionAccountingSumsOverServers) {
  // Admission-controlled overload: the cluster totals must be exactly the
  // per-server sums, the violation denominator must exclude rejections, and
  // everything the bucket admitted must drain to completion.
  cluster::ClusterConfig cc = base_cluster(2, 48.0);
  cc.gtm.admission.mode = gtm::AdmissionMode::kTokenBucket;
  cc.gtm.admission.rate_per_us = 12.0;  // per server: far under box capacity
  cluster::ClusterSim c(cc);
  c.run();
  const auto rep = c.report();
  ASSERT_GT(rep.arrivals, 0u);
  EXPECT_GT(rep.rejected, 0u);
  std::uint64_t per_server_rejected = 0;
  for (const auto& r : rep.per_server) per_server_rejected += r.rejected;
  EXPECT_EQ(per_server_rejected, rep.rejected);
  EXPECT_DOUBLE_EQ(rep.rejected_frac,
                   static_cast<double>(rep.rejected) / static_cast<double>(rep.arrivals));
  EXPECT_EQ(rep.completed, rep.arrivals - rep.rejected);
  // The violation denominator is admitted = arrivals - rejected: a shed
  // request is not a missed deadline.
  EXPECT_DOUBLE_EQ(rep.slo_violation_frac,
                   1.0 - static_cast<double>(rep.in_slo) /
                             static_cast<double>(rep.arrivals - rep.rejected));
}

TEST(ClusterGtm, JobsBitIdenticalWithFullBundle) {
  // The lockstep contract under the whole mitigation stack at once — EDF
  // heaps, token buckets, hedge timers, bursty MMPP arrivals — at any shard
  // count. This is the in-process twin of the serve.hedge.determinism ctest.
  auto run_once = [](int jobs) {
    cluster::ClusterConfig cc = base_cluster(2, 60.0);
    cc.lb = cluster::LbPolicy::kRoundRobin;
    cc.placement = serve::Policy::kRoundRobin;
    cc.antagonist_server = 0;
    cc.arrival.kind = serve::ArrivalKind::kMmpp;
    cc.gtm.discipline = gtm::Discipline::kEdf;
    cc.gtm.admission.mode = gtm::AdmissionMode::kTokenBucket;
    // Admit above box capacity but below the offered rate: the bucket still
    // sheds MMPP bursts (rejected > 0) while the admitted stream overloads
    // the workers, pushing residence past the class SLOs so the hedge timers
    // fire too (hedges > 0). Both mitigations must be live for the
    // determinism claim to mean anything.
    cc.gtm.admission.rate_per_us = 24.0;
    cc.gtm.hedge.pct = 50.0;
    // Keep the estimator cold so every hedge uses the SLO fallback: under
    // overload plenty of requests outlive SLO + link latency, which makes
    // hedges fire unconditionally — this test pins determinism, not hedge
    // efficacy (the quantile path is covered by ServeGtm and the ablation).
    cc.gtm.hedge.min_samples = 1000000;
    cc.jobs = jobs;
    cluster::ClusterSim c(cc);
    c.run();
    return c.report();
  };
  const auto serial = run_once(1);
  const auto threaded = run_once(2);
  ASSERT_GT(serial.completed, 50u);
  EXPECT_GT(serial.hedges, 0u);
  EXPECT_GT(serial.rejected, 0u);
  expect_same_cluster_report(serial, threaded);
}

TEST(ClusterGtm, TraceExhaustionDoesNotStallLockstep) {
  // A two-entry trace that runs dry inside warmup: the front end must stop
  // routing (no livelock on a far-future sentinel), the drain loop must
  // still terminate, and the measured window must be empty.
  cluster::ClusterConfig cc = base_cluster(2);
  cc.arrival.kind = serve::ArrivalKind::kTrace;
  cc.arrival.trace_ns = {100.0, 5000.0};
  cluster::ClusterSim c(cc);
  c.run();
  const auto rep = c.report();
  EXPECT_EQ(rep.arrivals, 0u);
  EXPECT_EQ(rep.completed, 0u);
  EXPECT_EQ(rep.forwarded, 2u);  // both warmup entries were still routed

  cluster::ClusterConfig empty = base_cluster(2);
  empty.arrival.kind = serve::ArrivalKind::kTrace;
  empty.arrival.trace_ns = {};
  cluster::ClusterSim c2(empty);
  c2.run();
  EXPECT_EQ(c2.report().forwarded, 0u);
}

TEST(ClusterGtm, CommittedBundleCutsOverloadTailVsFifo) {
  // The ablation acceptance criterion, enforced: on the committed
  // rack-2x7302-gtm.scnc bundle (EDF + token bucket + P95 hedging), driving
  // the rack well past its knee must yield a far lower P99 than the
  // unmitigated FIFO baseline on the identical arrival sequence — admission
  // sheds the excess instead of letting queues grow without bound.
  const auto spec =
      cluster::load_cluster(std::string(SCN_SPECS_DIR) + "/rack-2x7302-gtm.scnc");
  auto run_once = [&spec](const gtm::TrafficPolicy& policy) {
    cluster::ClusterConfig cc;
    cc.servers = spec.servers;
    cc.link = spec.link;
    // At the spec's 12.5 B/ns the 512 B ingress serialization caps each
    // server at ~24.4 req/us, so past that rate the NIC queue dominates P99
    // identically for every policy — admission happens at the server, after
    // the link. Open the link so the ablation isolates server-side queueing
    // (the link regime itself is covered by the ClusterLink tests).
    cc.link.bytes_per_ns = 125.0;
    cc.lb = cluster::LbPolicy::kRoundRobin;
    cc.placement = serve::Policy::kRoundRobin;
    cc.gtm = policy;
    cc.arrival = gtm::to_arrival(spec.gtm);
    cc.arrival.rate_per_us = 96.0;  // ~3x the admitted budget
    cc.warmup = sim::from_us(25.0);
    cc.stop = sim::from_us(100.0);
    cc.max_drain = sim::from_ms(1.0);
    cc.seed = 1;
    cluster::ClusterSim c(cc);
    c.run();
    return c.report();
  };
  const auto fifo = run_once(gtm::TrafficPolicy{});
  const auto bundle = run_once(gtm::to_policy(spec.gtm));
  ASSERT_GT(fifo.arrivals, 1000u);
  EXPECT_EQ(fifo.rejected, 0u);
  EXPECT_GT(bundle.rejected, 0u);
  // The headline: the mitigation bundle cuts the overload-knee P99 by a
  // wide margin (measured ~15x; assert a conservative 2x).
  ASSERT_GT(fifo.p99_ns, 0.0);
  ASSERT_GT(bundle.p99_ns, 0.0);
  EXPECT_LT(bundle.p99_ns, 0.5 * fifo.p99_ns);
  // And it converts the freed capacity into SLO compliance.
  EXPECT_LT(bundle.slo_violation_frac, fifo.slo_violation_frac);
}

}  // namespace

// Rack-scale serving sweep: N chiplet servers behind a front-end balancer.
//
// For each cluster composition, the open-loop request mix is offered at
// increasing cluster-wide rates while server 0 runs the CCD0 batch
// antagonist. Three front-end policies compete on the identical arrival
// sequence: blind cluster round-robin, join-shortest-outstanding, and the
// telemetry policy steering by per-server GMI byte deltas sampled every
// lookahead epoch. Inside each box the existing gmi-local placement runs,
// so this sweeps the fourth (cross-server) policy axis on top of the
// per-CCX one. The table prints the merged P99 curve, SLO goodput,
// per-server fairness and NIC-ingress queueing per policy plus each
// curve's saturation knee.
//
// Output is byte-identical for any --jobs value: the grid runs points
// sequentially and hands --jobs to ClusterSim's pinned shard executor, so
// the golden check exercises the in-cluster parallel path.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/options.hpp"
#include "cluster/cluster.hpp"
#include "cluster/spec.hpp"
#include "serve/sweep.hpp"

namespace {

using namespace scn;

struct Composition {
  std::string name;
  std::vector<topo::PlatformParams> servers;
  cluster::LinkConfig link;
  /// GTM policy bundle and arrival schedule, from the .scnc spec's
  /// [gtm]/[arrivals] sections plus any CLI overrides. Defaults reproduce
  /// the pre-GTM bench byte-for-byte.
  gtm::TrafficPolicy gtm;
  serve::ArrivalConfig arrival;
  /// Tiered-memory config from the spec's [tier] section plus CLI overrides;
  /// the kOff default adds nothing to the output.
  tier::TierConfig tier;
};

std::vector<Composition> default_compositions(bool quick) {
  std::vector<Composition> out;
  Composition small;
  small.name = "2x epyc7302";
  small.servers = {spec::lookup("epyc7302"), spec::lookup("epyc7302")};
  out.push_back(std::move(small));
  if (!quick) {
    Composition big;
    big.name = "2x epyc9634";
    big.servers = {spec::lookup("epyc9634"), spec::lookup("epyc9634")};
    out.push_back(std::move(big));
  }
  return out;
}

// Offered-load grid, scaled by the number of servers so a --servers 16 row
// sweeps through its knee instead of idling far below it. The per-server
// points are exactly the historical 2-box grid divided by two, so 2-box
// compositions (and their committed goldens) are byte-identical.
std::vector<double> rate_grid(const Composition& comp, bool quick) {
  const double n = static_cast<double>(comp.servers.size());
  auto scaled = [n](std::initializer_list<double> per_server) {
    std::vector<double> rates;
    for (const double r : per_server) rates.push_back(r * n);
    return rates;
  };
  if (quick) return scaled({1.0, 8.0, 24.0});
  int ccds = 0;
  for (const auto& p : comp.servers) ccds += p.ccd_count;
  // Same shape as the single-server grid, extended until the aggregate
  // round-robin knee is inside it (~15 req/us per 4-CCD box of this mix);
  // big-CCD boxes (9634-class) get two extra points for the same reason.
  std::vector<double> rates = scaled({0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0});
  if (ccds > 4 * static_cast<int>(comp.servers.size())) {
    rates.push_back(32.0 * n);
    rates.push_back(48.0 * n);
  }
  return rates;
}

void run_composition(const Composition& comp, const serve::Policy placement,
                     const cluster::Engine engine, bool quick, int jobs, std::uint64_t seed) {
  const std::vector<cluster::LbPolicy> lbs = {cluster::LbPolicy::kRoundRobin,
                                              cluster::LbPolicy::kLeastOutstanding,
                                              cluster::LbPolicy::kTelemetry};
  const auto rates = rate_grid(comp, quick);

  // Grid points run sequentially; per-point cluster seeds are keyed by the
  // rate index only, so every front-end policy replays the identical arrival
  // sequence at each rate (paired comparison, as in bench_serving).
  std::vector<std::vector<cluster::ClusterReport>> curves;
  for (const cluster::LbPolicy lb : lbs) {
    std::vector<cluster::ClusterReport> curve;
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
      cluster::ClusterConfig cc;
      cc.servers = comp.servers;
      cc.link = comp.link;
      cc.lb = lb;
      cc.placement = placement;
      cc.gtm = comp.gtm;
      cc.tier = comp.tier;
      cc.arrival = comp.arrival;
      cc.arrival.rate_per_us = rates[ri];
      cc.antagonist_server = 0;
      cc.seed = exec::point_seed(seed, static_cast<std::uint64_t>(ri));
      cc.jobs = jobs;
      cc.engine = engine;
      if (quick) {
        cc.warmup = sim::from_us(25.0);
        cc.stop = sim::from_us(100.0);
        cc.max_drain = sim::from_ms(1.0);
      }
      cluster::ClusterSim sim(std::move(cc));
      sim.run();
      curve.push_back(sim.report());
    }
    curves.push_back(std::move(curve));
  }

  bench::subheading(comp.name + " (requests/us vs ns; antagonist on server 0, CCD 0)");
  for (std::size_t li = 0; li < lbs.size(); ++li) {
    const auto& curve = curves[li];
    std::printf("  lb %-17s  %6s %8s %8s %10s %8s %6s %8s\n", cluster::to_string(lbs[li]), "rate",
                "goodput", "p50", "p99", "viol%", "jain", "link-ns");
    std::vector<double> p99;
    for (std::size_t ri = 0; ri < curve.size(); ++ri) {
      const auto& rep = curve[ri];
      std::printf("    %-19s  %6.1f %8.2f %8.1f %10.1f %7.1f%% %6.3f %8.1f\n", "", rates[ri],
                  rep.goodput_per_us, rep.p50_ns, rep.p99_ns, rep.slo_violation_frac * 100.0,
                  rep.jain_server_fairness, rep.link_wait_mean_ns);
      p99.push_back(rep.p99_ns);
    }
    const int knee = serve::knee_index(std::span<const double>(p99));
    if (knee >= 0) {
      std::printf("    knee: %.1f req/us (p99 %.1f ns)\n", rates[static_cast<std::size_t>(knee)],
                  p99[static_cast<std::size_t>(knee)]);
    } else {
      std::printf("    knee: none (p99 never exceeded 3x baseline)\n");
    }
  }

  // Ablation summary at the cluster round-robin knee, the paired comparison
  // the telemetry front end is built to win; without a knee in the swept
  // range, compare at the top rate and say so.
  std::vector<double> rr_p99;
  for (const auto& rep : curves.front()) rr_p99.push_back(rep.p99_ns);
  const int knee = serve::knee_index(std::span<const double>(rr_p99));
  const auto at = static_cast<std::size_t>(knee >= 0 ? knee : static_cast<int>(rates.size()) - 1);
  if (knee >= 0) {
    std::printf("  at cluster-rr knee (%.1f req/us):\n", rates[at]);
  } else {
    std::printf("  cluster-rr knee: none; comparing at top rate (%.1f req/us):\n", rates[at]);
  }
  for (std::size_t li = 0; li < lbs.size(); ++li) {
    const auto& rep = curves[li][at];
    std::printf("    %-17s p99 %10.1f ns  goodput %6.2f req/us  viol %5.1f%%  srv0 fwd %4.1f%%\n",
                cluster::to_string(lbs[li]), rep.p99_ns, rep.goodput_per_us,
                rep.slo_violation_frac * 100.0,
                rep.forwarded > 0 ? 100.0 * static_cast<double>(rep.forwarded_per_server[0]) /
                                        static_cast<double>(rep.forwarded)
                                  : 0.0);
  }
  // Cluster-wide tiering line, printed only when the tier is live so the
  // default output stays byte-identical.
  if (comp.tier.mode != tier::Mode::kOff) {
    for (std::size_t li = 0; li < lbs.size(); ++li) {
      const auto& rep = curves[li][at];
      std::printf("    %-17s tier hit %5.1f%%  promo %llu  demo %llu  moved %.1f KB\n",
                  cluster::to_string(lbs[li]), rep.tier_hit_ratio * 100.0,
                  static_cast<unsigned long long>(rep.tier_promotions),
                  static_cast<unsigned long long>(rep.tier_demotions),
                  static_cast<double>(rep.tier_migrated_bytes) / 1024.0);
    }
  }
}

// The cluster-level GTM mitigation ablation: every bundle replays the
// identical front-end arrival sequence through cluster round-robin with
// round-robin placement inside each box (mixed-class worker queues are the
// regime where queue ordering matters; gmi-local leaves single-class queues
// where priority and EDF degenerate to FIFO), so the columns isolate what
// the mitigation itself buys. Printed only under --mitigations.
void run_mitigations(const Composition& comp, const cluster::Engine engine, bool quick, int jobs,
                     std::uint64_t seed) {
  const serve::Policy placement = serve::Policy::kRoundRobin;
  struct Bundle {
    const char* name;
    gtm::TrafficPolicy p;
  };
  std::vector<Bundle> bundles;
  bundles.push_back({"fifo", {}});
  {
    gtm::TrafficPolicy p;
    p.discipline = gtm::Discipline::kEdf;
    bundles.push_back({"edf", p});
  }
  {
    gtm::TrafficPolicy p;
    p.admission.mode = gtm::AdmissionMode::kTokenBucket;
    bundles.push_back({"admit-tb", p});
  }
  {
    gtm::TrafficPolicy p;
    p.hedge.pct = 95.0;
    bundles.push_back({"hedge-95", p});
  }
  {
    gtm::TrafficPolicy p;
    p.discipline = gtm::Discipline::kEdf;
    p.admission.mode = gtm::AdmissionMode::kTokenBucket;
    p.hedge.pct = 95.0;
    bundles.push_back({"edf+tb+hedge", p});
  }
  const auto rates = rate_grid(comp, quick);

  bench::subheading(comp.name + " GTM mitigations (cluster-rr, round-robin inside)");
  std::vector<std::vector<cluster::ClusterReport>> curves;
  for (const auto& b : bundles) {
    std::vector<cluster::ClusterReport> curve;
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
      cluster::ClusterConfig cc;
      cc.servers = comp.servers;
      cc.link = comp.link;
      cc.lb = cluster::LbPolicy::kRoundRobin;
      cc.placement = placement;
      cc.gtm = b.p;
      cc.tier = comp.tier;
      cc.arrival = comp.arrival;
      cc.arrival.rate_per_us = rates[ri];
      cc.antagonist_server = 0;
      cc.seed = exec::point_seed(seed, static_cast<std::uint64_t>(ri));
      cc.jobs = jobs;
      cc.engine = engine;
      if (quick) {
        cc.warmup = sim::from_us(25.0);
        cc.stop = sim::from_us(100.0);
        cc.max_drain = sim::from_ms(1.0);
      }
      cluster::ClusterSim sim(std::move(cc));
      sim.run();
      curve.push_back(sim.report());
    }
    std::printf("  gtm %-13s %6s %8s %10s %7s %6s %7s\n", b.name, "rate", "goodput", "p99",
                "viol%", "rej%", "hedge");
    std::vector<double> p99;
    for (std::size_t ri = 0; ri < curve.size(); ++ri) {
      const auto& rep = curve[ri];
      std::printf("    %-13s  %6.1f %8.2f %10.1f %6.1f%% %5.1f%% %7llu\n", "", rates[ri],
                  rep.goodput_per_us, rep.p99_ns, rep.slo_violation_frac * 100.0,
                  rep.rejected_frac * 100.0, static_cast<unsigned long long>(rep.hedges));
      p99.push_back(rep.p99_ns);
    }
    const int knee = serve::knee_index(std::span<const double>(p99));
    if (knee >= 0) {
      std::printf("    knee: %.1f req/us (p99 %.1f ns)\n", rates[static_cast<std::size_t>(knee)],
                  p99[static_cast<std::size_t>(knee)]);
    } else {
      std::printf("    knee: none (p99 never exceeded 3x baseline)\n");
    }
    curves.push_back(std::move(curve));
  }

  std::vector<double> fifo_p99;
  for (const auto& rep : curves.front()) fifo_p99.push_back(rep.p99_ns);
  const int knee = serve::knee_index(std::span<const double>(fifo_p99));
  const auto at = static_cast<std::size_t>(knee >= 0 ? knee : static_cast<int>(rates.size()) - 1);
  std::printf("  at fifo %s (%.1f req/us):\n", knee >= 0 ? "knee" : "top rate", rates[at]);
  for (std::size_t b = 0; b < bundles.size(); ++b) {
    const auto& rep = curves[b][at];
    std::printf("    %-13s p99 %10.1f ns  goodput %6.2f req/us  viol %5.1f%%  rej %5.1f%%\n",
                bundles[b].name, rep.p99_ns, rep.goodput_per_us,
                rep.slo_violation_frac * 100.0, rep.rejected_frac * 100.0);
  }
}

// Conservative-lookahead scaling: the lockstep epoch length *is* the NIC
// link latency, so shorter links mean more balancer/shard synchronization
// barriers per simulated second. This mode pins one composition and rate
// and sweeps the link latency across a 32x range, reporting simulated
// epochs, wall clock and epochs/sec — the direct price of lookahead — plus
// the served p99 to show the workload itself stays comparable. Wall times
// make this output machine-dependent by design; it is a perf-tracking
// mode, not a goldened one.
void run_latency_sweep(const Composition& comp, const cluster::Engine engine, bool quick,
                       int jobs, std::uint64_t seed) {
  const std::vector<double> lat_ns = quick
                                         ? std::vector<double>{400.0, 1600.0}
                                         : std::vector<double>{100.0, 200.0, 400.0, 800.0,
                                                               1600.0, 3200.0};
  bench::subheading(comp.name + ": lockstep epoch cost vs link latency (16 req/us, telemetry)");
  std::printf("  %8s %10s %10s %10s %12s %10s %10s\n", "link-ns", "epochs", "barriers", "wall-ms",
              "epochs/sec", "p99-ns", "goodput");
  for (const double ns : lat_ns) {
    cluster::ClusterConfig cc;
    cc.servers = comp.servers;
    cc.link = comp.link;
    cc.link.latency = sim::from_ns(ns);
    cc.lb = cluster::LbPolicy::kTelemetry;
    cc.gtm = comp.gtm;
    cc.tier = comp.tier;
    cc.arrival = comp.arrival;
    cc.arrival.rate_per_us = 16.0;
    cc.antagonist_server = 0;
    cc.seed = exec::point_seed(seed, static_cast<std::uint64_t>(ns));
    cc.jobs = jobs;
    cc.engine = engine;
    if (quick) {
      cc.warmup = sim::from_us(25.0);
      cc.stop = sim::from_us(100.0);
      cc.max_drain = sim::from_ms(1.0);
    }
    exec::Stopwatch watch;
    cluster::ClusterSim sim(std::move(cc));
    sim.run();
    const double wall_ms = watch.elapsed_ms();
    const cluster::ClusterReport rep = sim.report();
    const double eps = wall_ms > 0.0 ? static_cast<double>(rep.epochs) / (wall_ms / 1000.0) : 0.0;
    std::printf("  %8.0f %10llu %10llu %10.1f %12.0f %10.1f %10.2f\n", ns,
                static_cast<unsigned long long>(rep.epochs),
                static_cast<unsigned long long>(rep.barriers), wall_ms, eps, rep.p99_ns,
                rep.goodput_per_us);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string cluster_file;
  std::string engine_name;
  int servers_override = 0;
  bool latency_sweep = false;
  bool mitigations = false;
  bench::Options opt("bench_cluster",
                     "rack-scale serving: cluster knees and front-end policy ablation");
  opt.value("--cluster", &cluster_file, "run a .scnc cluster spec instead of the default racks");
  opt.value("--engine", &engine_name,
            "lockstep execution engine: fused (default) or step (barrier per epoch); "
            "byte-identical output either way");
  opt.value_int("--servers", &servers_override,
                "scale every composition to N servers (cyclic over its member list); the rate "
                "grid scales with it");
  opt.flag("--latency-sweep", &latency_sweep,
           "sweep the NIC link latency and report lockstep epochs/sec instead of the knee grid");
  opt.flag("--mitigations", &mitigations,
           "append the GTM mitigation ablation (discipline x admission x hedging)");
  opt.parse(argc, argv);

  cluster::Engine engine = cluster::Engine::kFused;
  if (!engine_name.empty()) {
    const auto parsed = cluster::parse_engine(engine_name);
    if (!parsed) {
      opt.die(std::string("flag '--engine': bad value '") + engine_name +
              "' (want fused or step)");
    }
    engine = *parsed;
  }
  if (servers_override < 0) opt.die("flag '--servers': must be >= 1");

  std::vector<Composition> comps;
  // Placement precedence: CLI `--placement` > the spec's `placement=` key >
  // the historical gmi-local default. Strict flags as before (exit 2 on
  // garbage); the spec's vocabulary is validated by the cluster parser.
  serve::Policy placement = opt.placement_or(serve::Policy::kLocal);
  if (!cluster_file.empty()) {
    try {
      cluster::ClusterSpec cs = cluster::load_cluster(cluster_file);
      if (!opt.has_placement()) {
        placement = *serve::parse_policy(cs.placement);  // validated at parse
      }
      Composition comp;
      comp.name = cluster_file;
      comp.servers = std::move(cs.servers);
      comp.link = cs.link;
      comp.gtm = opt.gtm_or(gtm::to_policy(cs.gtm));
      comp.arrival = gtm::to_arrival(cs.gtm, spec::dir_of(cluster_file));
      // [tier] in the .scnc configures the rack's tier; --tier-spec replaces
      // it and --tier overrides the mode.
      comp.tier = opt.tier_or(tier::to_config(cs.tier));
      comps.push_back(std::move(comp));
    } catch (const spec::Error& e) {
      opt.die(std::string("--cluster: ") + e.what());
    }
  } else {
    comps = default_compositions(opt.quick());
    for (auto& comp : comps) {
      comp.gtm = opt.gtm_or();
      comp.tier = opt.tier_or();
    }
  }
  if (servers_override > 0) {
    for (auto& comp : comps) {
      const std::vector<topo::PlatformParams> base = std::move(comp.servers);
      comp.servers.clear();
      for (int i = 0; i < servers_override; ++i) {
        comp.servers.push_back(base[static_cast<std::size_t>(i) % base.size()]);
      }
      comp.name += " scaled to " + std::to_string(servers_override) + " boxes";
    }
  }

  exec::Stopwatch watch;
  if (latency_sweep) {
    bench::heading("Cluster: lockstep epoch cost vs NIC link latency");
    for (const auto& comp : comps) {
      run_latency_sweep(comp, engine, opt.quick(), opt.jobs(), opt.seed_or(1));
    }
    bench::report_wallclock("latency sweeps", opt.jobs(), watch.elapsed_ms());
    return 0;
  }
  bench::heading("Cluster: latency vs offered load per front-end policy");
  for (const auto& comp : comps) {
    run_composition(comp, placement, engine, opt.quick(), opt.jobs(), opt.seed_or(1));
  }
  if (mitigations) {
    bench::heading("Cluster: GTM mitigation ablation");
    for (const auto& comp : comps) {
      run_mitigations(comp, engine, opt.quick(), opt.jobs(), opt.seed_or(1));
    }
  }
  bench::report_wallclock("cluster sweeps", opt.jobs(), watch.elapsed_ms());
  return 0;
}

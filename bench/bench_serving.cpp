// Serving-workload latency-vs-QPS sweep with a placement-policy ablation.
//
// For each platform, an open-loop multi-stage request mix (point lookups,
// scans and — with a CXL tier — tiered reads) is offered at increasing
// rates while a noisy-neighbor batch job saturates CCD 0's GMI. Three
// placement policies compete on the identical arrival sequence: blind
// round-robin, static NUMA/GMI-local tenant homes, and the telemetry-driven
// policy that steers by per-CCD link counters fed through the analytical
// model. The table prints the P99 curve and SLO goodput per policy plus
// each curve's saturation knee.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/options.hpp"
#include "serve/sweep.hpp"
#include "topo/params.hpp"

namespace {

using namespace scn;

std::vector<double> rate_grid(const topo::PlatformParams& params, bool quick) {
  // The big sockets saturate later: extend the grid until round-robin's
  // knee is inside it (12 CCDs absorb ~45 req/us of this mix).
  if (quick) return {1.0, 8.0, 32.0};
  std::vector<double> rates{0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
  if (params.ccd_count > 4) {
    rates.push_back(48.0);
    rates.push_back(64.0);
  }
  return rates;
}

serve::SweepConfig base_sweep(const topo::PlatformParams& params, bool quick, int jobs,
                              std::uint64_t seed, const serve::ArrivalConfig& arrival,
                              const gtm::TrafficPolicy& policy) {
  serve::SweepConfig sc;
  sc.rates_per_us = rate_grid(params, quick);
  sc.arrival_template = arrival;
  sc.gtm = policy;
  sc.jobs = jobs;
  sc.seed = seed;
  if (quick) {
    sc.warmup = sim::from_us(25.0);
    sc.stop = sim::from_us(100.0);
    sc.max_drain = sim::from_ms(1.0);
  }
  return sc;
}

void run_platform(const topo::PlatformParams& params, bool quick, int jobs, std::uint64_t seed,
                  const serve::ArrivalConfig& arrival, const gtm::TrafficPolicy& policy) {
  serve::SweepConfig sc = base_sweep(params, quick, jobs, seed, arrival, policy);
  const auto points = serve::sweep(params, sc);

  bench::subheading(params.name + " (requests/us vs ns; antagonist on CCD 0)");
  for (const serve::Policy policy : sc.policies) {
    const auto curve = serve::policy_curve(points, policy);
    std::printf("  policy %-11s  %6s %8s %8s %10s %8s %6s\n", serve::to_string(policy), "rate",
                "goodput", "p50", "p99", "viol%", "jain");
    for (const auto& pt : curve) {
      std::printf("    %-13s  %6.1f %8.2f %8.1f %10.1f %7.1f%% %6.3f\n", "", pt.rate_per_us,
                  pt.report.goodput_per_us, pt.report.p50_ns, pt.report.p99_ns,
                  pt.report.slo_violation_frac * 100.0, pt.report.jain_tenant_fairness);
    }
    const int knee = serve::knee_index(curve);
    if (knee >= 0) {
      std::printf("    knee: %.1f req/us (p99 %.1f ns)\n", curve[static_cast<std::size_t>(knee)].rate_per_us,
                  curve[static_cast<std::size_t>(knee)].report.p99_ns);
    } else {
      std::printf("    knee: none (p99 never exceeded 3x baseline)\n");
    }
  }

  // Ablation summary at round-robin's knee rate: the paired comparison the
  // telemetry policy is built to win. Without a knee in the swept range,
  // compare at the highest rate instead and say so.
  const auto rr = serve::policy_curve(points, serve::Policy::kRoundRobin);
  const int knee = serve::knee_index(rr);
  const auto at = static_cast<std::size_t>(knee >= 0 ? knee : static_cast<int>(rr.size()) - 1);
  if (knee >= 0) {
    std::printf("  at round-robin knee (%.1f req/us):\n", rr[at].rate_per_us);
  } else {
    std::printf("  round-robin knee: none; comparing at top rate (%.1f req/us):\n",
                rr[at].rate_per_us);
  }
  for (const serve::Policy policy : sc.policies) {
    const auto curve = serve::policy_curve(points, policy);
    const auto& pt = curve[at];
    std::printf("    %-11s p99 %10.1f ns  goodput %6.2f req/us  viol %5.1f%%\n",
                serve::to_string(policy), pt.report.p99_ns, pt.report.goodput_per_us,
                pt.report.slo_violation_frac * 100.0);
  }
}

/// The GTM mitigation ablation: queue discipline x admission control x
/// hedging, every bundle replaying the identical arrival sequence. Placement
/// is fixed to round-robin: it mixes every class into every worker queue,
/// which is the regime where queue *ordering* can matter at all (gmi-local
/// homes each tenant on its own quadrant, leaving single-class queues where
/// priority and EDF degenerate to FIFO). Printed only under --mitigations so
/// the default output stays byte-identical to the pre-GTM bench.
void run_mitigations(const topo::PlatformParams& params, bool quick, int jobs,
                     std::uint64_t seed, const serve::ArrivalConfig& arrival) {
  struct Bundle {
    const char* name;
    gtm::TrafficPolicy p;
  };
  std::vector<Bundle> bundles;
  bundles.push_back({"fifo", {}});
  {
    gtm::TrafficPolicy p;
    p.discipline = gtm::Discipline::kPriority;
    bundles.push_back({"priority", p});
  }
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

  bench::subheading(params.name + " GTM mitigations (round-robin placement)");
  std::vector<std::vector<serve::LoadPoint>> curves;
  for (const auto& b : bundles) {
    serve::SweepConfig sc = base_sweep(params, quick, jobs, seed, arrival, b.p);
    sc.policies = {serve::Policy::kRoundRobin};
    curves.push_back(serve::sweep(params, sc));
    const auto& curve = curves.back();
    std::printf("  gtm %-13s %6s %8s %10s %7s %6s %7s\n", b.name, "rate", "goodput", "p99",
                "viol%", "rej%", "hedge");
    for (const auto& pt : curve) {
      std::printf("    %-13s  %6.1f %8.2f %10.1f %6.1f%% %5.1f%% %7llu\n", "", pt.rate_per_us,
                  pt.report.goodput_per_us, pt.report.p99_ns,
                  pt.report.slo_violation_frac * 100.0, pt.report.rejected_frac * 100.0,
                  static_cast<unsigned long long>(pt.report.hedges));
    }
    const int knee = serve::knee_index(curve);
    if (knee >= 0) {
      std::printf("    knee: %.1f req/us (p99 %.1f ns)\n",
                  curve[static_cast<std::size_t>(knee)].rate_per_us,
                  curve[static_cast<std::size_t>(knee)].report.p99_ns);
    } else {
      std::printf("    knee: none (p99 never exceeded 3x baseline)\n");
    }
  }

  // Summary at the FIFO baseline's knee rate (or top rate): the paired
  // comparison each mitigation is supposed to win.
  const auto& fifo = curves.front();
  const int knee = serve::knee_index(fifo);
  const auto at = static_cast<std::size_t>(knee >= 0 ? knee : static_cast<int>(fifo.size()) - 1);
  std::printf("  at fifo %s (%.1f req/us):\n", knee >= 0 ? "knee" : "top rate",
              fifo[at].rate_per_us);
  for (std::size_t b = 0; b < bundles.size(); ++b) {
    const auto& pt = curves[b][at];
    std::printf("    %-13s p99 %10.1f ns  goodput %6.2f req/us  viol %5.1f%%  rej %5.1f%%\n",
                bundles[b].name, pt.report.p99_ns, pt.report.goodput_per_us,
                pt.report.slo_violation_frac * 100.0, pt.report.rejected_frac * 100.0);
  }
}

/// The tiering scenario family (--tier track|migrate): a CXL-heavy request
/// mix under the CCD0 antagonist, swept once with placement frozen (track —
/// the migration-off ablation, telemetry still live) and once with the
/// migration engine on. Both modes replay the identical arrival sequence at
/// every rate, so the knee-point shift is a paired comparison. Placement is
/// gmi-local: the tier question is *where the bytes live*, not which CCX
/// serves the request.
void run_tiering(const topo::PlatformParams& params, bool quick, int jobs, std::uint64_t seed,
                 const serve::ArrivalConfig& arrival, const gtm::TrafficPolicy& policy,
                 const tier::TierConfig& tier_cfg) {
  if (!params.has_cxl()) {
    bench::subheading(params.name + " (no CXL tier: nothing to tier, skipped)");
    return;
  }

  const tier::Mode modes[] = {tier::Mode::kTrack, tier::Mode::kMigrate};
  std::vector<std::vector<serve::LoadPoint>> curves;
  bench::subheading(params.name + " (far-memory mix; antagonist on CCD 0)");
  for (const tier::Mode mode : modes) {
    serve::SweepConfig sc = base_sweep(params, quick, jobs, seed, arrival, policy);
    sc.policies = {serve::Policy::kLocal};
    sc.classes = serve::tiering_classes(params);
    sc.tier = tier_cfg;
    sc.tier.mode = mode;
    curves.push_back(serve::sweep(params, sc));
    const auto& curve = curves.back();
    std::printf("  tier %-8s %6s %8s %10s %7s %6s %7s %7s\n", tier::to_string(mode), "rate",
                "goodput", "p99", "viol%", "hit%", "promo", "demo");
    for (const auto& pt : curve) {
      std::printf("    %-10s %6.1f %8.2f %10.1f %6.1f%% %5.1f%% %7llu %7llu\n", "",
                  pt.rate_per_us, pt.report.goodput_per_us, pt.report.p99_ns,
                  pt.report.slo_violation_frac * 100.0, pt.report.tier_hit_ratio * 100.0,
                  static_cast<unsigned long long>(pt.report.tier_promotions),
                  static_cast<unsigned long long>(pt.report.tier_demotions));
    }
    const int knee = serve::knee_index(curve);
    if (knee >= 0) {
      std::printf("    knee: %.1f req/us (p99 %.1f ns)\n",
                  curve[static_cast<std::size_t>(knee)].rate_per_us,
                  curve[static_cast<std::size_t>(knee)].report.p99_ns);
    } else {
      std::printf("    knee: none (p99 never exceeded 3x baseline)\n");
    }
  }

  // Summary at the migration-off knee rate (or top rate): how much latency
  // does moving the hot working set DRAM-ward buy at the point where the
  // static placement saturates?
  const auto& off = curves.front();
  const int knee = serve::knee_index(off);
  const auto at = static_cast<std::size_t>(knee >= 0 ? knee : static_cast<int>(off.size()) - 1);
  std::printf("  at track %s (%.1f req/us):\n", knee >= 0 ? "knee" : "top rate",
              off[at].rate_per_us);
  for (std::size_t m = 0; m < curves.size(); ++m) {
    const auto& pt = curves[m][at];
    std::printf("    %-8s p99 %10.1f ns  goodput %6.2f req/us  hit %5.1f%%  moved %llu pages\n",
                tier::to_string(modes[m]), pt.report.p99_ns, pt.report.goodput_per_us,
                pt.report.tier_hit_ratio * 100.0,
                static_cast<unsigned long long>(pt.report.tier_promotions +
                                                pt.report.tier_demotions));
  }
  const double off_p99 = off[at].report.p99_ns;
  const double mig_p99 = curves.back()[at].report.p99_ns;
  if (mig_p99 > 0.0) {
    std::printf("  migration p99 speedup at that rate: %.2fx\n", off_p99 / mig_p99);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool mitigations = false;
  bench::Options opt("bench_serving",
                     "serving workloads: latency-vs-QPS knees and placement-policy ablation");
  opt.flag("--mitigations", &mitigations,
           "append the GTM mitigation ablation (discipline x admission x hedging)");
  opt.parse(argc, argv);

  // [gtm]/[arrivals] sections in a --platform spec file configure the sweep;
  // --discipline/--admission/--hedge-pct override the file.
  const cluster::PlatformFile file = opt.platform_file();
  const gtm::TrafficPolicy policy = opt.gtm_or(gtm::to_policy(file.gtm));
  const serve::ArrivalConfig arrival = gtm::to_arrival(file.gtm, spec::dir_of(opt.platform_arg()));
  // [tier] in the --platform spec file configures the tier; --tier-spec
  // replaces it and --tier overrides the mode.
  const tier::TierConfig tier_cfg = opt.tier_or(tier::to_config(file.tier));

  exec::Stopwatch watch;
  if (tier_cfg.mode != tier::Mode::kOff) {
    // The tiering scenario family replaces the default panels: the default
    // output (and its goldens) stays byte-identical unless tiering is asked
    // for explicitly.
    bench::heading("Serving: CXL tiering, migration on vs off");
    for (const auto& params : opt.platforms()) {
      run_tiering(params, opt.quick(), opt.jobs(), opt.seed_or(1), arrival, policy, tier_cfg);
    }
    bench::report_wallclock("tiering sweeps", opt.jobs(), watch.elapsed_ms());
    return 0;
  }
  bench::heading("Serving: latency vs offered load per placement policy");
  for (const auto& params : opt.platforms()) {
    run_platform(params, opt.quick(), opt.jobs(), opt.seed_or(1), arrival, policy);
  }
  if (mitigations) {
    bench::heading("Serving: GTM mitigation ablation");
    for (const auto& params : opt.platforms()) {
      run_mitigations(params, opt.quick(), opt.jobs(), opt.seed_or(1), arrival);
    }
  }
  bench::report_wallclock("serving sweeps", opt.jobs(), watch.elapsed_ms());
  return 0;
}

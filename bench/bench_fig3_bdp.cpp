// Figure 3: average and tail (P999) latency vs offered load on the Infinity
// Fabric, GMI, and P-Link/CXL — the "inconsistent bandwidth-delay product"
// characterization (§3.4). One panel per sub-figure.
#include "bench/bench_util.hpp"
#include "bench/options.hpp"
#include "measure/loadsweep.hpp"
#include "topo/params.hpp"

namespace {

using namespace scn;
using fabric::Op;
using measure::SweepLink;

struct Panel {
  const char* tag;
  const topo::PlatformParams* params;
  SweepLink link;
  Op op;
  const char* paper_note;
  int points = 7;
};

/// Generic panel set for a `--platform` override: no paper anchors exist for
/// a custom spec, so sweep every link class the platform has.
std::vector<Panel> custom_platform_panels(const topo::PlatformParams& p, bool quick) {
  const int points = quick ? 3 : 7;
  const char* note = "custom platform: no paper reference";
  std::vector<Panel> panels{{"(if)", &p, SweepLink::kIfIntraCc, Op::kRead, note, points},
                            {"(gmi.read)", &p, SweepLink::kGmi, Op::kRead, note, points}};
  if (!quick) panels.push_back({"(gmi.write)", &p, SweepLink::kGmi, Op::kWrite, note, points});
  if (p.has_cxl()) {
    panels.push_back({"(plink.read)", &p, SweepLink::kPlink, Op::kRead, note, points});
    if (!quick) panels.push_back({"(plink.write)", &p, SweepLink::kPlink, Op::kWrite, note, points});
  }
  return panels;
}

/// Run every point of every panel as one sweep, heaviest offered load first,
/// so no panel waits for the previous panel's slowest point; then print the
/// panels in order.
void run_panels(const std::vector<Panel>& panels, int jobs, bool fastforward) {
  struct Job {
    const Panel* panel;
    int i;  ///< 1-based point within the panel
    double offered_gbps;
  };
  std::vector<Job> table;
  for (const auto& panel : panels) {
    const int sites = measure::sweep_sites(*panel.params, panel.link);
    for (int i = 1; i <= panel.points; ++i) {
      table.push_back({&panel, i,
                       measure::offered_gbps(*panel.params, panel.link, panel.op, i, panel.points,
                                             sites)});
    }
  }
  exec::ParallelSweep sweep(jobs);
  const auto pts = sweep.map(
      static_cast<int>(table.size()),
      [&](int k) {
        const Job& job = table[static_cast<std::size_t>(k)];
        const Panel& panel = *job.panel;
        return measure::load_point(*panel.params, panel.link, panel.op, job.i, panel.points,
                                   fastforward);
      },
      [&](int k) { return table[static_cast<std::size_t>(k)].offered_gbps; });

  std::size_t k = 0;
  for (const auto& panel : panels) {
    bench::subheading(std::string(panel.tag) + "  " + panel.params->name + "  " +
                      to_string(panel.link) + "  " + to_string(panel.op));
    std::printf("  %12s %12s %12s %12s\n", "offered GB/s", "achieved", "avg ns", "p999 ns");
    for (int i = 0; i < panel.points; ++i, ++k) {
      const auto& pt = pts[k];
      std::printf("  %12.1f %12.1f %12.1f %12.1f\n", pt.requested_gbps, pt.achieved_gbps,
                  pt.avg_ns, pt.p999_ns);
    }
    bench::note(panel.paper_note);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt("bench_fig3_bdp", "Figure 3: latency vs offered load per link class");
  opt.parse(argc, argv);
  const int jobs = opt.jobs();
  const bool quick = opt.quick();
  bench::heading("Figure 3: latency vs load (avg / P999)");

  exec::Stopwatch watch;
  if (opt.has_platform()) {
    const auto p = opt.platform_or("epyc9634");
    run_panels(custom_platform_panels(p, quick), jobs, opt.fastforward());
    bench::report_wallclock("fig3 load sweeps", jobs, watch.elapsed_ms());
    return 0;
  }
  const auto p7 = topo::epyc7302();
  const auto p9 = topo::epyc9634();

  if (quick) {
    // Reduced golden-test configuration: one panel per link class, fewer
    // load points. Exercises the same flow/pool/channel machinery as the
    // full figure while staying cheap enough for sanitizer CI runs.
    run_panels({{"(a)", &p7, SweepLink::kIfIntraCc, Op::kRead,
                 "paper: flat 144.5 avg / 490 p999 regardless of load (tight CCX/CCD pools)", 3},
                {"(d.read)", &p7, SweepLink::kGmi, Op::kRead, "paper: avg 123.7 -> 172.5", 3}},
               jobs, opt.fastforward());
    bench::report_wallclock("fig3 quick sweeps", jobs, watch.elapsed_ms());
    return 0;
  }
  run_panels(
      {{"(a)", &p7, SweepLink::kIfIntraCc, Op::kRead,
        "paper: flat 144.5 avg / 490 p999 regardless of load (tight CCX/CCD pools)"},
       {"(b)", &p9, SweepLink::kIfIntraCc, Op::kRead,
        "paper: ~2x latency increase when approaching max bandwidth"},
       {"(c)", &p7, SweepLink::kIfInterCc, Op::kRead,
        "paper: flat 142.5 avg / 500 p999 regardless of load"},
       {"(d.read)", &p7, SweepLink::kGmi, Op::kRead, "paper: avg 123.7 -> 172.5, p999 470 -> 800"},
       {"(d.write)", &p7, SweepLink::kGmi, Op::kWrite,
        "paper: avg 123.9 -> 153.5, p999 480 -> 630"},
       {"(e.read)", &p9, SweepLink::kGmi, Op::kRead, "paper: avg 143.7 -> 249.5, p999 380 -> 810"},
       {"(e.write)", &p9, SweepLink::kGmi, Op::kWrite,
        "paper: avg 144.1 -> 695.8, p999 350 -> 1750 (deep WC queues)"},
       {"(f.read)", &p9, SweepLink::kPlink, Op::kRead,
        "paper: ~1.7x avg / ~2.1x tail read-latency increase at saturation"},
       {"(f.write)", &p9, SweepLink::kPlink, Op::kWrite,
        "paper: ~1.4x avg / ~1.6x tail write-latency increase at saturation"}},
      jobs, opt.fastforward());
  bench::report_wallclock("fig3 load sweeps", jobs, watch.elapsed_ms());
  return 0;
}

// perfbench_runner: runs one benchmark workload against the simulator's
// libraries and prints one JSON document of raw measurements on stdout.
// perfbench/run.py builds it, checks the outputs and turns the raw numbers
// into metrics; see perfbench/README.md for the workloads and metrics.
//
//   perfbench_runner --workload fig3_strict|fig3_ff|rack16 --seconds S
//                    [--trace 0|1] [--rack-seeds N,...] [--root DIR]
//                    [--plant SPAN:MS]
//
// Untraced repetitions call the libraries exactly as the bench binaries do
// (measure::latency_vs_load per Fig. 3 panel; cluster::ClusterSim for the
// rack). Traced repetitions (--trace 1, interleaved with untraced ones) wrap
// every public call the runner makes in a span; for Fig. 3 the runner then
// runs each load point itself from the same public pieces latency_vs_load
// uses, so the point's Simulator and FastForwarder counters are readable.
// --plant sleeps inside the wrapper of one named span, untraced or not: the
// benchmark's self-test that a slowdown shows in that layer's row only.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/spec.hpp"
#include "exec/sweep.hpp"
#include "gtm/spec.hpp"
#include "measure/experiment.hpp"
#include "measure/loadsweep.hpp"
#include "measure/scenario.hpp"
#include "serve/placement.hpp"
#include "spec/spec.hpp"
#include "tier/spec.hpp"
#include "traffic/fastforward.hpp"
#include "traffic/flow_group.hpp"

namespace {

using namespace scn;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double now_s() { return std::chrono::duration<double>(Clock::now() - g_epoch).count(); }

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

// ---- spans -------------------------------------------------------------------

struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;  ///< index into the same buffer; -1 = root of the buffer
  int point = -1;   ///< load point / cluster run id; -1 = none
};

/// Spans of one thread's current unit of work. Points of a traced Fig. 3
/// panel run on sweep workers, so each point records into its own buffer,
/// which the panel later appends under its own span.
struct SpanBuffer {
  std::vector<Span> spans;
  std::vector<int> open;
};

thread_local SpanBuffer* t_spans = nullptr;  // null: tracing off on this thread

std::string g_plant_span;  // --plant: span name whose wrapper sleeps
double g_plant_ms = 0.0;

/// The runner's wrapper around one call into a layer: records a span when
/// the thread is tracing, and carries the planted delay either way.
class Scope {
 public:
  explicit Scope(const char* name, int point = -1) {
    if (t_spans != nullptr) {
      idx_ = static_cast<int>(t_spans->spans.size());
      const int parent = t_spans->open.empty() ? -1 : t_spans->open.back();
      t_spans->spans.push_back({name, now_s(), 0.0, parent, point});
      t_spans->open.push_back(idx_);
    }
    if (g_plant_ms > 0.0 && g_plant_span == name) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(g_plant_ms));
    }
  }
  ~Scope() {
    if (idx_ >= 0) {
      t_spans->spans[static_cast<std::size_t>(idx_)].t1 = now_s();
      t_spans->open.pop_back();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int idx_ = -1;
};

/// Append `child` (a finished buffer) under span `parent` of `into`.
void graft(SpanBuffer& into, const SpanBuffer& child, int parent) {
  const int base = static_cast<int>(into.spans.size());
  for (Span s : child.spans) {
    s.parent = s.parent < 0 ? parent : s.parent + base;
    into.spans.push_back(std::move(s));
  }
}

// ---- Fig. 3 ------------------------------------------------------------------

constexpr int kPointsPerPanel = 7;
constexpr double kWarmupUs = 40.0;  // measure::latency_vs_load's window
constexpr double kWindowUs = 80.0;

struct Panel {
  const char* tag;
  const char* platform;
  measure::SweepLink link;
  fabric::Op op;
};

// The nine panels of bench_fig3_bdp, in its order.
const Panel kPanels[] = {
    {"a", "epyc7302", measure::SweepLink::kIfIntraCc, fabric::Op::kRead},
    {"b", "epyc9634", measure::SweepLink::kIfIntraCc, fabric::Op::kRead},
    {"c", "epyc7302", measure::SweepLink::kIfInterCc, fabric::Op::kRead},
    {"d.read", "epyc7302", measure::SweepLink::kGmi, fabric::Op::kRead},
    {"d.write", "epyc7302", measure::SweepLink::kGmi, fabric::Op::kWrite},
    {"e.read", "epyc9634", measure::SweepLink::kGmi, fabric::Op::kRead},
    {"e.write", "epyc9634", measure::SweepLink::kGmi, fabric::Op::kWrite},
    {"f.read", "epyc9634", measure::SweepLink::kPlink, fabric::Op::kRead},
    {"f.write", "epyc9634", measure::SweepLink::kPlink, fabric::Op::kWrite},
};
constexpr int kPanelCount = static_cast<int>(sizeof kPanels / sizeof kPanels[0]);

/// Work counters of one traced load point.
struct PointCounters {
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t transactions = 0;  ///< Σ StreamFlow::completions (measured window)
  std::uint64_t walks = 0;         ///< Σ StreamFlow::raw_completions (simulated walks)
  std::uint64_t segments = 0;      ///< Σ Channel::messages_total
  std::uint64_t token_grants = 0;  ///< Σ TokenPool::acquires
  std::uint64_t sim_ticks = 0;     ///< simulated time the point ran to
  traffic::FastForwarder::Stats ff;
};

struct TracedPoint {
  measure::LoadPoint pt;
  PointCounters c;
  SpanBuffer spans;
};

/// One Fig. 3 load point, built from the same public pieces and in the same
/// order as measure::latency_vs_load's run_load_point, with a span around
/// each call. `i` is 1-based; the last point is unthrottled.
TracedPoint traced_point(const topo::PlatformParams& params, measure::SweepLink link,
                         fabric::Op op, int i, bool fastforward, int point_id) {
  TracedPoint out;
  SpanBuffer* const caller_spans = t_spans;  // a one-worker sweep runs points inline
  t_spans = &out.spans;
  {
    Scope point("exec.point", point_id);
    double per_core_max = 0.0;
    double issue_cap = 0.0;
    std::optional<measure::Experiment> e;
    std::vector<measure::FlowSite> sites;
    std::optional<traffic::FlowGroup> group;
    std::optional<traffic::FastForwarder> forwarder;
    {
      Scope s("topo.Experiment", point_id);
      e.emplace(params);
    }
    {
      Scope s("measure.scenario", point_id);
      per_core_max = measure::per_core_max_gbps(params, link, op);
      issue_cap = measure::scenario_issue_cap(params, link, op);
      sites = measure::scenario_sites(e->platform, link);
    }
    const bool unthrottled = i == kPointsPerPanel;
    double rate = per_core_max * static_cast<double>(i) / static_cast<double>(kPointsPerPanel);
    if (issue_cap > 0.0) rate = std::min(rate, issue_cap);

    double requested = 0.0;
    {
      Scope s("traffic.setup", point_id);
      group.emplace("sweep");
      int id = 0;
      for (auto& site : sites) {
        traffic::StreamFlow::Config cfg;
        cfg.name = "s" + std::to_string(id);
        cfg.op = op;
        cfg.paths = site.paths;
        cfg.pools = e->platform.pools_for(site.ccd, site.ccx, op);
        cfg.window = measure::scenario_window(params, link, op);
        cfg.target_rate = unthrottled ? issue_cap : rate;
        cfg.stats_after = sim::from_us(kWarmupUs);
        cfg.stop_at = sim::from_us(kWarmupUs + kWindowUs);
        cfg.record_latency = true;
        cfg.seed = 3000 + static_cast<std::uint64_t>(id++);
        group->add(e->simulator, std::move(cfg));
        requested += unthrottled ? (issue_cap > 0.0 ? issue_cap : per_core_max) : rate;
      }
      forwarder.emplace(e->simulator, measure::fastforward_config(params));
      if (fastforward) forwarder->watch(*group);
      group->start_all();
      if (fastforward) forwarder->arm();
    }
    {
      Scope s("sim.run_until", point_id);
      e->simulator.run_until(sim::from_us(kWarmupUs + kWindowUs + 15.0));
    }
    {
      Scope s("stats.merged_latency", point_id);
      out.pt.requested_gbps = requested;
      out.pt.achieved_gbps = group->aggregate_gbps();
      const auto lat = group->merged_latency();
      out.pt.avg_ns = lat.mean() / 1000.0;
      out.pt.p999_ns = static_cast<double>(lat.p999()) / 1000.0;
    }
    auto& c = out.c;
    c.events = e->simulator.executed_count();
    c.peak_pending = e->simulator.queue_stats().peak_pending;
    c.sim_ticks = static_cast<std::uint64_t>(e->simulator.now());
    for (std::size_t f = 0; f < group->size(); ++f) {
      c.transactions += group->flow(f).completions();
      c.walks += group->flow(f).raw_completions();
    }
    for (const auto* ch : e->platform.all_channels()) c.segments += ch->messages_total();
    for (const auto* pool : e->platform.all_pools()) c.token_grants += pool->acquires();
    c.ff = forwarder->stats();
    {
      // Same order as the untraced point's scope exit: forwarder, flows, then
      // the experiment they run on.
      Scope s("topo.teardown", point_id);
      forwarder.reset();
      group.reset();
      e.reset();
    }
  }
  t_spans = caller_spans;
  return out;
}

// ---- output records ----------------------------------------------------------

struct PointResult {
  int id = 0;
  std::string label;
  std::vector<std::pair<std::string, double>> values;  ///< checked outputs, in order
  std::string error;                                   ///< non-empty: the point threw
};

std::vector<std::pair<std::string, double>> load_point_values(const measure::LoadPoint& p) {
  return {{"requested_gbps", p.requested_gbps},
          {"achieved_gbps", p.achieved_gbps},
          {"avg_ns", p.avg_ns},
          {"p999_ns", p.p999_ns}};
}

std::vector<std::pair<std::string, double>> cluster_values(const cluster::ClusterReport& r) {
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<std::pair<std::string, double>> v = {
      {"arrivals", u(r.arrivals)},
      {"completed", u(r.completed)},
      {"in_slo", u(r.in_slo)},
      {"rejected", u(r.rejected)},
      {"hedges", u(r.hedges)},
      {"hedge_wins", u(r.hedge_wins)},
      {"forwarded", u(r.forwarded)},
      {"epochs", u(r.epochs)},
      {"offered_per_us", r.offered_per_us},
      {"achieved_per_us", r.achieved_per_us},
      {"goodput_per_us", r.goodput_per_us},
      {"mean_ns", r.mean_ns},
      {"p50_ns", r.p50_ns},
      {"p99_ns", r.p99_ns},
      {"p999_ns", r.p999_ns},
      {"slo_violation_frac", r.slo_violation_frac},
      {"rejected_frac", r.rejected_frac},
      {"jain_server_fairness", r.jain_server_fairness},
      {"link_wait_mean_ns", r.link_wait_mean_ns},
      {"tier_accesses", u(r.tier_accesses)},
      {"tier_dram_hits", u(r.tier_dram_hits)},
      {"tier_promotions", u(r.tier_promotions)},
      {"tier_demotions", u(r.tier_demotions)},
      {"tier_migrated_bytes", u(r.tier_migrated_bytes)},
      {"tier_hit_ratio", r.tier_hit_ratio},
  };
  for (std::size_t s = 0; s < r.forwarded_per_server.size(); ++s) {
    v.emplace_back("forwarded_server" + std::to_string(s), u(r.forwarded_per_server[s]));
  }
  return v;
}

/// One repetition of the workload.
struct Rep {
  bool traced = false;
  double setup_s = 0.0;  ///< spec parsing + the constructors the runner calls
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<PointResult> points;
  std::vector<std::pair<std::string, double>> counters;  ///< traced only
  SpanBuffer spans;                                      ///< traced only
};

struct Options {
  std::string workload;
  std::string root = ".";
  double seconds = 10.0;
  bool trace = false;
  std::vector<std::uint64_t> rack_seeds = {1};
};

/// Worker threads per workload, besides the coordinating thread: at most the
/// host's 4 cores in all. Fig. 3 points run on 3 sweep workers while the
/// coordinator blocks. The rack runs its lockstep inline on one thread: with
/// 2 or 3 shards its wall time swung by up to 30% between identical runs on
/// a 4-core host while its CPU time held within 2% (README.md, "Steadiness").
int workers(const std::string& workload) { return workload == "rack16" ? 1 : 3; }

// ---- fig3 workloads ----------------------------------------------------------

struct Fig3Setup {
  topo::PlatformParams p7302;
  topo::PlatformParams p9634;
  const topo::PlatformParams& of(const Panel& panel) const {
    return std::string(panel.platform) == "epyc7302" ? p7302 : p9634;
  }
};

Fig3Setup fig3_setup() {
  Scope s("spec.lookup");
  return {spec::lookup("epyc7302"), spec::lookup("epyc9634")};
}

std::string point_label(const Panel& panel, int i) {
  return std::string(panel.tag) + "#" + std::to_string(i);
}

Rep fig3_untraced(bool fastforward, int jobs) {
  Rep rep;
  const double s0 = now_s();
  const Fig3Setup setup = fig3_setup();
  rep.setup_s = now_s() - s0;
  const double c0 = cpu_s();
  const double t0 = now_s();
  for (int pi = 0; pi < kPanelCount; ++pi) {
    const Panel& panel = kPanels[pi];
    std::vector<measure::LoadPoint> pts;
    std::string error;
    try {
      Scope s("measure.latency_vs_load");
      pts = measure::latency_vs_load(setup.of(panel), panel.link, panel.op, kPointsPerPanel, jobs,
                                     fastforward);
    } catch (const std::exception& ex) {
      error = ex.what();
    }
    for (int i = 0; i < kPointsPerPanel; ++i) {
      PointResult r;
      r.id = pi * kPointsPerPanel + i;
      r.label = point_label(panel, i + 1);
      if (error.empty() && static_cast<int>(pts.size()) == kPointsPerPanel) {
        r.values = load_point_values(pts[static_cast<std::size_t>(i)]);
      } else {
        r.error = error.empty() ? "wrong point count" : error;
      }
      rep.points.push_back(std::move(r));
    }
  }
  rep.wall_s = now_s() - t0;
  rep.cpu_s = cpu_s() - c0;
  return rep;
}

Rep fig3_traced(bool fastforward, int jobs) {
  Rep rep;
  rep.traced = true;
  t_spans = &rep.spans;
  PointCounters sum;
  std::uint64_t ff_points_jumped = 0;
  double c0 = 0.0;
  double t0 = 0.0;
  {
    Scope root("runner.rep");
    const Fig3Setup setup = fig3_setup();
    c0 = cpu_s();
    t0 = now_s();
    for (int pi = 0; pi < kPanelCount; ++pi) {
      const Panel& panel = kPanels[pi];
      const auto& params = setup.of(panel);
      std::vector<TracedPoint> pts;
      std::string error;
      // The panel span's index, for grafting the workers' point spans.
      const int panel_span = static_cast<int>(rep.spans.spans.size());
      {
        Scope s("exec.sweep");
        try {
          exec::ParallelSweep sweep(jobs);
          pts = sweep.map(kPointsPerPanel, [&](int idx) {
            return traced_point(params, panel.link, panel.op, idx + 1, fastforward,
                                pi * kPointsPerPanel + idx);
          });
        } catch (const std::exception& ex) {
          error = ex.what();
        }
      }
      for (int i = 0; i < kPointsPerPanel; ++i) {
        PointResult r;
        r.id = pi * kPointsPerPanel + i;
        r.label = point_label(panel, i + 1);
        if (!error.empty()) {
          r.error = error;
          rep.points.push_back(std::move(r));
          continue;
        }
        auto& tp = pts[static_cast<std::size_t>(i)];
        r.values = load_point_values(tp.pt);
        graft(rep.spans, tp.spans, panel_span);
        const auto& c = tp.c;
        sum.events += c.events;
        sum.peak_pending = std::max(sum.peak_pending, c.peak_pending);
        sum.transactions += c.transactions;
        sum.walks += c.walks;
        sum.segments += c.segments;
        sum.token_grants += c.token_grants;
        sum.sim_ticks += c.sim_ticks;
        sum.ff.samples += c.ff.samples;
        sum.ff.jumps += c.ff.jumps;
        sum.ff.rejected += c.ff.rejected;
        sum.ff.aborted_drains += c.ff.aborted_drains;
        sum.ff.skipped_ticks += c.ff.skipped_ticks;
        if (c.ff.jumps > 0) ++ff_points_jumped;
        const std::string p = "point." + std::to_string(r.id) + ".";
        rep.counters.emplace_back(p + "events", static_cast<double>(c.events));
        rep.counters.emplace_back(p + "ff_jumps", static_cast<double>(c.ff.jumps));
        rep.points.push_back(std::move(r));
      }
    }
  }
  rep.wall_s = now_s() - t0;
  rep.cpu_s = cpu_s() - c0;
  t_spans = nullptr;
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  rep.counters.insert(rep.counters.begin(),
                      {{"sim.events", u(sum.events)},
                       {"sim.peak_pending", u(sum.peak_pending)},
                       {"sim.ticks", u(sum.sim_ticks)},
                       {"fabric.transactions", u(sum.transactions)},
                       {"fabric.walks", u(sum.walks)},
                       {"fabric.segments", u(sum.segments)},
                       {"fabric.token_grants", u(sum.token_grants)},
                       {"ff.samples", u(sum.ff.samples)},
                       {"ff.jumps", u(sum.ff.jumps)},
                       {"ff.rejected", u(sum.ff.rejected)},
                       {"ff.aborted_drains", u(sum.ff.aborted_drains)},
                       {"ff.skipped_ticks", u(static_cast<std::uint64_t>(sum.ff.skipped_ticks))},
                       {"ff.points_jumped", u(ff_points_jumped)},
                       {"exec.workers", static_cast<double>(std::min(
                                            exec::resolve_jobs(jobs), kPointsPerPanel))}});
  return rep;
}

// ---- rack16 ------------------------------------------------------------------

struct RackSetup {
  cluster::ClusterSpec rack;
  serve::Policy placement = serve::Policy::kRoundRobin;
  gtm::TrafficPolicy gtm;
  serve::ArrivalConfig arrival;
  tier::TierConfig tier;
};

constexpr double kRackRatePerBox = 24.0;  // req/us: the quick grid's top rate
const cluster::LbPolicy kRackPolicies[] = {cluster::LbPolicy::kRoundRobin,
                                           cluster::LbPolicy::kLeastOutstanding};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

RackSetup rack_setup(const std::string& root) {
  RackSetup s;
  const std::string specs = root + "/specs";
  {
    Scope span("spec.load_cluster");
    s.rack = cluster::load_cluster(specs + "/rack-16x9634.scnc");
    s.placement = *serve::parse_policy(s.rack.placement);  // validated by the parser
  }
  // The spec's four no-CXL boxes get the CXL box's platform: ClusterSim drops
  // the CXL-tiered request class cluster-wide when any box lacks CXL, which
  // would leave the tier layer with nothing to migrate.
  const auto cxl_box = std::find_if(s.rack.servers.begin(), s.rack.servers.end(),
                                    [](const topo::PlatformParams& p) { return p.has_cxl(); });
  if (cxl_box == s.rack.servers.end()) throw std::runtime_error("rack16: no CXL box in the rack");
  const topo::PlatformParams cxl = *cxl_box;
  for (auto& p : s.rack.servers) {
    if (!p.has_cxl()) p = cxl;
  }
  {
    Scope span("spec.load_cluster");
    const auto gtm_rack = cluster::load_cluster(specs + "/rack-2x7302-gtm.scnc");
    s.gtm = gtm::to_policy(gtm_rack.gtm);
    s.arrival = gtm::to_arrival(gtm_rack.gtm, specs);
  }
  {
    Scope span("spec.parse_tier");
    const std::string path = specs + "/epyc9634-tier.scn";
    s.tier = tier::to_config(tier::parse_tier(read_file(path), path));
  }
  s.arrival.rate_per_us = kRackRatePerBox * static_cast<double>(s.rack.servers.size());
  return s;
}

cluster::ClusterConfig rack_config(const RackSetup& s, cluster::LbPolicy lb, std::uint64_t seed) {
  cluster::ClusterConfig cc;
  cc.servers = s.rack.servers;
  cc.link = s.rack.link;
  cc.lb = lb;
  cc.placement = s.placement;
  cc.gtm = s.gtm;
  cc.tier = s.tier;
  cc.arrival = s.arrival;
  cc.antagonist_server = 0;
  cc.seed = seed;
  cc.jobs = workers("rack16");
  // The committed quick grid's window (bench_cluster --quick).
  cc.warmup = sim::from_us(25.0);
  cc.stop = sim::from_us(100.0);
  cc.max_drain = sim::from_ms(1.0);
  return cc;
}

/// The rack under both front-end policies for every cluster seed of the
/// run. wall_s and cpu_s cover run() and report() of each ClusterSim.
Rep rack_rep(const Options& opt, bool traced) {
  Rep rep;
  rep.traced = traced;
  if (traced) t_spans = &rep.spans;
  std::map<std::string, double> counters;  // summed over seeds, per policy
  {
    Scope root("runner.rep");
    const double s0 = now_s();
    const RackSetup setup = rack_setup(opt.root);
    rep.setup_s += now_s() - s0;
    for (const std::uint64_t seed : opt.rack_seeds) {
      for (int li = 0; li < 2; ++li) {
        const cluster::LbPolicy lb = kRackPolicies[li];
        PointResult r;
        r.id = static_cast<int>(rep.points.size());
        r.label = std::to_string(seed) + "/" + cluster::to_string(lb);
        try {
          std::optional<cluster::ClusterSim> sim;
          const double b0 = now_s();
          {
            Scope span("cluster.ClusterSim", r.id);
            sim.emplace(rack_config(setup, lb, seed));
          }
          rep.setup_s += now_s() - b0;
          const double c0 = cpu_s();
          const double t0 = now_s();
          {
            Scope span("cluster.run", r.id);
            sim->run();
          }
          cluster::ClusterReport report;
          {
            Scope span("cluster.report", r.id);
            report = sim->report();
          }
          rep.wall_s += now_s() - t0;
          rep.cpu_s += cpu_s() - c0;
          r.values = cluster_values(report);
          std::uint64_t requests = 0;
          for (int s = 0; s < sim->server_count(); ++s) {
            requests += sim->server(s).arrivals_total();
          }
          {
            Scope span("cluster.teardown", r.id);
            sim.reset();
          }
          const std::string p = std::string("cluster.") + (li == 0 ? "rr" : "least_out") + ".";
          auto add = [&](const char* key, std::uint64_t v) {
            counters[p + key] += static_cast<double>(v);
          };
          add("epochs", report.epochs);
          add("barriers", report.barriers);
          add("forwarded", report.forwarded);
          add("requests", requests);
          add("completed", report.completed);
          add("rejected", report.rejected);
          add("hedges", report.hedges);
          add("hedge_wins", report.hedge_wins);
          add("tier_accesses", report.tier_accesses);
          add("tier_dram_hits", report.tier_dram_hits);
          add("tier_migrations", report.tier_promotions + report.tier_demotions);
          add("tier_migrated_bytes", report.tier_migrated_bytes);
        } catch (const std::exception& ex) {
          r.error = ex.what();
        }
        rep.points.push_back(std::move(r));
      }
    }
  }
  t_spans = nullptr;
  if (traced) rep.counters.assign(counters.begin(), counters.end());
  return rep;
}

// ---- JSON out ----------------------------------------------------------------

void write_pairs(std::ostream& out, const std::vector<std::pair<std::string, double>>& kv) {
  out << '{';
  for (std::size_t i = 0; i < kv.size(); ++i) {
    out << (i ? "," : "") << quoted(kv[i].first) << ':' << num(kv[i].second);
  }
  out << '}';
}

void write_rep(std::ostream& out, const Rep& rep) {
  out << "{\"traced\":" << (rep.traced ? "true" : "false") << ",\"setup_s\":" << num(rep.setup_s)
      << ",\"wall_s\":" << num(rep.wall_s)
      << ",\"cpu_s\":" << num(rep.cpu_s)
      << ",\"points\":[";
  for (std::size_t i = 0; i < rep.points.size(); ++i) {
    const auto& p = rep.points[i];
    out << (i ? "," : "") << "{\"id\":" << p.id << ",\"label\":" << quoted(p.label)
        << ",\"error\":" << quoted(p.error) << ",\"values\":";
    write_pairs(out, p.values);
    out << '}';
  }
  out << "],\"counters\":";
  write_pairs(out, rep.counters);
  out << ",\"spans\":[";
  for (std::size_t i = 0; i < rep.spans.spans.size(); ++i) {
    const auto& s = rep.spans.spans[i];
    out << (i ? "," : "") << '[' << quoted(s.name) << ',' << num(s.t0) << ',' << num(s.t1) << ','
        << s.parent << ',' << s.point << ']';
  }
  out << "]}";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "fig3_strict|fig3_ff|rack16 --seconds S [--trace 0|1] "
               "[--rack-seeds N,...] [--root DIR] [--plant SPAN:MS]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = v;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (flag == "--trace") {
        opt.trace = v == "1";
      } else if (flag == "--rack-seeds") {
        opt.rack_seeds.clear();
        std::istringstream list(v);
        for (std::string item; std::getline(list, item, ',');) {
          opt.rack_seeds.push_back(std::stoull(item));
        }
      } else if (flag == "--root") {
        opt.root = v;
      } else if (flag == "--plant") {
        const auto colon = v.rfind(':');
        if (colon == std::string::npos) usage("--plant wants SPAN:MS");
        g_plant_span = v.substr(0, colon);
        g_plant_ms = std::stod(v.substr(colon + 1));
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (opt.workload != "fig3_strict" && opt.workload != "fig3_ff" && opt.workload != "rack16") {
    usage("unknown workload '" + opt.workload + "'");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const bool fig3 = opt.workload != "rack16";
  const bool fastforward = opt.workload == "fig3_ff";
  const int jobs = workers(opt.workload);

  std::vector<Rep> reps;
  std::optional<Rep> strict_rep;
  try {
    // Measured window: repetitions until --seconds have passed (at least one
    // of each kind); a traced run alternates untraced and traced ones. Each
    // repetition does and times its own set-up.
    const double deadline = now_s() + opt.seconds;
    int untraced = 0;
    int traced = 0;
    while (untraced == 0 || (opt.trace && traced == 0) || now_s() < deadline) {
      const bool trace_this = opt.trace && traced < untraced;
      if (!fig3) {
        reps.push_back(rack_rep(opt, trace_this));
      } else if (trace_this) {
        reps.push_back(fig3_traced(fastforward, jobs));
      } else {
        reps.push_back(fig3_untraced(fastforward, jobs));
      }
      ++(trace_this ? traced : untraced);
    }
    // A traced fig3_ff run also counts the strict sweep's events once, so
    // ff.event_ratio compares two live counts of the same code.
    if (opt.trace && fastforward) strict_rep = fig3_traced(false, jobs);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench_runner: %s\n", ex.what());
    return 1;
  }

  std::ostringstream out;
  out << "{\"workload\":" << quoted(opt.workload) << ",\"jobs\":" << jobs
      << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << ",\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (i) out << ',';
    write_rep(out, reps[i]);
  }
  out << "]";
  if (strict_rep) {
    out << ",\"strict_rep\":";
    write_rep(out, *strict_rep);
  }
  out << "}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}

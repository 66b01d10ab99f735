#include "serve/server.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "fabric/runner.hpp"
#include "fabric/token_chain.hpp"
#include "model/analytic.hpp"
#include "stats/fairness.hpp"

namespace scn::serve {
namespace {

constexpr int kQuadrants = 4;
/// Concurrent requests a worker serves; beyond this, requests queue.
constexpr std::uint32_t kWorkerSlots = 4;
/// Streaming readers the colocated antagonist pins to CCD 0.
constexpr int kAntagonistFlows = 4;
/// Telemetry policy sampling period (per-CCD GMI byte-counter deltas).
constexpr sim::Tick kTelemetryEpoch = sim::from_us(2.0);

}  // namespace

ServerSim::ServerSim(sim::Simulator& simulator, topo::Platform& platform, ServerConfig config)
    : sim_(&simulator),
      platform_(&platform),
      cfg_(std::move(config)),
      classes_(cfg_.classes.empty() ? default_classes(platform.params()) : cfg_.classes),
      // Independent streams: arrivals and the class mix must not perturb (or
      // be perturbed by) fabric hiccup draws, so the request sequence is
      // identical across placement policies at a fixed seed.
      arrivals_(cfg_.arrival, [&] {
        std::uint64_t s = cfg_.seed;
        return sim::splitmix64(s);
      }()),
      class_rng_(0),
      fabric_rng_(0) {
  std::uint64_t s = cfg_.seed;
  (void)sim::splitmix64(s);  // arrival stream, consumed above
  class_rng_.reseed(sim::splitmix64(s));
  fabric_rng_.reseed(sim::splitmix64(s));
  antagonist_seed_ = sim::splitmix64(s);

  if (cfg_.warmup >= cfg_.stop) {
    // An empty (or negative) measurement window silently zeroes every rate
    // in report(); fail loudly like the catalog validator does.
    throw std::invalid_argument("serve: warmup must be earlier than stop");
  }
  if (cfg_.gtm.hedge.pct < 0.0 || cfg_.gtm.hedge.pct >= 100.0) {
    throw std::invalid_argument("serve: hedge_pct must be in [0, 100)");
  }
  validate_classes();

  for (const auto& cls : classes_) {
    total_weight_ += cls.weight;
    int t = -1;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      if (tenants_[i] == cls.tenant) {
        t = static_cast<int>(i);
        break;
      }
    }
    if (t < 0) {
      t = static_cast<int>(tenants_.size());
      tenants_.push_back(cls.tenant);
    }
    tenant_of_class_.push_back(t);
  }
  local_rr_.assign(tenants_.size(), 0);
  class_acc_.resize(classes_.size());

  const int ccds = platform.ccd_count();
  const int ccxs = platform.ccx_per_ccd();
  workers_.reserve(static_cast<std::size_t>(ccds * ccxs));
  quadrant_workers_.assign(kQuadrants, {});
  for (int ccd = 0; ccd < ccds; ++ccd) {
    for (int ccx = 0; ccx < ccxs; ++ccx) {
      Worker w;
      w.index = static_cast<int>(workers_.size());
      w.ccd = ccd;
      w.ccx = ccx;
      w.dram_all = platform.dram_paths_all(ccd, ccx);
      w.dram_near = platform.dram_paths_at(ccd, ccx, topo::DimmPosition::kNear);
      if (platform.has_cxl()) w.cxl = &platform.cxl_path(ccd, ccx);
      w.read_pools = platform.pools_for(ccd, ccx, fabric::Op::kRead);
      w.write_pools = platform.pools_for(ccd, ccx, fabric::Op::kWrite);
      quadrant_workers_[ccd % kQuadrants].push_back(w.index);
      workers_.push_back(std::move(w));
    }
  }

  pred_ns_.assign(static_cast<std::size_t>(ccds), 0.0);
  last_gmi_bytes_.assign(static_cast<std::size_t>(ccds), 0.0);

  // The living CXL tier. Built only when asked for, so the kOff default
  // leaves the pre-tier code paths (and their goldens) untouched; the
  // TieredMemory ctor rejects configs this platform cannot host.
  if (cfg_.tier.mode != tier::Mode::kOff) {
    tiered_ = std::make_unique<tier::TieredMemory>(simulator, platform, cfg_.tier);
  }

  // GTM wiring: per-class admission buckets and hedge-delay estimators (the
  // queue discipline is applied per push, by queue_key). The default policy
  // (FIFO / none / off) configures nothing that changes behavior.
  {
    std::vector<double> weights;
    std::vector<sim::Tick> slos;
    weights.reserve(classes_.size());
    slos.reserve(classes_.size());
    for (const auto& cls : classes_) {
      weights.push_back(cls.weight);
      slos.push_back(cls.slo);
    }
    admission_.configure(cfg_.gtm.admission, weights);
    hedge_.configure(cfg_.gtm.hedge, slos);
  }

  // Scheduler warm-up hints (performance only, never ordering): size the
  // event queue and this thread's walk pool for the serving concurrency
  // bound — every worker slot can hold a request with a handful of fabric
  // legs in flight — so slab/vector growth happens here, not mid-measurement.
  const std::size_t inflight = workers_.size() * static_cast<std::size_t>(kWorkerSlots);
  sim_->reserve_events(inflight * 4 + 64);
  fabric::reserve_walks(inflight * 2 + 32);
  // Fabric legs dominate the event mix; their serialization times sit at the
  // nanosecond scale, which seeds the wheel's bucket-width tuner close to its
  // steady state instead of letting the first requests drag the EMA there.
  sim_->hint_event_gap(sim::from_ns(2.0));
}

ServerSim::~ServerSim() = default;

void ServerSim::validate_classes() const {
  if (classes_.empty()) throw std::invalid_argument("serve: empty request catalog");
  for (const auto& cls : classes_) {
    if (cls.stages.empty()) {
      throw std::invalid_argument("serve: class '" + cls.name + "' has no stages");
    }
    if (cls.weight <= 0.0) {
      throw std::invalid_argument("serve: class '" + cls.name + "' weight must be > 0");
    }
    if (cls.priority < 0) {
      throw std::invalid_argument("serve: class '" + cls.name + "' priority must be >= 0");
    }
    for (std::size_t j = 0; j < cls.stages.size(); ++j) {
      const Stage& st = cls.stages[j];
      if (st.chunks <= 0) {
        throw std::invalid_argument("serve: stage '" + st.name + "' chunks must be > 0");
      }
      if (st.kind == StageKind::kCxlRead && !platform_->has_cxl()) {
        throw std::invalid_argument("serve: class '" + cls.name +
                                    "' needs a CXL tier this platform lacks");
      }
      for (std::size_t d = 0; d < st.deps.size(); ++d) {
        const int dep = st.deps[d];
        // Deps must point at earlier stages: topological by construction,
        // which is what makes cycles impossible to express.
        if (dep < 0 || static_cast<std::size_t>(dep) >= j) {
          throw std::invalid_argument("serve: stage '" + st.name + "' dep out of range");
        }
        for (std::size_t e = 0; e < d; ++e) {
          if (st.deps[e] == dep) {
            throw std::invalid_argument("serve: stage '" + st.name + "' duplicate dep");
          }
        }
      }
    }
  }
}

void ServerSim::start() {
  if (started_) return;
  started_ = true;

  if (cfg_.antagonist) {
    for (int i = 0; i < kAntagonistFlows; ++i) {
      traffic::StreamFlow::Config fc;
      fc.name = "antagonist" + std::to_string(i);
      fc.op = fabric::Op::kRead;
      const int ccx = i % platform_->ccx_per_ccd();
      fc.paths = platform_->dram_paths_at(0, ccx, topo::DimmPosition::kNear);
      fc.pools = platform_->pools_for(0, ccx, fabric::Op::kRead);
      fc.window = platform_->params().core_read_window;
      fc.stop_at = cfg_.stop;
      fc.seed = antagonist_seed_ + static_cast<std::uint64_t>(i);
      antagonists_.push_back(std::make_unique<traffic::StreamFlow>(*sim_, std::move(fc)));
      antagonists_.back()->start();
    }
  }

  if (cfg_.policy == Policy::kTelemetry) {
    for (std::size_t c = 0; c < pred_ns_.size(); ++c) {
      const Worker& w = workers_[c * static_cast<std::size_t>(platform_->ccx_per_ccd())];
      pred_ns_[c] = model::loaded_latency_ns(w.dram_near, fabric::kCachelineBytes, 0.0);
    }
    sim_->schedule(kTelemetryEpoch, [this] { telemetry_tick(); });
  }

  if (tiered_) tiered_->start(cfg_.stop);

  // A trace that is already exhausted (an empty trace file) offers nothing.
  if (!cfg_.external_arrivals && !arrivals_.exhausted()) {
    sim_->schedule(arrivals_.next_gap(), [this] { on_arrival(); });
  }
}

void ServerSim::run(sim::Tick max_drain) {
  sim_->run_until(cfg_.stop);
  // Drain in bounded run_until() chunks rather than raw step(): run_until
  // never carries the clock past its deadline, so a cluster epoch engine
  // advancing this simulator in fixed slices executes the identical
  // completion set and produces a bit-identical report.
  const sim::Tick deadline = cfg_.stop + max_drain;
  const sim::Tick chunk = std::max<sim::Tick>(max_drain / 64, 1);
  while (outstanding_ > 0 && sim_->now() < deadline) {
    sim_->run_until(std::min<sim::Tick>(sim_->now() + chunk, deadline));
  }
}

void ServerSim::on_arrival() {
  const sim::Tick now = sim_->now();
  if (now >= cfg_.stop) return;
  admit(pick_class(), now);
  if (arrivals_.exhausted()) return;  // trace ran out: the schedule is over
  sim_->schedule(arrivals_.next_gap(), [this] { on_arrival(); });
}

void ServerSim::inject(int cls, sim::Tick origin) {
  if (cls < 0 || static_cast<std::size_t>(cls) >= classes_.size()) {
    throw std::out_of_range("serve: inject() class index out of range");
  }
  admit(cls, origin);
}

void ServerSim::admit(int cls, sim::Tick origin) {
  const bool measured = origin >= cfg_.warmup;
  if (measured) ++class_acc_[static_cast<std::size_t>(cls)].arrivals;

  // Admission is the GTM's front door: a rejected request costs nothing
  // downstream and is accounted as its own outcome, not an SLO violation.
  if (!admission_.admit(static_cast<std::size_t>(cls), sim_->now(), outstanding_)) {
    if (measured) ++class_acc_[static_cast<std::size_t>(cls)].rejected;
    return;
  }

  Request* r = make_request(cls, origin);
  ++outstanding_;
  enqueue(r, place(cls));
  if (hedge_.enabled()) arm_hedge(r);
}

ServerSim::Request* ServerSim::make_request(int cls, sim::Tick origin) {
  auto owned = std::make_unique<Request>();
  Request* r = owned.get();
  r->id = next_id_++;
  r->cls = cls;
  r->arrived = origin;
  r->measured = origin >= cfg_.warmup;
  const auto& stages = classes_[static_cast<std::size_t>(cls)].stages;
  r->stages_left = static_cast<int>(stages.size());
  r->runs.resize(stages.size());
  for (std::size_t j = 0; j < stages.size(); ++j) {
    r->runs[j].deps_left = static_cast<int>(stages[j].deps.size());
  }
  requests_.push_back(std::move(owned));
  return r;
}

std::uint64_t ServerSim::queue_key(const Request* r) const {
  switch (cfg_.gtm.discipline) {
    case gtm::Discipline::kFifo:
      return 0;  // ties throughout: pops follow the admission id
    case gtm::Discipline::kPriority:
      return static_cast<std::uint64_t>(classes_[static_cast<std::size_t>(r->cls)].priority);
    case gtm::Discipline::kEdf:
      // Absolute deadline: arrival (front-end origin for injected requests,
      // shared by a hedged pair) plus the class SLO. Ticks are non-negative.
      return static_cast<std::uint64_t>(r->arrived +
                                        classes_[static_cast<std::size_t>(r->cls)].slo);
  }
  return 0;
}

void ServerSim::enqueue(Request* r, int wi) {
  Worker& w = workers_[static_cast<std::size_t>(wi)];
  r->worker = &w;
  ++w.served;
  if (cfg_.on_placed) cfg_.on_placed(r->id, wi);
  w.queue.push(r, queue_key(r), r->id);
  dispatch(w);
}

int ServerSim::pick_class() {
  double x = class_rng_.uniform() * total_weight_;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    x -= classes_[i].weight;
    if (x < 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(classes_.size()) - 1;
}

int ServerSim::place(int cls) {
  switch (cfg_.policy) {
    case Policy::kRoundRobin:
      return static_cast<int>(rr_next_++ % workers_.size());
    case Policy::kLocal: {
      const int tenant = tenant_of_class_[static_cast<std::size_t>(cls)];
      const auto& home = quadrant_workers_[static_cast<std::size_t>(tenant % kQuadrants)];
      if (home.empty()) return static_cast<int>(rr_next_++ % workers_.size());
      auto& cursor = local_rr_[static_cast<std::size_t>(tenant)];
      return home[cursor++ % home.size()];
    }
    case Policy::kTelemetry: {
      // Model-predicted per-CCD latency, scaled by how busy the worker
      // already is; ties break toward the lowest index.
      double best = 0.0;
      int best_index = -1;
      for (const Worker& w : workers_) {
        const double busy =
            1.0 + static_cast<double>(w.in_flight) + static_cast<double>(w.queue.size());
        const double score = pred_ns_[static_cast<std::size_t>(w.ccd)] * busy;
        if (best_index < 0 || score < best) {
          best = score;
          best_index = w.index;
        }
      }
      return best_index;
    }
  }
  return 0;
}

void ServerSim::dispatch(Worker& worker) {
  while (worker.in_flight < kWorkerSlots && !worker.queue.empty()) {
    Request* r = worker.queue.pop();
    if (r->cancelled) {
      // Mate completed while this copy was still queued: it never took a
      // slot, so it just retires here.
      release_cancelled(r);
      continue;
    }
    ++worker.in_flight;
    r->in_service = true;
    begin_service(r);
  }
}

void ServerSim::begin_service(Request* r) {
  const auto& stages = classes_[static_cast<std::size_t>(r->cls)].stages;
  for (std::size_t j = 0; j < stages.size(); ++j) {
    if (r->runs[j].deps_left == 0) start_stage(r, static_cast<int>(j));
  }
}

void ServerSim::start_stage(Request* r, int si) {
  const Stage& st = classes_[static_cast<std::size_t>(r->cls)].stages[static_cast<std::size_t>(si)];
  if (st.kind == StageKind::kCompute) {
    // A chain of dependent L3 hits: pure on-chiplet latency, no fabric
    // traffic and no token-pool pressure.
    const sim::Tick d = static_cast<sim::Tick>(st.chunks) * platform_->params().l3_lat;
    ++r->pending_ops;
    sim_->schedule(d, [this, r, si] {
      if (op_done_cancelled(r)) return;
      finish_stage(r, si);
    });
    return;
  }
  stage_issue(r, si);
}

void ServerSim::stage_issue(Request* r, int si) {
  if (r->cancelled) return;  // a cancelled request stops issuing new work
  const Stage& st = classes_[static_cast<std::size_t>(r->cls)].stages[static_cast<std::size_t>(si)];
  auto& run = r->runs[static_cast<std::size_t>(si)];
  const int window = st.window > 0 ? static_cast<int>(st.window) : 1;
  while (run.inflight < window && run.issued < st.chunks) {
    ++run.issued;
    ++run.inflight;
    issue_one(r, si);
  }
}

void ServerSim::issue_one(Request* r, int si) {
  const Stage& st = classes_[static_cast<std::size_t>(r->cls)].stages[static_cast<std::size_t>(si)];
  Worker* w = r->worker;
  auto& run = r->runs[static_cast<std::size_t>(si)];

  fabric::Path* path = nullptr;
  if (tiered_ && (st.kind == StageKind::kDramRead || st.kind == StageKind::kCxlRead)) {
    // Live tier: the stage's nominal kind names the *segment* its working
    // set lives in (DRAM-resident prefix vs CXL-resident remainder); the
    // chunk hash picks a region inside that segment's drifting window, and
    // the region's current home decides which path this read really takes.
    // The hash is a fixed mix of (request id, stage, chunk) — not an RNG
    // stream — so the access pattern is a pure function of the request
    // sequence and simulated time.
    std::uint64_t mix = r->id * 0x9e3779b97f4a7c15ULL +
                        static_cast<std::uint64_t>(si) * 0xbf58476d1ce4e5b9ULL +
                        static_cast<std::uint64_t>(run.issued);
    const int region =
        tiered_->map_region(st.kind == StageKind::kCxlRead, sim::splitmix64(mix), sim_->now());
    if (tiered_->access(region) == tier::Home::kCxl) {
      path = w->cxl;
    } else {
      const auto& paths = cfg_.policy == Policy::kRoundRobin ? w->dram_all : w->dram_near;
      path = paths[run.rr++ % paths.size()];
    }
  } else if (st.kind == StageKind::kCxlRead) {
    path = w->cxl;
  } else {
    // Round-robin placement interleaves over every UMC (NPS1); the
    // topology-aware policies keep traffic on position-local DIMMs.
    const auto& paths = cfg_.policy == Policy::kRoundRobin ? w->dram_all : w->dram_near;
    path = paths[run.rr++ % paths.size()];
  }

  const fabric::Op op =
      st.kind == StageKind::kDramWrite ? fabric::Op::kWrite : fabric::Op::kRead;
  const auto* pools = op == fabric::Op::kWrite ? &w->write_pools : &w->read_pools;
  ++r->pending_ops;
  fabric::acquire_chain(
      *sim_, *pools, [this, r, si, path, op, bytes = st.chunk_bytes, pools] {
        // `pools` points at the worker (owned by this ServerSim, outlives
        // every transaction); the release closure must not reference `r`,
        // which may already be finalized when the tokens come back.
        if (r->cancelled) {
          // Cancelled while waiting for tokens: hand them straight back
          // instead of running a transaction nobody will consume.
          fabric::release_chain(*sim_, *pools);
          (void)op_done_cancelled(r);
          return;
        }
        fabric::run_transaction(
            *sim_, *path, op, bytes, &fabric_rng_,
            [this, r, si](const fabric::Completion&) { on_txn_done(r, si); },
            [this, pools] { fabric::release_chain(*sim_, *pools); });
      });
}

void ServerSim::on_txn_done(Request* r, int si) {
  if (op_done_cancelled(r)) return;
  const Stage& st = classes_[static_cast<std::size_t>(r->cls)].stages[static_cast<std::size_t>(si)];
  auto& run = r->runs[static_cast<std::size_t>(si)];
  --run.inflight;
  ++run.completed;
  if (run.completed == st.chunks) {
    finish_stage(r, si);
  } else {
    stage_issue(r, si);
  }
}

void ServerSim::finish_stage(Request* r, int si) {
  if (cfg_.on_stage_done) cfg_.on_stage_done(r->id, si);
  if (--r->stages_left == 0) {
    complete(r);
    return;
  }
  const auto& stages = classes_[static_cast<std::size_t>(r->cls)].stages;
  for (std::size_t j = 0; j < stages.size(); ++j) {
    auto& rj = r->runs[j];
    if (rj.deps_left == 0) continue;  // already started (or ready)
    for (const int d : stages[j].deps) {
      if (d == si) {
        if (--rj.deps_left == 0) start_stage(r, static_cast<int>(j));
        break;
      }
    }
  }
}

// ---- hedging ---------------------------------------------------------------

void ServerSim::arm_hedge(Request* r) {
  // One timer per admitted request; at the configured percentile of the
  // class's observed latency the request is duplicated to another CCD.
  // Requests_ entries are never freed while the server lives, so capturing
  // the raw pointer is safe even if the request finishes first.
  sim_->schedule(hedge_.delay(static_cast<std::size_t>(r->cls)), [this, r] { maybe_hedge(r); });
}

void ServerSim::maybe_hedge(Request* r) {
  if (r->finished || r->cancelled || r->mate != nullptr) return;
  const int wi = pick_hedge_worker(r->worker->ccd);
  if (wi < 0) return;  // single-CCD platform: no second site to hedge to
  Request* dup = make_request(r->cls, r->arrived);
  dup->duplicate = true;
  dup->mate = r;
  r->mate = dup;
  if (r->measured) ++hedges_;
  ++outstanding_;
  enqueue(dup, wi);
}

int ServerSim::pick_hedge_worker(int avoid_ccd) const {
  // Least-loaded worker on any *other* CCD, ties to the lowest index: a
  // deterministic choice that lands the duplicate off the congested chiplet
  // regardless of the placement policy in force.
  int best_index = -1;
  std::uint64_t best_load = 0;
  for (const Worker& w : workers_) {
    if (w.ccd == avoid_ccd) continue;
    const std::uint64_t load = static_cast<std::uint64_t>(w.in_flight) + w.queue.size();
    if (best_index < 0 || load < best_load) {
      best_load = load;
      best_index = w.index;
    }
  }
  return best_index;
}

void ServerSim::cancel(Request* r) {
  r->cancelled = true;
  if (!r->in_service) return;          // still queued: retired lazily at pop
  if (r->pending_ops == 0) release_cancelled(r);
  // Otherwise in-flight fabric legs / timers drain through
  // op_done_cancelled(), which retires the request on the last one.
}

void ServerSim::release_cancelled(Request* r) {
  r->finished = true;
  --outstanding_;
  if (r->in_service) {
    Worker& w = *r->worker;
    --w.in_flight;
    r->in_service = false;
    dispatch(w);
  }
}

bool ServerSim::op_done_cancelled(Request* r) {
  --r->pending_ops;
  if (!r->cancelled) return false;
  if (r->pending_ops == 0) release_cancelled(r);
  return true;
}

// ----------------------------------------------------------------------------

void ServerSim::complete(Request* r) {
  r->finished = true;
  Worker& w = *r->worker;
  --w.in_flight;
  r->in_service = false;
  --outstanding_;
  // First completion wins: the mate (if any) is cancelled before accounting,
  // so a hedged pair contributes exactly one completion.
  if (r->mate != nullptr && !r->mate->finished) cancel(r->mate);
  if (r->measured) {
    auto& acc = class_acc_[static_cast<std::size_t>(r->cls)];
    const sim::Tick e2e = sim_->now() - r->arrived;
    ++acc.completed;
    acc.e2e.record(e2e);
    if (e2e <= classes_[static_cast<std::size_t>(r->cls)].slo) ++acc.in_slo;
    if (sim_->now() > completed_end_) completed_end_ = sim_->now();
    if (r->duplicate) ++hedge_wins_;
  }
  // Feed the hedge-delay estimator with every completion (warmup included):
  // the estimator wants samples, only the report excludes the warmup.
  if (hedge_.enabled()) {
    hedge_.observe(static_cast<std::size_t>(r->cls), sim_->now() - r->arrived);
  }
  dispatch(w);
}

void ServerSim::telemetry_tick() {
  const sim::Tick now = sim_->now();
  const double epoch_ns = sim::to_ns(kTelemetryEpoch);
  const auto ccxs = static_cast<std::size_t>(platform_->ccx_per_ccd());
  for (std::size_t c = 0; c < pred_ns_.size(); ++c) {
    const int ccd = static_cast<int>(c);
    const double bytes =
        platform_->gmi_up(ccd).bytes_total() + platform_->gmi_down(ccd).bytes_total();
    const double gbps = (bytes - last_gmi_bytes_[c]) / epoch_ns;
    last_gmi_bytes_[c] = bytes;
    pred_ns_[c] = model::loaded_latency_ns(workers_[c * ccxs].dram_near,
                                           fabric::kCachelineBytes, gbps);
  }
  if (now < cfg_.stop) {
    sim_->schedule(kTelemetryEpoch, [this] { telemetry_tick(); });
  }
}

Report ServerSim::report() const {
  Report rep;
  // Offered load is judged against the arrival window (arrivals stop at
  // `stop`), but completion rates must use the drained end time: requests
  // finishing after `stop` are counted, so crediting them to the shorter
  // window would overstate achieved throughput and goodput.
  const double window_us = sim::to_us(cfg_.stop - cfg_.warmup);
  const double drained_us = sim::to_us(measured_end() - cfg_.warmup);
  stats::Histogram all;
  std::vector<double> tenant_goodput(tenants_.size(), 0.0);
  std::vector<double> tenant_weight(tenants_.size(), 0.0);

  for (std::size_t i = 0; i < classes_.size(); ++i) {
    const auto& acc = class_acc_[i];
    ClassReport c;
    c.name = classes_[i].name;
    c.tenant = classes_[i].tenant;
    c.arrivals = acc.arrivals;
    c.completed = acc.completed;
    c.in_slo = acc.in_slo;
    c.rejected = acc.rejected;
    if (!acc.e2e.empty()) {
      c.mean_ns = acc.e2e.mean() / 1000.0;
      c.p50_ns = static_cast<double>(acc.e2e.p50()) / 1000.0;
      c.p99_ns = static_cast<double>(acc.e2e.p99()) / 1000.0;
      c.p999_ns = static_cast<double>(acc.e2e.p999()) / 1000.0;
    }
    // Violations are judged over *admitted* requests: a rejection is its own
    // outcome (rejected_frac), not a missed deadline. With admission off the
    // formulas coincide with the pre-GTM ones exactly.
    const std::uint64_t admitted = acc.arrivals - acc.rejected;
    if (admitted > 0) {
      c.slo_violation_frac =
          1.0 - static_cast<double>(acc.in_slo) / static_cast<double>(admitted);
    }
    if (acc.arrivals > 0) {
      c.rejected_frac = static_cast<double>(acc.rejected) / static_cast<double>(acc.arrivals);
    }
    if (drained_us > 0.0) c.goodput_per_us = static_cast<double>(acc.in_slo) / drained_us;

    rep.arrivals += acc.arrivals;
    rep.completed += acc.completed;
    rep.in_slo += acc.in_slo;
    rep.rejected += acc.rejected;
    all.merge(acc.e2e);
    const auto t = static_cast<std::size_t>(tenant_of_class_[i]);
    tenant_goodput[t] += static_cast<double>(acc.in_slo);
    tenant_weight[t] += classes_[i].weight;
    rep.classes.push_back(std::move(c));
  }

  if (window_us > 0.0) {
    rep.offered_per_us = static_cast<double>(rep.arrivals) / window_us;
  }
  if (drained_us > 0.0) {
    rep.achieved_per_us = static_cast<double>(rep.completed) / drained_us;
    rep.goodput_per_us = static_cast<double>(rep.in_slo) / drained_us;
  }
  if (!all.empty()) {
    rep.mean_ns = all.mean() / 1000.0;
    rep.p50_ns = static_cast<double>(all.p50()) / 1000.0;
    rep.p99_ns = static_cast<double>(all.p99()) / 1000.0;
    rep.p999_ns = static_cast<double>(all.p999()) / 1000.0;
  }
  const std::uint64_t admitted_total = rep.arrivals - rep.rejected;
  if (admitted_total > 0) {
    rep.slo_violation_frac =
        1.0 - static_cast<double>(rep.in_slo) / static_cast<double>(admitted_total);
  }
  if (rep.arrivals > 0) {
    rep.rejected_frac = static_cast<double>(rep.rejected) / static_cast<double>(rep.arrivals);
  }
  rep.hedges = hedges_;
  rep.hedge_wins = hedge_wins_;

  // Fairness over weight-normalized tenant goodput: a tenant with twice the
  // arrival weight is entitled to twice the goodput.
  std::vector<double> shares;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    if (tenant_weight[t] > 0.0) shares.push_back(tenant_goodput[t] / tenant_weight[t]);
  }
  rep.jain_tenant_fairness = stats::jain_index(shares);

  if (tiered_) {
    const tier::TierStats& ts = tiered_->stats();
    rep.tier_accesses = ts.accesses;
    rep.tier_dram_hits = ts.dram_hits;
    rep.tier_promotions = ts.promotions;
    rep.tier_demotions = ts.demotions;
    rep.tier_migrated_bytes = ts.migrated_bytes;
    rep.tier_deferred = ts.deferred;
    rep.tier_hit_ratio = ts.hit_ratio();
  }

  rep.served_per_worker.reserve(workers_.size());
  for (const Worker& w : workers_) rep.served_per_worker.push_back(w.served);
  return rep;
}

}  // namespace scn::serve

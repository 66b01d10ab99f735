#include "cluster/cluster.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

#include "exec/sweep.hpp"
#include "stats/fairness.hpp"
#include "topo/platform.hpp"

namespace scn::cluster {
namespace {

/// Sentinel for "the arrival stream ran dry": far enough in the future that
/// no routing boundary can reach it, small enough that arithmetic on it
/// cannot overflow.
constexpr sim::Tick kNoMoreArrivals = std::numeric_limits<sim::Tick>::max() / 2;

/// Epoch windows of length `epoch` needed to cover (from, to]. Both engines
/// credit epochs through this, so ClusterReport::epochs is engine-invariant.
[[nodiscard]] constexpr std::uint64_t epoch_windows(sim::Tick from, sim::Tick to,
                                                    sim::Tick epoch) noexcept {
  return to > from ? static_cast<std::uint64_t>((to - from + epoch - 1) / epoch) : 0u;
}

}  // namespace

std::uint64_t server_seed(std::uint64_t cluster_seed, int server) noexcept {
  return exec::point_seed(cluster_seed, static_cast<std::uint64_t>(server));
}

// ---- one server instance ---------------------------------------------------

struct ClusterSim::Instance {
  sim::Simulator sim;
  std::unique_ptr<topo::Platform> platform;
  std::unique_ptr<serve::ServerSim> server;
  std::exception_ptr build_error;

  /// A forward routed at boundary `route_at`, to be injected at `deliver`.
  /// The balancer records these on the main thread; the instance's shard
  /// pushes each one into the event queue only once the instance has
  /// executed up to `route_at` — the same clock the per-epoch engine pushed
  /// at — so fused batches preserve the exact same-tick event order (the
  /// queue breaks time ties by push sequence).
  struct PendingForward {
    sim::Tick route_at;
    sim::Tick deliver;
    int cls;
    sim::Tick origin;
  };

  // Front-end state for this server, touched only by the main thread between
  // barriers (link_busy, snapshots, pending) or by this instance's own
  // delivery events on its shard (inflight_forwards decrement).
  std::vector<PendingForward> pending;
  sim::Tick link_busy = 0;          ///< NIC ingress FIFO: busy-until time
  std::uint64_t forwarded = 0;      ///< requests the balancer sent here
  int inflight_forwards = 0;        ///< forwarded but not yet delivered
  int snap_outstanding = 0;         ///< outstanding at the last boundary
  double gmi_last_bytes = 0.0;      ///< GMI byte counter at the last epoch
  double gmi_delta = 0.0;           ///< bytes moved in the last epoch
};

ClusterSim::ClusterSim(ClusterConfig config) : cfg_(std::move(config)), class_rng_(0) {
  if (cfg_.servers.empty()) {
    throw std::invalid_argument("cluster: at least one server is required");
  }
  if (cfg_.warmup >= cfg_.stop) {
    throw std::invalid_argument("cluster: warmup must be earlier than stop");
  }
  if (cfg_.antagonist_server >= static_cast<int>(cfg_.servers.size())) {
    throw std::invalid_argument("cluster: antagonist_server out of range");
  }
  if (cfg_.link.latency < 0 || cfg_.link.request_bytes < 0.0) {
    throw std::invalid_argument("cluster: link latency and request bytes must be >= 0");
  }

  // Shared catalog: class indices must mean the same thing on every server.
  // When any box lacks a CXL tier, build the default catalog from such a box
  // so the CXL-tiered class is dropped cluster-wide rather than crashing the
  // servers that cannot serve it.
  if (!cfg_.classes.empty()) {
    catalog_ = cfg_.classes;
  } else {
    const topo::PlatformParams* base = &cfg_.servers.front();
    for (const auto& p : cfg_.servers) {
      if (!p.has_cxl()) {
        base = &p;
        break;
      }
    }
    catalog_ = serve::default_classes(*base);
  }

  // Lookahead bound: every forward issued in epoch [T, T+E) delivers at or
  // after T+E when E == link latency, so instances can run an epoch without
  // seeing each other. A zero-latency link degenerates to one-tick epochs.
  epoch_ = std::max<sim::Tick>(cfg_.link.latency, 1);

  // Front-end streams, salted so they cannot collide with the per-server
  // seed chain (server_seed derives from cfg_.seed too).
  std::uint64_t s = cfg_.seed ^ 0x9e3779b97f4a7c15ULL;
  arrivals_ = std::make_unique<serve::ArrivalProcess>(cfg_.arrival, sim::splitmix64(s));
  class_rng_.reseed(sim::splitmix64(s));

  const int n = static_cast<int>(cfg_.servers.size());
  const int jobs = std::min(std::max(cfg_.jobs, 1), n);
  lockstep_ = std::make_unique<exec::Lockstep>(jobs > 1 ? jobs : 0);
  lockstep_->set_work([this](int shard) {
    const int stride = std::max(lockstep_->shards(), 1);
    const int count = static_cast<int>(instances_.size());
    for (int i = shard; i < count; i += stride) {
      advance_instance(*instances_[static_cast<std::size_t>(i)], advance_target_);
    }
  });

  instances_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) instances_.push_back(std::make_unique<Instance>());
  for (int i = 0; i < n; ++i) {
    Instance* inst = instances_[static_cast<std::size_t>(i)].get();
    serve::ServerConfig sc;
    sc.policy = cfg_.placement;
    sc.gtm = cfg_.gtm;
    sc.arrival = cfg_.arrival;
    sc.classes = catalog_;
    sc.warmup = cfg_.warmup;
    sc.stop = cfg_.stop;
    sc.external_arrivals = !cfg_.local_arrivals;
    sc.seed = server_seed(cfg_.seed, i);
    sc.antagonist = i == cfg_.antagonist_server;
    // Tiering applies per box, and only where there is a CXL device to tier
    // against: a heterogeneous rack keeps its DRAM-only servers on the exact
    // pre-tier code paths rather than failing the whole cluster build.
    sc.tier = cfg_.tier;
    if (!cfg_.servers[static_cast<std::size_t>(i)].has_cxl()) sc.tier.mode = tier::Mode::kOff;
    lockstep_->post(i, [inst, params = cfg_.servers[static_cast<std::size_t>(i)],
                        sc = std::move(sc)]() mutable {
      try {
        inst->platform = std::make_unique<topo::Platform>(inst->sim, std::move(params));
        inst->server =
            std::make_unique<serve::ServerSim>(inst->sim, *inst->platform, std::move(sc));
        inst->server->start();
      } catch (...) {
        inst->build_error = std::current_exception();
      }
    });
  }
  lockstep_->drain();
  for (const auto& inst : instances_) {
    if (inst->build_error) std::rethrow_exception(inst->build_error);
  }
}

ClusterSim::~ClusterSim() {
  // Teardown must also happen on each instance's shard: in-flight fabric
  // walks drain back into the thread-local pool they were carved from. That
  // includes the walks still held by pending events when a drain deadline
  // cut the run short, so the event queue is emptied there too.
  for (int i = 0; i < static_cast<int>(instances_.size()); ++i) {
    Instance* inst = instances_[static_cast<std::size_t>(i)].get();
    lockstep_->post(i, [inst] {
      inst->server.reset();
      inst->platform.reset();
      inst->sim.reset();
    });
  }
  lockstep_->drain();
}

const serve::ServerSim& ClusterSim::server(int i) const {
  return *instances_[static_cast<std::size_t>(i)]->server;
}

int ClusterSim::pick_class() {
  double total = 0.0;
  for (const auto& cls : catalog_) total += cls.weight;
  double x = class_rng_.uniform() * total;
  for (std::size_t i = 0; i < catalog_.size(); ++i) {
    x -= catalog_[i].weight;
    if (x < 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(catalog_.size()) - 1;
}

int ClusterSim::pick_server() {
  const int n = static_cast<int>(instances_.size());
  switch (cfg_.lb) {
    case LbPolicy::kRoundRobin:
      return static_cast<int>(rr_next_++ % static_cast<std::size_t>(n));
    case LbPolicy::kLeastOutstanding: {
      int best = 0;
      long best_load = 0;
      for (int i = 0; i < n; ++i) {
        const Instance& inst = *instances_[static_cast<std::size_t>(i)];
        const long load = inst.snap_outstanding + inst.inflight_forwards;
        if (i == 0 || load < best_load) {
          best = i;
          best_load = load;
        }
      }
      return best;
    }
    case LbPolicy::kTelemetry: {
      // Fabric pressure (GMI bytes moved last epoch) scaled by how much work
      // the server already holds: a box whose links an antagonist saturates
      // scores high even when its request queue looks as short as anyone's.
      const double epoch_ns = sim::to_ns(epoch_);
      int best = 0;
      double best_score = 0.0;
      for (int i = 0; i < n; ++i) {
        const Instance& inst = *instances_[static_cast<std::size_t>(i)];
        const double gbps = epoch_ns > 0.0 ? inst.gmi_delta / epoch_ns : 0.0;
        const double load =
            1.0 + static_cast<double>(inst.snap_outstanding + inst.inflight_forwards);
        const double score = (1.0 + gbps) * load;
        if (i == 0 || score < best_score) {
          best = i;
          best_score = score;
        }
      }
      return best;
    }
  }
  return 0;
}

void ClusterSim::forward(int target, int cls, sim::Tick at) {
  Instance& inst = *instances_[static_cast<std::size_t>(target)];
  const sim::Tick start = std::max(at, inst.link_busy);
  inst.link_busy = start + sim::serialization_ticks(cfg_.link.request_bytes, cfg_.link.bytes_per_ns);
  const sim::Tick deliver = inst.link_busy + cfg_.link.latency;
  link_wait_ticks_ += static_cast<double>(start - at);
  ++forwarded_;
  ++inst.forwarded;
  ++inst.inflight_forwards;
  // Origin is the front-end arrival time: serialization wait and propagation
  // count against the request's end-to-end latency and SLO. The event itself
  // is pushed by the instance's shard when it reaches route_at_ (see
  // advance_instance), not here — routing may run many epochs ahead.
  inst.pending.push_back({route_at_, deliver, cls, at});
}

void ClusterSim::route_epoch(sim::Tick from, sim::Tick to) {
  route_at_ = from;
  while (next_arrival_ < to) {
    forward(pick_server(), pick_class(), next_arrival_);
    if (arrivals_->exhausted()) {  // finite trace ran dry: no more forwards
      next_arrival_ = kNoMoreArrivals;
      break;
    }
    next_arrival_ += arrivals_->next_gap();
  }
}

void ClusterSim::advance_instance(Instance& inst, sim::Tick target) {
  serve::ServerSim* srv = inst.server.get();
  Instance* self = &inst;
  for (const Instance::PendingForward& fwd : inst.pending) {
    // Reach the routing boundary first: the per-epoch engine pushed this
    // delivery after every event <= route_at had executed, and same-tick
    // order is push order, so the replay must do exactly the same.
    if (fwd.route_at > inst.sim.now()) inst.sim.run_until(fwd.route_at);
    inst.sim.schedule_at(fwd.deliver, [srv, self, cls = fwd.cls, at = fwd.origin] {
      --self->inflight_forwards;
      srv->inject(cls, at);
    });
  }
  inst.pending.clear();
  inst.sim.run_until(target);
}

void ClusterSim::advance_all(sim::Tick boundary) {
  advance_target_ = boundary;
  lockstep_->run();
  ++barriers_run_;
}

void ClusterSim::advance_epochs(sim::Tick from, sim::Tick to) {
  if (to <= from) return;
  epochs_run_ += epoch_windows(from, to, epoch_);
  advance_all(to);
}

bool ClusterSim::needs_snapshots() const noexcept {
  return !cfg_.local_arrivals && cfg_.lb != LbPolicy::kRoundRobin;
}

bool ClusterSim::needs_gmi() const noexcept {
  return !cfg_.local_arrivals && cfg_.lb == LbPolicy::kTelemetry;
}

void ClusterSim::sample_epoch() {
  // Policies that never read a snapshot make this dead work (round-robin
  // reads nothing; local_arrivals routes nothing): skip it entirely. This is
  // behavior-neutral for both engines — the fields are only ever read by
  // pick_server.
  if (!needs_snapshots()) return;
  const bool gmi = needs_gmi();
  for (auto& owned : instances_) {
    Instance& inst = *owned;
    inst.snap_outstanding = inst.server->outstanding_requests();
    if (!gmi) continue;
    double bytes = 0.0;
    for (int ccd = 0; ccd < inst.platform->ccd_count(); ++ccd) {
      bytes += inst.platform->gmi_up(ccd).bytes_total();
      bytes += inst.platform->gmi_down(ccd).bytes_total();
    }
    inst.gmi_delta = bytes - inst.gmi_last_bytes;
    inst.gmi_last_bytes = bytes;
  }
}

void ClusterSim::sample_gmi_baseline() {
  for (auto& owned : instances_) {
    Instance& inst = *owned;
    double bytes = 0.0;
    for (int ccd = 0; ccd < inst.platform->ccd_count(); ++ccd) {
      bytes += inst.platform->gmi_up(ccd).bytes_total();
      bytes += inst.platform->gmi_down(ccd).bytes_total();
    }
    inst.gmi_last_bytes = bytes;
  }
}

bool ClusterSim::busy() const {
  for (const auto& inst : instances_) {
    if (inst->server->outstanding_requests() > 0 || inst->inflight_forwards > 0) return true;
  }
  return false;
}

void ClusterSim::run() {
  if (ran_) return;
  ran_ = true;

  if (!cfg_.local_arrivals) {
    next_arrival_ = arrivals_->exhausted() ? kNoMoreArrivals : arrivals_->next_gap();
  }

  if (cfg_.engine == Engine::kStep) {
    run_step();
  } else {
    run_fused();
  }
}

// The historical loop: route, advance, sample, one barrier per epoch. Kept
// verbatim as the equivalence oracle for the fused engine and the baseline
// for the speedup ctest.
void ClusterSim::run_step() {
  // Arrival phase: route, then advance, in lockstep epochs. Routing for
  // [now, boundary) happens strictly before any instance executes the epoch,
  // using state observed at `now` — the conservative-lookahead contract.
  sim::Tick now = 0;
  while (now < cfg_.stop) {
    const sim::Tick boundary = std::min(now + epoch_, cfg_.stop);
    if (!cfg_.local_arrivals) route_epoch(now, boundary);
    advance_all(boundary);
    sample_epoch();
    ++epochs_run_;
    now = boundary;
  }

  // Drain phase: no new arrivals; keep advancing in epochs until every
  // server is idle and no forward is on the wire, or the drain budget ends.
  const sim::Tick deadline = cfg_.stop + cfg_.max_drain;
  while (busy() && now < deadline) {
    const sim::Tick boundary = std::min(now + epoch_, deadline);
    advance_all(boundary);
    ++epochs_run_;
    now = boundary;
  }
}

// Fused engine: identical observable behavior, far fewer barriers. The
// correctness argument (DESIGN.md, "Fused lockstep barriers") rests on two
// facts: (a) a barrier is only needed where the balancer reads instance
// state or an instance must receive a delivery push in order, and
// (b) between consecutive routing boundaries nothing of the sort happens —
// so one barrier may cover the whole run, with pending deliveries replayed
// at their recorded boundaries by each shard.
void ClusterSim::run_fused() {
  sim::Tick now = 0;
  const sim::Tick stop = cfg_.stop;

  if (cfg_.local_arrivals) {
    // No front-end routing at all: the entire arrival window is one batch.
    advance_epochs(now, stop);
    now = stop;
  } else if (cfg_.lb == LbPolicy::kRoundRobin) {
    // Round-robin reads no server state — the routing sequence (rr cursor,
    // class RNG, arrival stream, link FIFOs) lives entirely on the main
    // thread, so the whole window can be routed up front and advanced in one
    // batch. Each forward is tagged with the epoch boundary the per-epoch
    // engine would have routed it at.
    while (next_arrival_ < stop) {
      route_at_ = (next_arrival_ / epoch_) * epoch_;
      forward(pick_server(), pick_class(), next_arrival_);
      if (arrivals_->exhausted()) {
        next_arrival_ = kNoMoreArrivals;
        break;
      }
      next_arrival_ += arrivals_->next_gap();
    }
    advance_epochs(now, stop);
    now = stop;
  } else {
    // Snapshot-reading policies (least-out, telemetry) must observe state at
    // every boundary that routes. Epochs with no arrival route nothing, so
    // the loop jumps from routing boundary to routing boundary: fast-forward
    // to one epoch before the next arrival's boundary, re-baseline the
    // telemetry counters there (the delta must span exactly [B-E, B], as in
    // the per-epoch engine), advance the final epoch, sample, then route.
    while (now < stop) {
      if (next_arrival_ >= stop) {
        advance_epochs(now, stop);  // no more routing: tail is one batch
        now = stop;
        break;
      }
      const sim::Tick routing = (next_arrival_ / epoch_) * epoch_;
      if (routing > now) {
        const sim::Tick pre = routing - epoch_;
        if (pre > now) advance_epochs(now, pre);
        if (needs_gmi()) sample_gmi_baseline();
        advance_epochs(std::max(pre, now), routing);
        sample_epoch();
        now = routing;
        continue;
      }
      const sim::Tick boundary = std::min(now + epoch_, stop);
      route_epoch(now, boundary);
      advance_epochs(now, boundary);
      sample_epoch();
      now = boundary;
    }
  }

  drain_fused(now);
}

// Drain with idle-epoch fast-skip: busy() can only change when an instance
// executes an event, so instead of stepping epoch by epoch the loop asks
// every instance for its next pending event and jumps straight to the first
// epoch boundary at or past the earliest one. Boundaries stay on the
// per-epoch engine's grid (stop + k*E, capped at the deadline) and every
// skipped window is credited, so epochs/busy/exit all match kStep exactly.
void ClusterSim::drain_fused(sim::Tick now) {
  const sim::Tick deadline = cfg_.stop + cfg_.max_drain;
  while (busy() && now < deadline) {
    sim::Tick next = kNoMoreArrivals;
    for (const auto& inst : instances_) {
      const sim::Tick t = inst->server->next_event_time();
      if (t != sim::Simulator::kNoPendingEvent && t < next) next = t;
    }
    sim::Tick boundary;
    if (next <= now) {
      // Cannot happen after run_until(now) — events <= now already executed —
      // but fall back to one plain epoch rather than trusting it blindly.
      boundary = std::min(now + epoch_, deadline);
    } else if (next >= deadline) {
      // Nothing due inside the budget: advance the clocks to the deadline in
      // one batch (the per-epoch loop would step there without any state
      // change and give up the same way).
      boundary = deadline;
    } else {
      const sim::Tick windows = (next - now + epoch_ - 1) / epoch_;
      boundary = std::min(now + windows * epoch_, deadline);
    }
    advance_epochs(now, boundary);
    now = boundary;
  }
}

ClusterReport ClusterSim::report() const {
  ClusterReport rep;
  rep.forwarded = forwarded_;
  rep.epochs = epochs_run_;
  rep.barriers = barriers_run_;

  stats::Histogram all;
  std::vector<double> shares;
  sim::Tick drained_end = cfg_.stop;
  for (const auto& owned : instances_) {
    const Instance& inst = *owned;
    serve::Report r = inst.server->report();
    rep.arrivals += r.arrivals;
    rep.completed += r.completed;
    rep.in_slo += r.in_slo;
    rep.rejected += r.rejected;
    rep.hedges += r.hedges;
    rep.hedge_wins += r.hedge_wins;
    rep.tier_accesses += r.tier_accesses;
    rep.tier_dram_hits += r.tier_dram_hits;
    rep.tier_promotions += r.tier_promotions;
    rep.tier_demotions += r.tier_demotions;
    rep.tier_migrated_bytes += r.tier_migrated_bytes;
    shares.push_back(static_cast<double>(r.in_slo));
    drained_end = std::max(drained_end, inst.server->measured_end());
    for (int cls = 0; cls < static_cast<int>(catalog_.size()); ++cls) {
      all.merge(inst.server->class_e2e(cls));
    }
    rep.per_server.push_back(std::move(r));
    rep.forwarded_per_server.push_back(inst.forwarded);
  }

  const double window_us = sim::to_us(cfg_.stop - cfg_.warmup);
  const double drained_us = sim::to_us(drained_end - cfg_.warmup);
  if (window_us > 0.0) rep.offered_per_us = static_cast<double>(rep.arrivals) / window_us;
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
  if (rep.arrivals > 0) {
    // Rejections are a distinct outcome, not violations: the violation
    // fraction is over admitted requests only (== arrivals when admission
    // control is off, so the pre-GTM formula is unchanged).
    const std::uint64_t admitted = rep.arrivals - rep.rejected;
    if (admitted > 0) {
      rep.slo_violation_frac =
          1.0 - static_cast<double>(rep.in_slo) / static_cast<double>(admitted);
    }
    rep.rejected_frac = static_cast<double>(rep.rejected) / static_cast<double>(rep.arrivals);
  }
  if (rep.tier_accesses > 0) {
    rep.tier_hit_ratio =
        static_cast<double>(rep.tier_dram_hits) / static_cast<double>(rep.tier_accesses);
  }
  rep.jain_server_fairness = stats::jain_index(shares);
  if (rep.forwarded > 0) {
    rep.link_wait_mean_ns = link_wait_ticks_ / 1000.0 / static_cast<double>(rep.forwarded);
  }
  return rep;
}

}  // namespace scn::cluster

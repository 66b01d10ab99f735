// Request-level serving engine on top of the chiplet-network simulator.
//
// ServerSim turns the transaction-level fabric into a servable system: an
// open-loop ArrivalProcess emits requests drawn from a weighted catalog of
// RequestClasses, a placement policy picks the worker (one per CCX) that
// serves each request, and every fabric-touching stage of the request DAG is
// issued through that worker's compute-chiplet traffic-control pools exactly
// like the traffic generators do. Per-class end-to-end latency, SLO goodput
// and cross-tenant fairness come back in a Report.
//
// Determinism contract: arrivals and the class mix are drawn from RNG
// streams that are independent of the fabric RNG, so two servers built from
// the same (seed, arrival config, classes) see the *identical* request
// sequence regardless of placement policy — policy comparisons at a fixed
// seed are paired, not merely same-distribution.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gtm/admission.hpp"
#include "gtm/hedge.hpp"
#include "gtm/policy.hpp"
#include "gtm/queue.hpp"
#include "serve/arrival.hpp"
#include "serve/placement.hpp"
#include "serve/request.hpp"
#include "stats/histogram.hpp"
#include "tier/tier.hpp"
#include "topo/platform.hpp"
#include "traffic/stream_flow.hpp"

namespace scn::serve {

struct ServerConfig {
  Policy policy = Policy::kRoundRobin;
  ArrivalConfig arrival;
  /// Global Traffic Manager policy bundle (queue discipline, admission
  /// control, hedging). The default bundle reproduces the pre-GTM server
  /// exactly: FIFO queues, admit everything, never hedge.
  gtm::TrafficPolicy gtm;
  /// Tiered-memory subsystem (mode = kOff reproduces the pre-tier server
  /// exactly: no TieredMemory is built and memory stages resolve their
  /// paths by nominal stage kind). With tracking or migration on, DRAM-read
  /// and CXL-read stages resolve their target region through the live tier
  /// map, so a stage's latency follows the region's *current* placement.
  tier::TierConfig tier;
  /// Request catalog; empty selects default_classes(platform params).
  std::vector<RequestClass> classes;
  /// Requests arriving before `warmup` load the system but are not measured.
  sim::Tick warmup = sim::from_us(40.0);
  /// Arrivals cease at `stop`; in-flight requests drain afterwards. The ctor
  /// rejects warmup >= stop (the measurement window would be empty).
  sim::Tick stop = sim::from_us(200.0);
  /// When true, the local ArrivalProcess is not armed: requests enter only
  /// via inject() (a front-end load balancer feeding this server). The
  /// antagonist and telemetry epochs still run.
  bool external_arrivals = false;
  std::uint64_t seed = 1;
  /// Colocated batch job: unthrottled streaming readers pinned to CCD 0,
  /// saturating its GMI for the whole run. This is the noisy neighbor the
  /// telemetry policy is supposed to steer around.
  bool antagonist = false;
  /// Test hooks (request id, stage index / worker index). Not for benchmarks.
  std::function<void(std::uint64_t, int)> on_stage_done;
  std::function<void(std::uint64_t, int)> on_placed;
};

struct ClassReport {
  std::string name;
  std::string tenant;
  std::uint64_t arrivals = 0;   ///< measured arrivals (after warmup)
  std::uint64_t completed = 0;
  std::uint64_t in_slo = 0;
  std::uint64_t rejected = 0;  ///< admission-control refusals (distinct outcome)
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double slo_violation_frac = 0.0;  ///< never-completed *admitted* requests count
  double rejected_frac = 0.0;       ///< rejected / arrivals
  double goodput_per_us = 0.0;      ///< SLO-compliant completions per us
};

struct Report {
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_slo = 0;
  std::uint64_t rejected = 0;    ///< admission refusals (measured window)
  std::uint64_t hedges = 0;      ///< hedge duplicates issued (measured)
  std::uint64_t hedge_wins = 0;  ///< completions where the duplicate finished first
  double offered_per_us = 0.0;
  double achieved_per_us = 0.0;
  double goodput_per_us = 0.0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double slo_violation_frac = 0.0;
  double rejected_frac = 0.0;  ///< rejected / arrivals
  /// Jain index over per-tenant goodput normalized by tenant weight.
  double jain_tenant_fairness = 1.0;
  // Tiered-memory counters (all zero with the tier off; hit ratio 1).
  std::uint64_t tier_accesses = 0;
  std::uint64_t tier_dram_hits = 0;
  std::uint64_t tier_promotions = 0;
  std::uint64_t tier_demotions = 0;
  std::uint64_t tier_migrated_bytes = 0;
  std::uint64_t tier_deferred = 0;
  double tier_hit_ratio = 1.0;
  std::vector<ClassReport> classes;
  std::vector<std::uint64_t> served_per_worker;  ///< placement decisions
};

class ServerSim {
 public:
  /// Validates the catalog (deps must reference earlier stages only, CXL
  /// stages require a CXL tier) and builds one worker per (CCD, CCX).
  ServerSim(sim::Simulator& simulator, topo::Platform& platform, ServerConfig config);
  ~ServerSim();

  ServerSim(const ServerSim&) = delete;
  ServerSim& operator=(const ServerSim&) = delete;

  /// Arm the arrival loop (and antagonist flows / telemetry epochs).
  void start();

  /// Run to `stop`, then keep stepping until every accepted request has
  /// completed or `max_drain` extra simulated time elapses. The platform's
  /// periodic noise keeps the event queue non-empty forever, so a plain
  /// run() would never return; requests still open at the drain deadline
  /// are counted as SLO violations.
  void run(sim::Tick max_drain = sim::from_ms(2.0));

  [[nodiscard]] Report report() const;

  /// Admit one externally routed request of class `cls` at the current
  /// simulator time. `origin` is when the request hit the front end; the
  /// end-to-end latency is measured from it, so forwarding delay counts
  /// against the SLO. Used by scn::cluster; requires external routing to be
  /// meaningful but works alongside local arrivals too.
  void inject(int cls, sim::Tick origin);

  [[nodiscard]] int worker_count() const noexcept { return static_cast<int>(workers_.size()); }
  [[nodiscard]] int worker_ccd(int worker) const noexcept { return workers_[worker].ccd; }
  [[nodiscard]] int outstanding_requests() const noexcept { return outstanding_; }
  /// Lower bound on this server's next state change: the time of its
  /// simulator's earliest pending event (sim::Simulator::kNoPendingEvent
  /// when drained). Nothing observable — outstanding requests, telemetry
  /// counters, completions — can change before it, which is what lets the
  /// cluster's drain loop jump whole idle epochs instead of stepping them.
  [[nodiscard]] sim::Tick next_event_time() noexcept { return sim_->next_event_time(); }
  /// Requests created (admitted arrivals + hedge duplicates; rejected
  /// arrivals never materialize a request).
  [[nodiscard]] std::uint64_t arrivals_total() const noexcept { return next_id_; }
  [[nodiscard]] const std::vector<RequestClass>& classes() const noexcept { return classes_; }
  /// End of the measured window: `stop`, or the last measured completion
  /// when the drain ran longer. report() rates use this, so drained
  /// completions are not credited to a window they did not fit in.
  [[nodiscard]] sim::Tick measured_end() const noexcept {
    return completed_end_ > cfg_.stop ? completed_end_ : cfg_.stop;
  }
  /// Measured end-to-end latency histogram (ticks) for one class; lets a
  /// cluster merge exact percentiles across servers instead of averaging.
  [[nodiscard]] const stats::Histogram& class_e2e(int cls) const {
    return class_acc_[static_cast<std::size_t>(cls)].e2e;
  }
  /// The live tier, or nullptr with mode = kOff. Test hook.
  [[nodiscard]] const tier::TieredMemory* tiered() const noexcept { return tiered_.get(); }

 private:
  struct StageRun {
    int issued = 0;
    int completed = 0;
    int inflight = 0;
    int deps_left = 0;
    std::size_t rr = 0;  ///< per-stage round-robin over the path set
  };

  struct Worker;

  struct Request {
    std::uint64_t id = 0;
    int cls = 0;
    Worker* worker = nullptr;
    sim::Tick arrived = 0;
    bool measured = false;
    int stages_left = 0;
    std::vector<StageRun> runs;
    // Hedging state. A hedged pair shares `arrived` (and thus the EDF
    // deadline); whichever side completes first does the accounting and
    // cancels its mate, which drains in-flight fabric legs and releases its
    // slot without completing.
    Request* mate = nullptr;   ///< hedge partner (primary <-> duplicate)
    bool duplicate = false;    ///< this side is the hedge copy
    bool cancelled = false;    ///< mate finished first; stop issuing, drain
    bool finished = false;     ///< completed or fully cancelled
    bool in_service = false;   ///< popped from the queue, holds a worker slot
    int pending_ops = 0;       ///< fabric legs + compute timers in flight
  };

  struct Worker {
    int index = 0;
    int ccd = 0;
    int ccx = 0;
    std::vector<fabric::Path*> dram_all;   ///< NPS1 interleave over every UMC
    std::vector<fabric::Path*> dram_near;  ///< position-local DIMMs
    fabric::Path* cxl = nullptr;
    std::vector<fabric::TokenPool*> read_pools;
    std::vector<fabric::TokenPool*> write_pools;
    std::uint32_t in_flight = 0;
    gtm::WorkerQueue<Request> queue;  ///< keyed by queue_key()
    std::uint64_t served = 0;         ///< requests placed here
  };

  struct ClassAccum {
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t in_slo = 0;
    std::uint64_t rejected = 0;
    stats::Histogram e2e;  ///< end-to-end latency, ticks
  };

  void validate_classes() const;
  void on_arrival();
  void admit(int cls, sim::Tick origin);
  [[nodiscard]] int pick_class();
  [[nodiscard]] int place(int cls);
  [[nodiscard]] Request* make_request(int cls, sim::Tick origin);
  void enqueue(Request* r, int wi);
  [[nodiscard]] std::uint64_t queue_key(const Request* r) const;
  void arm_hedge(Request* r);
  void maybe_hedge(Request* r);
  [[nodiscard]] int pick_hedge_worker(int avoid_ccd) const;
  void cancel(Request* r);
  void release_cancelled(Request* r);
  /// Every async op (fabric leg, compute timer, token grant) funnels its
  /// completion through this: decrements pending_ops and, when the request
  /// was cancelled, retires it once the last op drains. Returns true when
  /// the caller must unwind (the request is cancelled).
  [[nodiscard]] bool op_done_cancelled(Request* r);
  void dispatch(Worker& worker);
  void begin_service(Request* r);
  void start_stage(Request* r, int si);
  void stage_issue(Request* r, int si);
  void issue_one(Request* r, int si);
  void on_txn_done(Request* r, int si);
  void finish_stage(Request* r, int si);
  void complete(Request* r);
  void telemetry_tick();

  sim::Simulator* sim_;
  topo::Platform* platform_;
  ServerConfig cfg_;

  std::vector<RequestClass> classes_;
  double total_weight_ = 0.0;
  std::vector<std::string> tenants_;      ///< distinct, in order of appearance
  std::vector<int> tenant_of_class_;      ///< class index -> tenants_ index

  std::vector<Worker> workers_;
  std::vector<std::vector<int>> quadrant_workers_;  ///< [ccd % 4] -> worker idx

  ArrivalProcess arrivals_;
  sim::Rng class_rng_;
  sim::Rng fabric_rng_;
  std::uint64_t antagonist_seed_ = 0;

  gtm::AdmissionController admission_;
  gtm::HedgeTracker hedge_;
  std::uint64_t hedges_ = 0;      ///< measured hedge duplicates issued
  std::uint64_t hedge_wins_ = 0;  ///< measured completions won by the duplicate

  std::vector<std::unique_ptr<Request>> requests_;  ///< owns every request
  std::vector<ClassAccum> class_acc_;
  std::uint64_t next_id_ = 0;
  int outstanding_ = 0;
  sim::Tick completed_end_ = 0;  ///< last measured completion time
  std::size_t rr_next_ = 0;                ///< round-robin placement cursor
  std::vector<std::size_t> local_rr_;      ///< per-tenant cursor (kLocal)
  std::vector<double> pred_ns_;            ///< per-CCD predicted latency
  std::vector<double> last_gmi_bytes_;     ///< per-CCD byte counter at last epoch

  std::vector<std::unique_ptr<traffic::StreamFlow>> antagonists_;
  std::unique_ptr<tier::TieredMemory> tiered_;  ///< null when cfg_.tier.mode == kOff
  bool started_ = false;
};

}  // namespace scn::serve

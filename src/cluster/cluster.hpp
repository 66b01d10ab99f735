// Rack-scale composition: N chiplet servers behind a front-end balancer.
//
// ClusterSim instantiates N fully independent ServerSims — each with its own
// Simulator and Platform, built from any mix of platform specs — and feeds
// them from one open-loop cluster arrival stream through a load balancer.
// Forwarding a request to a server crosses an inter-server ingress link
// (NIC -> P-Link/CXL style: FIFO serialization at a configured bandwidth,
// then a fixed propagation latency). The link contends with nothing inside
// the target box, but its delay counts against the request's end-to-end SLO,
// so cross-server placement is a real fourth policy axis above the per-CCX
// one, not a free re-labeling.
//
// Execution model — conservative lookahead in lockstep epochs:
// the instances advance in epochs of length E = link latency. At each epoch
// boundary the balancer (main thread) generates the arrivals of the next
// epoch, routes them using server state observed at the boundary, and
// enqueues their delivery events; every delivery lands >= one epoch ahead,
// so nothing a server executes inside the epoch can influence a routing
// decision already made — exactly the staleness a real front end with an
// E one-way delay operates under. Between boundaries each instance runs on
// a *pinned* shard thread (instance i always executes on shard i mod jobs:
// the fabric layer keeps thread-local slab pools, so an instance must be
// built, run and destroyed by one thread). All cross-instance interaction
// happens on the main thread between barriers in index order, so cluster
// output is bit-identical at --jobs 1 and --jobs N.
//
// The default engine fuses epochs: whenever the balancer can prove no
// routing or snapshot read falls between two boundaries (always under
// local_arrivals; for round-robin, which reads no server state, the whole
// arrival window), one exec::Lockstep barrier covers the entire run of
// epochs, and the drain phase jumps straight to the epoch boundary of the
// earliest pending event instead of stepping empty epochs. Engine::kStep
// forces the historical barrier-per-epoch loop; both engines are
// byte-equivalent (see DESIGN.md's lockstep-fusion mechanism).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "exec/lockstep.hpp"
#include "serve/server.hpp"
#include "topo/params.hpp"

namespace scn::cluster {

/// Cross-server placement: which box the front end forwards a request to.
enum class LbPolicy : std::uint8_t {
  /// Request i goes to server i mod N, blind to load and topology.
  kRoundRobin,
  /// Join-shortest-outstanding: the server with the fewest requests open
  /// (as observed at the last epoch boundary, plus forwards already sent
  /// this epoch). Ties break toward the lowest index.
  kLeastOutstanding,
  /// Telemetry-driven: per-server GMI byte-counter deltas sampled at each
  /// epoch boundary (the cluster-level mirror of serve::Policy::kTelemetry)
  /// scaled by the server's outstanding depth; steers around a box whose
  /// fabric a batch antagonist is saturating even when queue depths match.
  kTelemetry,
};

[[nodiscard]] constexpr const char* to_string(LbPolicy p) noexcept {
  switch (p) {
    case LbPolicy::kRoundRobin: return "cluster-rr";
    case LbPolicy::kLeastOutstanding: return "least-out";
    case LbPolicy::kTelemetry: return "cluster-telemetry";
  }
  return "?";
}

[[nodiscard]] inline std::optional<LbPolicy> parse_lb_policy(std::string_view s) noexcept {
  if (s == "cluster-rr" || s == "rr") return LbPolicy::kRoundRobin;
  if (s == "least-out" || s == "jsq") return LbPolicy::kLeastOutstanding;
  if (s == "cluster-telemetry" || s == "telemetry") return LbPolicy::kTelemetry;
  return std::nullopt;
}

/// Execution engine for the lockstep loop. Both engines produce byte-identical
/// reports at any `jobs`; they differ only in how many synchronization rounds
/// (barriers) they pay per simulated epoch.
enum class Engine : std::uint8_t {
  /// Fused batches + idle-epoch fast-skip: one barrier covers every run of
  /// consecutive epochs with no routing or snapshot read between them, and
  /// the drain jumps straight to the next pending event's epoch boundary.
  kFused,
  /// One barrier per epoch, exactly the historical loop. Kept as the
  /// equivalence oracle and the baseline for the speedup ctest.
  kStep,
};

[[nodiscard]] constexpr const char* to_string(Engine e) noexcept {
  switch (e) {
    case Engine::kFused: return "fused";
    case Engine::kStep: return "step";
  }
  return "?";
}

[[nodiscard]] inline std::optional<Engine> parse_engine(std::string_view s) noexcept {
  if (s == "fused") return Engine::kFused;
  if (s == "step") return Engine::kStep;
  return std::nullopt;
}

/// The inter-server ingress path: a FIFO NIC link per server. A forward
/// serializes `request_bytes` at `bytes_per_ns` behind earlier forwards to
/// the same server, then propagates for `latency`.
struct LinkConfig {
  sim::Tick latency = sim::from_ns(800.0);  ///< one-way propagation
  double bytes_per_ns = 12.5;               ///< 100 Gb/s; <= 0 disables serialization
  double request_bytes = 512.0;             ///< on-wire size of one forwarded request
};

struct ClusterConfig {
  /// One entry per server; any mix of builtin/what-if platform specs.
  std::vector<topo::PlatformParams> servers;
  LbPolicy lb = LbPolicy::kRoundRobin;
  /// Per-server (CCX-level) placement policy, the existing axis.
  serve::Policy placement = serve::Policy::kLocal;
  /// Global Traffic Manager policy bundle, applied identically on every
  /// server (queue discipline, admission control, hedging). The default
  /// bundle reproduces the pre-GTM cluster exactly.
  gtm::TrafficPolicy gtm;
  /// Tiered-memory config, applied on every server that has a CXL tier
  /// (forced off per-box on servers without one — a heterogeneous rack must
  /// not fail to build). The kOff default reproduces the pre-tier cluster.
  tier::TierConfig tier;
  /// Cluster-wide offered load (ignored when local_arrivals is set).
  serve::ArrivalConfig arrival;
  /// Shared request catalog; empty selects a default catalog valid on every
  /// server (the CXL class is dropped if any server lacks a CXL tier).
  std::vector<serve::RequestClass> classes;
  sim::Tick warmup = sim::from_us(40.0);
  sim::Tick stop = sim::from_us(200.0);
  sim::Tick max_drain = sim::from_ms(2.0);
  std::uint64_t seed = 1;
  /// Server index running the CCD0 batch antagonist; -1 for none.
  int antagonist_server = -1;
  LinkConfig link;
  /// Each server runs its own ArrivalProcess instead of the front end (no
  /// forwarding at all) — the configuration that must reproduce standalone
  /// ServerSim runs bit-identically.
  bool local_arrivals = false;
  /// Pinned shard threads; <= 1 runs every instance on the caller's thread.
  /// Output is bit-identical for any value.
  int jobs = 1;
  /// Lockstep execution engine; kFused and kStep are byte-equivalent, kStep
  /// simply pays one barrier per epoch (the pre-fusion behavior).
  Engine engine = Engine::kFused;
};

struct ClusterReport {
  std::uint64_t arrivals = 0;  ///< measured (post-warmup) cluster arrivals
  std::uint64_t completed = 0;
  std::uint64_t in_slo = 0;
  std::uint64_t rejected = 0;    ///< admission refusals summed over servers
  std::uint64_t hedges = 0;      ///< hedge duplicates issued, summed
  std::uint64_t hedge_wins = 0;  ///< completions the duplicate won, summed
  std::uint64_t forwarded = 0;  ///< requests routed by the front end (all, incl. warmup)
  /// Lookahead epochs the run covered (simulated-time windows of length
  /// epoch_length()). Identical across engines and `jobs` values — part of
  /// the byte-equivalence contract.
  std::uint64_t epochs = 0;
  /// Synchronization rounds actually paid. Equals `epochs` for Engine::kStep;
  /// the fused engine covers many epochs per barrier, so this is the direct
  /// measure of what fusion and the idle fast-skip save.
  std::uint64_t barriers = 0;
  double offered_per_us = 0.0;
  double achieved_per_us = 0.0;
  double goodput_per_us = 0.0;
  double mean_ns = 0.0;  ///< merged exact percentiles over every server/class
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double slo_violation_frac = 0.0;
  double rejected_frac = 0.0;  ///< rejected / arrivals
  /// Jain index over per-server SLO-compliant completions: did the balancer
  /// spread the work, or pile it on one box?
  double jain_server_fairness = 1.0;
  double link_wait_mean_ns = 0.0;  ///< mean NIC serialization queue wait
  // Tiered-memory counters summed over every server (zero with the tier off).
  std::uint64_t tier_accesses = 0;
  std::uint64_t tier_dram_hits = 0;
  std::uint64_t tier_promotions = 0;
  std::uint64_t tier_demotions = 0;
  std::uint64_t tier_migrated_bytes = 0;
  double tier_hit_ratio = 1.0;  ///< cluster-wide dram_hits / accesses
  std::vector<serve::Report> per_server;
  std::vector<std::uint64_t> forwarded_per_server;
};

/// Seed handed to server `server` of a cluster seeded with `cluster_seed`.
/// Exposed so a standalone ServerSim can replay exactly what a cluster
/// member saw (the zero-forwarding equivalence proof in test_cluster).
[[nodiscard]] std::uint64_t server_seed(std::uint64_t cluster_seed, int server) noexcept;

class ClusterSim {
 public:
  /// Validates the config and builds every instance (on its shard thread).
  /// Throws std::invalid_argument / whatever ServerSim's ctor throws.
  explicit ClusterSim(ClusterConfig config);
  ~ClusterSim();

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  /// Run arrivals to `stop`, then drain epochs until every server is idle
  /// and no forward is in flight, or `max_drain` extra time elapses.
  void run();

  [[nodiscard]] ClusterReport report() const;

  [[nodiscard]] int server_count() const noexcept { return static_cast<int>(instances_.size()); }
  [[nodiscard]] const serve::ServerSim& server(int i) const;
  [[nodiscard]] const std::vector<serve::RequestClass>& classes() const noexcept { return catalog_; }
  [[nodiscard]] sim::Tick epoch_length() const noexcept { return epoch_; }

 private:
  struct Instance;

  void run_step();
  void run_fused();
  void drain_fused(sim::Tick now);
  void route_epoch(sim::Tick from, sim::Tick to);
  void forward(int target, int cls, sim::Tick at);
  [[nodiscard]] int pick_server();
  [[nodiscard]] int pick_class();
  /// One synchronization round: every instance applies its pending forward
  /// deliveries (each pushed when the instance reaches the delivery's routing
  /// boundary, reproducing the per-epoch engine's event order exactly) and
  /// runs to `boundary`.
  void advance_all(sim::Tick boundary);
  /// advance_all plus epoch accounting: credits every epoch window in
  /// (from, to] so ClusterReport::epochs stays engine-independent.
  void advance_epochs(sim::Tick from, sim::Tick to);
  void advance_instance(Instance& inst, sim::Tick target);
  void sample_epoch();
  /// Re-establish the telemetry byte-counter baseline after a fast-skip, so
  /// the next sample_epoch() delta spans exactly one epoch again.
  void sample_gmi_baseline();
  [[nodiscard]] bool needs_snapshots() const noexcept;
  [[nodiscard]] bool needs_gmi() const noexcept;
  [[nodiscard]] bool busy() const;

  ClusterConfig cfg_;
  std::vector<serve::RequestClass> catalog_;
  sim::Tick epoch_ = 1;

  std::unique_ptr<exec::Lockstep> lockstep_;  ///< declared before instances_: joined last
  std::vector<std::unique_ptr<Instance>> instances_;

  std::unique_ptr<serve::ArrivalProcess> arrivals_;  ///< front-end stream
  sim::Rng class_rng_;
  sim::Tick next_arrival_ = 0;
  sim::Tick route_at_ = 0;  ///< routing boundary forwards are tagged with
  sim::Tick advance_target_ = 0;
  std::size_t rr_next_ = 0;
  std::uint64_t forwarded_ = 0;
  double link_wait_ticks_ = 0.0;
  std::uint64_t epochs_run_ = 0;
  std::uint64_t barriers_run_ = 0;
  bool ran_ = false;
};

}  // namespace scn::cluster

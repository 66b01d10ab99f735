#include "traffic/fastforward.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "model/analytic.hpp"

namespace scn::traffic {
namespace {

constexpr sim::Tick kNoChange = std::numeric_limits<sim::Tick>::max();

constexpr double kRateEpsilon = 0.05;     ///< relative half-span completion delta
constexpr double kLatencyEpsilon = 0.10;  ///< relative half-span mean-RTT delta
constexpr double kCountSlack = 2.0;       ///< absolute per-window completions slack
/// Single-window deviation cap, as a multiple of the epsilons: a window may
/// stray this far from the span median (periodic stalls do) without voiding
/// the span; anything worse is a real disturbance.
constexpr double kOutlierFactor = 4.0;
constexpr sim::Tick kMaxDrain = sim::from_us(5);  ///< abort a stuck drain
constexpr double kModelSlack = 1.10;              ///< certificate bound slack

/// Payload+header bytes a message carries on one leg (mirrors the admission
/// sizes fabric::run_transaction uses, so analytic channel telemetry lines
/// up with discrete-mode telemetry).
double leg_bytes(fabric::Op op, bool outbound, double chunk) {
  if (op == fabric::Op::kRead) return outbound ? fabric::kHeaderBytes : chunk;
  return outbound ? chunk + fabric::kHeaderBytes : fabric::kHeaderBytes;
}

}  // namespace

FastForwarder::FastForwarder(sim::Simulator& simulator, Config config)
    : simulator_(&simulator), config_(config) {}

FastForwarder::~FastForwarder() {
  for (auto& fs : flows_) fs->flow->set_sample_histogram(nullptr);
}

void FastForwarder::watch(StreamFlow* flow) {
  auto fs = std::make_unique<FlowState>();
  fs->flow = flow;
  flows_.push_back(std::move(fs));
}

void FastForwarder::watch(FlowGroup& group) {
  for (std::size_t i = 0; i < group.size(); ++i) watch(&group.flow(i));
}

void FastForwarder::arm() {
  if (armed_ || flows_.empty()) return;
  for (const auto& fs : flows_) {
    // Adaptive windows and attached time series are *about* the transient
    // dynamics a batch-advance would erase; refuse rather than distort.
    if (fs->flow->config().adaptive.has_value() || fs->flow->has_timeseries()) {
      eligible_ = false;
      return;
    }
  }
  armed_ = true;
  for (auto& fs : flows_) fs->flow->set_sample_histogram(&fs->sample);
  reset_detector();
  simulator_->schedule(config_.sample_window, [this] { sample_tick(); });
}

bool FastForwarder::all_done() const {
  const sim::Tick now = simulator_->now();
  for (const auto& fs : flows_) {
    if (!fs->flow->stopped() && now < fs->flow->config().stop_at) return false;
  }
  return true;
}

sim::Tick FastForwarder::next_demand_change() const {
  const sim::Tick now = simulator_->now();
  sim::Tick t = kNoChange;
  const auto consider = [&](sim::Tick c) {
    if (c > now && c < t) t = c;
  };
  for (const auto& fs : flows_) {
    const auto& cfg = fs->flow->config();
    consider(cfg.start_at);  // an unstarted flow beginning is a demand change
    consider(cfg.stop_at);
    for (const auto& [when, rate] : cfg.rate_schedule) consider(when);
  }
  return t;
}

void FastForwarder::record_window(FlowState& fs) {
  const std::uint64_t raw = fs.flow->raw_completions();
  const std::int64_t rtt = fs.flow->raw_rtt_ticks();
  fs.win_count.push_back(raw - fs.prev_raw);
  fs.win_rtt.push_back(rtt - fs.prev_rtt);
  fs.prev_raw = raw;
  fs.prev_rtt = rtt;
}

FastForwarder::Verdict FastForwarder::flow_verdict(const FlowState& fs) const {
  // A flow with no demand right now cannot destabilize the span; its future
  // start/stop is a demand change and therefore already bounds the horizon.
  const sim::Tick now = simulator_->now();
  const auto& cfg = fs.flow->config();
  if (fs.flow->stopped() || now >= cfg.stop_at || now < cfg.start_at) return Verdict::kSteady;

  const std::size_t n = fs.win_count.size();
  const auto half = static_cast<std::size_t>(std::max(config_.steady_windows, 1));
  if (n < 2 * half) return Verdict::kWait;

  // Per-window cap against the span median: a periodic stall strays a
  // bounded distance (it is part of steady state); a one-off excursion far
  // beyond it is a disturbance the halves test could dilute away.
  std::vector<std::uint64_t> sorted = fs.win_count;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(n / 2),
                   sorted.end());
  const double med_c = static_cast<double>(sorted[n / 2]);
  std::vector<double> means(n);
  for (std::size_t i = 0; i < n; ++i) {
    means[i] = fs.win_count[i] > 0
                   ? static_cast<double>(fs.win_rtt[i]) / static_cast<double>(fs.win_count[i])
                   : 0.0;
  }
  std::vector<double> sorted_means = means;
  std::nth_element(sorted_means.begin(), sorted_means.begin() + static_cast<std::ptrdiff_t>(n / 2),
                   sorted_means.end());
  const double med_m = sorted_means[n / 2];
  const double cap_c = std::max(kCountSlack, kOutlierFactor * kRateEpsilon * med_c);
  const double cap_m = kOutlierFactor * kLatencyEpsilon * med_m + 1.0;
  double count_dev_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double cdev = std::abs(static_cast<double>(fs.win_count[i]) - med_c);
    if (cdev > cap_c) return Verdict::kDisturbed;
    count_dev_max = std::max(count_dev_max, cdev);
    if (std::abs(means[i] - med_m) > cap_m) return Verdict::kDisturbed;
  }

  // Half-span aggregates: the front half [0, n/2) against the back half
  // [n - n/2, n). Periodic noise contributes near-equal mass to both once
  // the span covers it; a ramp drifts them apart. The count tolerance gets
  // an allowance of one worst window's deviation from the span median: when
  // the span is a single noise period the stall dip necessarily lands in
  // one half only, and at an unthrottled point those lost completions are
  // never made up — a genuinely steady flow would fail the bare epsilon
  // test forever. The deviation is already bounded by the outlier cap, and
  // a rate ramp shifts *every* window, blowing far past one window's worth.
  // Mean RTT gets no such allowance: a drifting mean is exactly the ramp
  // signature (e.g. a write-combining queue slowly filling).
  const std::size_t h = n / 2;
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
  std::int64_t r1 = 0;
  std::int64_t r2 = 0;
  for (std::size_t i = 0; i < h; ++i) {
    c1 += fs.win_count[i];
    r1 += fs.win_rtt[i];
    c2 += fs.win_count[n - h + i];
    r2 += fs.win_rtt[n - h + i];
  }
  const std::uint64_t chi = std::max(c1, c2);
  const std::uint64_t cdiff = c1 > c2 ? c1 - c2 : c2 - c1;
  const double count_tol =
      std::max(kCountSlack * static_cast<double>(h), kRateEpsilon * static_cast<double>(chi)) +
      count_dev_max;
  if (static_cast<double>(cdiff) > count_tol) return Verdict::kDisturbed;
  const double m1 = c1 > 0 ? static_cast<double>(r1) / static_cast<double>(c1) : 0.0;
  const double m2 = c2 > 0 ? static_cast<double>(r2) / static_cast<double>(c2) : 0.0;
  if (std::abs(m1 - m2) > kLatencyEpsilon * std::max(m1, m2) + 1.0) {
    return Verdict::kDisturbed;
  }

  // Steady — but this flow's shape must be scalable at all; the shared
  // tail-resolution budget (min_samples) is checked across flows by the
  // caller.
  std::uint64_t total = 0;
  for (const std::uint64_t c : fs.win_count) total += c;
  if (total < config_.min_flow_samples) return Verdict::kWait;
  return Verdict::kSteady;
}

void FastForwarder::reset_detector() {
  span_start_ = simulator_->now();
  for (auto& fs : flows_) {
    fs->prev_raw = fs->flow->raw_completions();
    fs->prev_rtt = fs->flow->raw_rtt_ticks();
    fs->anchor_raw = fs->prev_raw;
    fs->win_count.clear();
    fs->win_rtt.clear();
    fs->sample.reset();
  }
}

void FastForwarder::sample_tick() {
  if (done_) return;
  if (all_done()) {
    done_ = true;
    return;
  }
  ++stats_.samples;
  for (auto& fs : flows_) record_window(*fs);
  Verdict verdict = Verdict::kSteady;
  std::uint64_t banked = 0;
  for (const auto& fs : flows_) {
    const Verdict v = flow_verdict(*fs);
    if (v == Verdict::kDisturbed) {
      verdict = Verdict::kDisturbed;
      break;
    }
    if (v == Verdict::kWait) verdict = Verdict::kWait;
    banked += fs->prev_raw - fs->anchor_raw;
  }
  // Tail-resolution budget, shared across flows: the merged histogram is
  // what the experiment reports, and merging scaled shapes averages away
  // per-flow sample noise.
  if (verdict == Verdict::kSteady && banked < config_.min_samples) verdict = Verdict::kWait;
  if (verdict == Verdict::kDisturbed) {
    // A fresh span starts here: drop the stale windows and shape sample so
    // the histogram only ever contains post-disturbance completions.
    reset_detector();
  } else if (verdict == Verdict::kSteady) {
    const sim::Tick now = simulator_->now();
    const sim::Tick span = now - span_start_;
    const bool aligned = config_.span_align <= 0 || span % config_.span_align == 0;
    if (span >= config_.min_sample_span && aligned) {
      const sim::Tick horizon = next_demand_change();
      if (horizon != kNoChange && horizon - now >= config_.min_jump) {
        begin_jump(horizon);
        return;  // the drain chain owns scheduling from here
      }
      if (horizon == kNoChange) {
        // No flow ever changes demand again and no external horizon was
        // given: there is nothing to negotiate a jump against. Stop paying
        // for monitoring; the discrete path is already correct.
        done_ = true;
        return;
      }
    }
  }
  simulator_->schedule(config_.sample_window, [this] { sample_tick(); });
}

void FastForwarder::begin_jump(sim::Tick horizon) {
  suspend_time_ = simulator_->now();
  for (auto& fs : flows_) fs->flow->suspend();
  drain_wait(horizon, suspend_time_ + kMaxDrain);
}

void FastForwarder::drain_wait(sim::Tick horizon, sim::Tick deadline) {
  bool drained = true;
  for (const auto& fs : flows_) {
    if (!fs->flow->drained()) drained = false;
  }
  if (drained) {
    commit_jump(horizon);
    return;
  }
  const sim::Tick now = simulator_->now();
  if (now >= deadline) {
    ++stats_.aborted_drains;
    abort_jump();
    return;
  }
  // Negotiate the next check with the scheduler: wake exactly when the next
  // event (an in-flight completion hop) has run, never on a blind grid.
  const sim::Tick next = simulator_->next_event_time();
  sim::Tick wake = next == sim::Simulator::kNoPendingEvent ? deadline : std::max(next, now + 1);
  wake = std::min(wake, deadline);
  simulator_->schedule_at(wake, [this, horizon, deadline] { drain_wait(horizon, deadline); });
}

void FastForwarder::commit_jump(sim::Tick horizon) {
  const sim::Tick t0 = simulator_->now();
  if (horizon - t0 < config_.min_jump / 2) {  // the drain ate the margin
    abort_jump();
    return;
  }
  const double measured_ns = sim::to_ns(suspend_time_ - span_start_);

  struct Carry {
    model::BatchAdvance batch;
    double rate = 0.0;      // bytes/ns, certified steady
    sim::Tick end = 0;      // flow-local end of the analytic interval
    bool active = false;
  };
  std::vector<Carry> carries(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    auto& fs = *flows_[i];
    auto& carry = carries[i];
    const auto& cfg = fs.flow->config();
    carry.end = std::min(horizon, cfg.stop_at);
    carry.active = !fs.flow->stopped() && t0 >= cfg.start_at && carry.end > t0;
    if (!carry.active || measured_ns <= 0.0) continue;
    carry.rate = static_cast<double>(fs.flow->raw_completions() - fs.anchor_raw) *
                 cfg.chunk_bytes / measured_ns;
    if (carry.rate <= 0.0) {
      carry.active = false;
      continue;
    }
    model::Workload w;
    w.op = cfg.op;
    w.chunk_bytes = cfg.chunk_bytes;
    w.total_window = fs.flow->current_window();
    const double mean_rtt_ns = fs.sample.empty() ? 0.0 : fs.sample.mean() / 1000.0;
    carry.batch = model::batch_advance(cfg.paths, w, sim::to_ns(carry.end - t0), carry.rate,
                                       mean_rtt_ns, kModelSlack);
    if (!carry.batch.trusted) {
      // The measurement violates a physical bound the model can prove
      // (capacity, BDP, zero-load RTT): the steadiness certificate is not
      // trustworthy. Stay on discrete events.
      ++stats_.rejected;
      abort_jump();
      return;
    }
  }

  struct ChannelAcc {
    double bytes = 0.0;
    double messages = 0.0;
    double busy = 0.0;  // ticks
  };
  std::unordered_map<fabric::Channel*, ChannelAcc> acc;
  const auto credit_leg = [&](const std::vector<fabric::Hop>& leg, double bytes_per_msg,
                              double msgs) {
    for (const auto& hop : leg) {
      if (hop.channel == nullptr) continue;
      auto& a = acc[hop.channel];
      a.bytes += bytes_per_msg * msgs;
      a.messages += msgs;
      if (hop.channel->capacity_bytes_per_ns() > 0.0) {
        a.busy += msgs * static_cast<double>(
                             sim::serialization_ticks(bytes_per_msg,
                                                      hop.channel->capacity_bytes_per_ns()));
      }
    }
  };

  for (std::size_t i = 0; i < flows_.size(); ++i) {
    auto& fs = *flows_[i];
    auto& carry = carries[i];
    if (!carry.active) continue;
    const auto& cfg = fs.flow->config();

    // Measurement-window overlap: only completions landing inside
    // [stats_after, stop_at] count toward achieved bandwidth / latency.
    const sim::Tick lo = std::max(t0, cfg.stats_after);
    const sim::Tick hi = std::min(horizon, cfg.stop_at);
    const double counted_ns = hi > lo ? sim::to_ns(hi - lo) : 0.0;
    const auto counted =
        static_cast<std::uint64_t>(carry.rate * counted_ns / cfg.chunk_bytes + 0.5);
    fs.flow->credit_synthetic(counted, hi, fs.sample);
    stats_.synthetic_completions += carry.batch.completions;

    // Channel telemetry for the full analytic interval, spread across the
    // flow's round-robin path set exactly like discrete issue would.
    const double per_path =
        static_cast<double>(carry.batch.completions) / static_cast<double>(cfg.paths.size());
    for (fabric::Path* path : cfg.paths) {
      credit_leg(path->outbound, leg_bytes(cfg.op, true, cfg.chunk_bytes), per_path);
      credit_leg(path->inbound, leg_bytes(cfg.op, false, cfg.chunk_bytes), per_path);
      fabric::Channel* svc = cfg.op == fabric::Op::kRead ? path->endpoint.read_service
                                                         : path->endpoint.write_service;
      if (svc != nullptr) {
        auto& a = acc[svc];
        a.bytes += cfg.chunk_bytes * per_path;
        a.messages += per_path;
        if (svc->capacity_bytes_per_ns() > 0.0) {
          a.busy += per_path * static_cast<double>(sim::serialization_ticks(
                                   cfg.chunk_bytes, svc->capacity_bytes_per_ns()));
        }
      }
    }
  }

  const sim::Tick span = horizon - t0;
  for (auto& [ch, a] : acc) {
    ch->begin_analytic_span();
    ch->account_analytic(a.bytes, static_cast<std::uint64_t>(a.messages + 0.5),
                         static_cast<sim::Tick>(a.busy + 0.5), span);
  }

  ++stats_.jumps;
  stats_.skipped_ticks += span;
  simulator_->schedule_at(horizon, [this] { resume_all(); });
}

void FastForwarder::abort_jump() {
  // Resuming an undrained flow is safe: in-flight transactions still hold
  // their window tokens, so the restarted loop cannot over-issue.
  for (auto& fs : flows_) fs->flow->resume();
  reset_detector();
  if (all_done()) {
    done_ = true;
    return;
  }
  simulator_->schedule(config_.sample_window, [this] { sample_tick(); });
}

void FastForwarder::resume_all() {
  for (auto& fs : flows_) fs->flow->resume();
  reset_detector();
  if (all_done()) {
    done_ = true;
    return;
  }
  simulator_->schedule(config_.sample_window, [this] { sample_tick(); });
}

}  // namespace scn::traffic

// The Global Traffic Manager policy layer in isolation: worker-queue
// disciplines, admission control, hedge-delay tracking, the [gtm]/[arrivals]
// spec registry (parse/dump/validate/diff round-trips), and the extended
// arrival machinery (diurnal schedules, trace replay and its edge cases).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtm/admission.hpp"
#include "gtm/arrival.hpp"
#include "gtm/hedge.hpp"
#include "gtm/policy.hpp"
#include "gtm/queue.hpp"
#include "gtm/spec.hpp"
#include "spec/spec.hpp"

namespace {

using namespace scn;

// ---- worker queue disciplines -----------------------------------------------

struct Item {
  int tag = 0;
};

TEST(GtmQueue, FifoPopsInPushOrder) {
  // FIFO is every key 0: the admission-id tiebreak alone orders the pops.
  gtm::WorkerQueue<Item> q;
  Item a{1}, b{2}, c{3};
  q.push(&a, 0, 0);
  q.push(&b, 0, 1);
  q.push(&c, 0, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop()->tag, 1);
  EXPECT_EQ(q.pop()->tag, 2);
  EXPECT_EQ(q.pop()->tag, 3);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(GtmQueue, HeapPopsByKeyThenSeq) {
  gtm::WorkerQueue<Item> q;
  Item a{1}, b{2}, c{3}, d{4};
  q.push(&a, 30, 0);
  q.push(&b, 10, 3);
  q.push(&c, 10, 1);  // same key as b: lower seq pops first
  q.push(&d, 20, 2);
  EXPECT_EQ(q.pop()->tag, 3);  // key 10, seq 1
  EXPECT_EQ(q.pop()->tag, 2);  // key 10, seq 3
  EXPECT_EQ(q.pop()->tag, 4);  // key 20
  EXPECT_EQ(q.pop()->tag, 1);  // key 30
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(GtmQueue, PriorityIsStableWithinAClass) {
  // Equal keys (same priority class) must preserve arrival (seq) order — the
  // deterministic total order the lockstep cluster relies on.
  gtm::WorkerQueue<Item> q;
  std::vector<Item> items(16);
  for (int i = 0; i < 16; ++i) {
    items[static_cast<std::size_t>(i)].tag = i;
    q.push(&items[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i % 2),
           static_cast<std::uint64_t>(i));
  }
  std::vector<int> popped;
  while (!q.empty()) popped.push_back(q.pop()->tag);
  ASSERT_EQ(popped.size(), 16u);
  for (std::size_t i = 0; i + 1 < 8; ++i) {
    EXPECT_LT(popped[i], popped[i + 1]);  // all priority-0 first, seq order
    EXPECT_LT(popped[8 + i], popped[8 + i + 1]);
  }
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(popped[i] % 2, 0);
}

// ---- admission control -------------------------------------------------------

TEST(GtmAdmission, DisabledAdmitsEverything) {
  gtm::AdmissionController ac;
  ac.configure({}, {1.0, 2.0});
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(ac.admit(i % 2, i, 100000));
}

TEST(GtmAdmission, TokenBucketCapsTheAdmittedRate) {
  gtm::AdmissionConfig cfg;
  cfg.mode = gtm::AdmissionMode::kTokenBucket;
  cfg.rate_per_us = 4.0;  // one class, full share
  cfg.burst = 2.0;
  gtm::AdmissionController ac;
  ac.configure(cfg, {1.0});
  // Offer 10x the admitted rate for 100 us: admitted count must track
  // rate * window + burst, not the offered count.
  int admitted = 0;
  const sim::Tick gap = sim::from_us(1.0 / 40.0);
  for (int i = 0; i < 4000; ++i) {
    if (ac.admit(0, i * gap, 0)) ++admitted;
  }
  EXPECT_GE(admitted, 400);
  EXPECT_LE(admitted, 403);  // 4/us * 100us + burst 2 + the t=0 token
}

TEST(GtmAdmission, QueueDepthRejects) {
  gtm::AdmissionConfig cfg;
  cfg.mode = gtm::AdmissionMode::kTokenBucket;
  cfg.rate_per_us = 1e9;  // bucket never limits
  cfg.max_queue = 8;
  gtm::AdmissionController ac;
  ac.configure(cfg, {1.0});
  EXPECT_TRUE(ac.admit(0, 0, 7));
  EXPECT_FALSE(ac.admit(0, 1, 8));
  EXPECT_FALSE(ac.admit(0, 2, 9));
  EXPECT_TRUE(ac.admit(0, 3, 0));
}

TEST(GtmAdmission, DeterministicReplay) {
  // Admission is a pure function of (class, time, outstanding): two
  // controllers fed the identical sequence must agree on every decision.
  gtm::AdmissionConfig cfg;
  cfg.mode = gtm::AdmissionMode::kTokenBucket;
  cfg.rate_per_us = 2.0;
  gtm::AdmissionController a, b;
  a.configure(cfg, {3.0, 2.0, 1.0});
  b.configure(cfg, {3.0, 2.0, 1.0});
  sim::Tick t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += 1 + (i * 2654435761u) % 500000;  // fixed pseudo-arrivals
    const int cls = i % 3;
    ASSERT_EQ(a.admit(cls, t, i % 5), b.admit(cls, t, i % 5)) << i;
  }
}

// ---- hedge tracking ----------------------------------------------------------

TEST(GtmHedge, UsesSloUntilWarm) {
  gtm::HedgeConfig cfg;
  cfg.pct = 95.0;
  cfg.min_samples = 4;
  gtm::HedgeTracker h;
  h.configure(cfg, {sim::from_us(2.0)});
  EXPECT_EQ(h.delay(0), sim::from_us(2.0));
  for (int i = 0; i < 3; ++i) h.observe(0, sim::from_ns(100.0));
  EXPECT_EQ(h.delay(0), sim::from_us(2.0));  // still below min_samples
  h.observe(0, sim::from_ns(100.0));
  // Warm: the 95th percentile of ~100 ns observations is far below the SLO.
  EXPECT_LT(h.delay(0), sim::from_us(1.0));
  EXPECT_GE(h.delay(0), 1);
}

TEST(GtmHedge, TracksTheConfiguredPercentile) {
  gtm::HedgeConfig cfg;
  cfg.pct = 90.0;
  cfg.min_samples = 1;
  gtm::HedgeTracker h;
  h.configure(cfg, {sim::from_us(2.0)});
  // 100 observations of 1..100 us: the 90th percentile is near 90 us.
  for (int i = 1; i <= 100; ++i) h.observe(0, sim::from_us(static_cast<double>(i)));
  const double d_us = sim::to_us(h.delay(0));
  EXPECT_GE(d_us, 85.0);
  EXPECT_LE(d_us, 100.0);
}

// ---- diurnal arrivals --------------------------------------------------------

TEST(GtmArrival, DiurnalPreservesLongRunMean) {
  gtm::ArrivalConfig cfg;
  cfg.kind = gtm::ArrivalKind::kDiurnal;
  cfg.rate_per_us = 2.0;
  cfg.diurnal_period_us = 20.0;
  cfg.diurnal_amplitude = 0.8;
  cfg.diurnal_phases = 8;
  gtm::ArrivalProcess p(cfg, 17);
  // The segment factors are sinusoid samples at segment centers, which sum
  // to exactly zero — the long-run mean is the configured rate.
  sim::Tick total = 0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) total += p.next_gap();
  EXPECT_NEAR(static_cast<double>(n) / sim::to_us(total), 2.0, 0.2);
}

TEST(GtmArrival, DiurnalActuallyModulates) {
  // With amplitude 0.9 the peak segment runs ~19x the trough. Bucket the
  // arrivals by phase within the cycle and compare extremes.
  gtm::ArrivalConfig cfg;
  cfg.kind = gtm::ArrivalKind::kDiurnal;
  cfg.rate_per_us = 4.0;
  cfg.diurnal_period_us = 10.0;
  cfg.diurnal_amplitude = 0.9;
  cfg.diurnal_phases = 4;
  gtm::ArrivalProcess p(cfg, 23);
  const sim::Tick period = sim::from_us(10.0);
  std::vector<int> bucket(4, 0);
  sim::Tick t = 0;
  for (int i = 0; i < 40000; ++i) {
    t += p.next_gap();
    const auto phase = static_cast<std::size_t>((t % period) * 4 / period);
    ++bucket[phase];
  }
  int lo = bucket[0], hi = bucket[0];
  for (int b : bucket) {
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  EXPECT_GT(hi, 3 * lo);
}

TEST(GtmArrival, DiurnalValidatesItsShape) {
  gtm::ArrivalConfig cfg;
  cfg.kind = gtm::ArrivalKind::kDiurnal;
  cfg.diurnal_amplitude = 1.0;  // rate would hit zero at the trough
  EXPECT_THROW(gtm::ArrivalProcess(cfg, 1), std::invalid_argument);
  cfg.diurnal_amplitude = 0.5;
  cfg.diurnal_phases = 1;
  EXPECT_THROW(gtm::ArrivalProcess(cfg, 1), std::invalid_argument);
}

// ---- trace arrivals ----------------------------------------------------------

TEST(GtmArrival, TraceReplaysTimestampsExactly) {
  gtm::ArrivalConfig cfg;
  cfg.kind = gtm::ArrivalKind::kTrace;
  cfg.trace_ns = {100.0, 250.0, 250.5, 1000.0};
  gtm::ArrivalProcess p(cfg, 1);
  sim::Tick t = 0;
  std::vector<sim::Tick> at;
  while (!p.exhausted()) {
    t += p.next_gap();
    at.push_back(t);
  }
  ASSERT_EQ(at.size(), 4u);
  EXPECT_EQ(at[0], sim::from_ns(100.0));
  // Cumulative exactness: floor-quantization carries the fractional residue,
  // so every absolute arrival lands within one tick of its timestamp.
  for (std::size_t i = 0; i < at.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(at[i]), static_cast<double>(sim::from_ns(cfg.trace_ns[i])),
                1.0)
        << "arrival " << i;
  }
  EXPECT_EQ(at[3], sim::from_ns(1000.0));
}

TEST(GtmArrival, EmptyTraceIsExhaustedImmediately) {
  gtm::ArrivalConfig cfg;
  cfg.kind = gtm::ArrivalKind::kTrace;
  gtm::ArrivalProcess p(cfg, 1);
  EXPECT_TRUE(p.exhausted());
  // The sentinel gap must be far-future but not overflow when added twice.
  const sim::Tick gap = p.next_gap();
  EXPECT_GT(gap, sim::from_ms(1e6));
  EXPECT_GT(gap + gap, 0);
}

TEST(GtmArrival, SingleEntryTraceEmitsOnce) {
  gtm::ArrivalConfig cfg;
  cfg.kind = gtm::ArrivalKind::kTrace;
  cfg.trace_ns = {42.5};
  gtm::ArrivalProcess p(cfg, 1);
  EXPECT_FALSE(p.exhausted());
  EXPECT_EQ(p.next_gap(), sim::from_ns(42.5));
  EXPECT_TRUE(p.exhausted());
}

TEST(GtmArrival, EqualTimestampsSpaceOneTickApart) {
  // Simultaneous trace entries cannot produce zero gaps (the event core
  // requires strictly positive inter-arrival steps); the residue borrow
  // spaces them a tick apart without drifting the later entries.
  gtm::ArrivalConfig cfg;
  cfg.kind = gtm::ArrivalKind::kTrace;
  cfg.trace_ns = {10.0, 10.0, 10.0, 20.0};
  gtm::ArrivalProcess p(cfg, 1);
  sim::Tick t = 0;
  std::vector<sim::Tick> at;
  while (!p.exhausted()) {
    t += p.next_gap();
    at.push_back(t);
  }
  ASSERT_EQ(at.size(), 4u);
  EXPECT_EQ(at[0], sim::from_ns(10.0));
  EXPECT_EQ(at[1], at[0] + 1);
  EXPECT_EQ(at[2], at[1] + 1);
  EXPECT_NEAR(static_cast<double>(at[3]), static_cast<double>(sim::from_ns(20.0)), 2.0);
}

TEST(GtmArrival, NonMonotonicTraceThrows) {
  gtm::ArrivalConfig cfg;
  cfg.kind = gtm::ArrivalKind::kTrace;
  cfg.trace_ns = {10.0, 5.0};
  EXPECT_THROW(gtm::ArrivalProcess(cfg, 1), std::invalid_argument);
}

TEST(GtmArrival, FractionalResidueStaysExactOverLongTraces) {
  // 10k entries spaced 0.3 ns apart (0.3 ns = 300 ticks exactly? no —
  // 0.1-ns-grain sums accumulate float error if quantized per entry). The
  // final arrival must land within one tick of the exact product.
  gtm::ArrivalConfig cfg;
  cfg.kind = gtm::ArrivalKind::kTrace;
  const int n = 10000;
  cfg.trace_ns.reserve(static_cast<std::size_t>(n));
  for (int i = 1; i <= n; ++i) cfg.trace_ns.push_back(0.3333 * i);
  gtm::ArrivalProcess p(cfg, 1);
  sim::Tick t = 0;
  while (!p.exhausted()) t += p.next_gap();
  EXPECT_NEAR(static_cast<double>(t), 0.3333 * n * 1000.0, 1.0);
}

// ---- trace file loading ------------------------------------------------------

class TraceFile : public ::testing::Test {
 protected:
  std::string write(const char* name, const char* content) {
    const std::string path = std::string(::testing::TempDir()) + name;
    std::ofstream out(path);
    out << content;
    return path;
  }
};

TEST_F(TraceFile, ParsesCommentsAndBlanks) {
  const auto path = write("trace_ok.txt", "# header\n\n100\n250.5\n\n# tail\n300\n");
  const auto t = gtm::load_trace(path);
  EXPECT_EQ(t, (std::vector<double>{100.0, 250.5, 300.0}));
}

TEST_F(TraceFile, RejectsGarbageAndRegressions) {
  EXPECT_THROW(gtm::load_trace(write("trace_bad.txt", "100\nabc\n")), spec::Error);
  EXPECT_THROW(gtm::load_trace(write("trace_back.txt", "100\n50\n")), spec::Error);
  EXPECT_THROW(gtm::load_trace(write("trace_neg.txt", "-5\n")), spec::Error);
  EXPECT_THROW(gtm::load_trace("/nonexistent/trace.txt"), spec::Error);
}

// ---- the [gtm]/[arrivals] registry -------------------------------------------

TEST(GtmSpec, DefaultsRoundTripThroughDump) {
  const gtm::GtmParams def;
  const auto text = gtm::dump_gtm(def);
  const auto back = gtm::parse_gtm(text, "dump");
  EXPECT_TRUE(def == back);
  EXPECT_EQ(gtm::dump_gtm(back), text);  // canonical fixpoint
}

TEST(GtmSpec, NonDefaultsRoundTrip) {
  gtm::GtmParams p;
  p.discipline = "edf";
  p.admission = "token-bucket";
  p.admission_rate_per_us = 7.25;
  p.admission_burst = 3.0;
  p.admission_max_queue = 64;
  p.hedge_pct = 97.5;
  p.hedge_min_samples = 12;
  p.arrival_kind = "diurnal";
  p.rate_per_us = 11.0;
  p.diurnal_period_us = 33.0;
  p.diurnal_amplitude = 0.45;
  p.diurnal_phases = 6;
  const auto back = gtm::parse_gtm(gtm::dump_gtm(p), "dump");
  EXPECT_TRUE(p == back);
  EXPECT_FALSE(gtm::diff_gtm(p, back).size());
}

TEST(GtmSpec, SkipsForeignSectionsButValidatesItsOwn) {
  // A platform or cluster spec carrying GTM sections: foreign keys pass
  // through untouched, GTM keys are schema-checked.
  const char* text =
      "[cluster]\n"
      "servers = epyc7302\n"
      "[gtm]\n"
      "discipline = priority\n";
  const auto p = gtm::parse_gtm(text, "t");
  EXPECT_EQ(p.discipline, "priority");

  EXPECT_THROW(gtm::parse_gtm("[gtm]\nbogus_key = 1\n", "t"), spec::Error);
  EXPECT_THROW(gtm::parse_gtm("[gtm]\ndiscipline = fifo\ndiscipline = edf\n", "t"), spec::Error);
  EXPECT_THROW(gtm::parse_gtm("[gtm]\ndiscipline = lifo\n", "t"), spec::Error);
  EXPECT_THROW(gtm::parse_gtm("[arrivals]\nkind = trace\n", "t"), spec::Error);  // no file
  EXPECT_THROW(gtm::parse_gtm("[gtm]\nhedge_pct = 100\n", "t"), spec::Error);
  EXPECT_THROW(gtm::parse_gtm("[gtm]\nhedge_pct = abc\n", "t"), spec::Error);
}

TEST(GtmSpec, DiffReportsChangedFieldsOnly) {
  gtm::GtmParams a;
  gtm::GtmParams b;
  EXPECT_TRUE(gtm::diff_gtm(a, b).empty());
  b.discipline = "edf";
  b.hedge_pct = 95.0;
  const auto d = gtm::diff_gtm(a, b);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], "[gtm] discipline: fifo != edf");
  EXPECT_EQ(d[1], "[gtm] hedge_pct: 0 != 95");
}

TEST(GtmSpec, ToPolicyAndToArrivalConvert) {
  gtm::GtmParams p;
  p.discipline = "priority";
  p.admission = "token-bucket";
  p.admission_rate_per_us = 5.0;
  p.hedge_pct = 90.0;
  p.arrival_kind = "mmpp";
  p.burst_factor = 2.5;
  const auto policy = gtm::to_policy(p);
  EXPECT_EQ(policy.discipline, gtm::Discipline::kPriority);
  EXPECT_EQ(policy.admission.mode, gtm::AdmissionMode::kTokenBucket);
  EXPECT_DOUBLE_EQ(policy.admission.rate_per_us, 5.0);
  EXPECT_DOUBLE_EQ(policy.hedge.pct, 90.0);
  EXPECT_TRUE(policy.hedging());
  EXPECT_TRUE(policy.admitting());
  EXPECT_FALSE(policy.is_default());
  EXPECT_TRUE(gtm::TrafficPolicy{}.is_default());

  const auto a = gtm::to_arrival(p, "");
  EXPECT_EQ(a.kind, gtm::ArrivalKind::kMmpp);
  EXPECT_DOUBLE_EQ(a.burst_factor, 2.5);
}

TEST(GtmSpec, TraceFileResolvesRelativeToBaseDir) {
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream out(dir + "gtm_rel_trace.txt");
    out << "10\n20\n30\n";
  }
  gtm::GtmParams p;
  p.arrival_kind = "trace";
  p.trace_file = "gtm_rel_trace.txt";
  const auto a = gtm::to_arrival(p, dir.substr(0, dir.size() - 1));  // TempDir ends in '/'
  ASSERT_EQ(a.trace_ns.size(), 3u);
  EXPECT_DOUBLE_EQ(a.trace_ns[2], 30.0);
}

}  // namespace

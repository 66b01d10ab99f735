// Unit tests: histogram, summary, time series, sketches, fairness.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "sim/random.hpp"
#include "stats/countmin.hpp"
#include "stats/fairness.hpp"
#include "stats/histogram.hpp"
#include "stats/spacesaving.hpp"
#include "stats/summary.hpp"
#include "stats/timeseries.hpp"

namespace scn::stats {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SmallValuesExact) {
  Histogram h;
  for (int v = 0; v < 128; ++v) h.record(v);
  EXPECT_EQ(h.count(), 128u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 127);
  EXPECT_EQ(h.quantile(0.5), 63);  // the ceil(0.5*128) = 64th smallest sample is 63
  EXPECT_EQ(h.p999(), 127);
}

TEST(Histogram, MeanAndStddev) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  EXPECT_NEAR(h.stddev(), std::sqrt(200.0 / 3.0), 1e-9);
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, RecordNWeights) {
  Histogram h;
  h.record_n(100, 1000);
  h.record_n(200, 1);
  EXPECT_EQ(h.count(), 1001u);
  EXPECT_LE(h.quantile(0.5), 101);
  EXPECT_EQ(h.max(), 200);
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_DOUBLE_EQ(a.mean(), 505.0);
}

TEST(Histogram, MergeEmptyIsNoop) {
  Histogram a;
  Histogram b;
  a.record(42);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.max(), 42);
}

TEST(Histogram, MergeScaledMultipliesMass) {
  // The fast path synthesizes N completions from a measured sample of n by
  // merging the sample shape at factor N/n: counts scale, the shape doesn't.
  Histogram sample;
  for (int i = 0; i < 100; ++i) sample.record(100 + (i % 10));
  Histogram out;
  const std::uint64_t added = out.merge_scaled(sample, 3.0);
  EXPECT_EQ(added, 300u);
  EXPECT_EQ(out.count(), 300u);
  EXPECT_EQ(out.min(), sample.min());
  EXPECT_EQ(out.max(), sample.max());
  EXPECT_NEAR(out.mean(), sample.mean(), 1e-9);
  EXPECT_EQ(out.quantile(0.5), sample.quantile(0.5));
  EXPECT_EQ(out.p999(), sample.p999());
}

TEST(Histogram, MergeScaledFractionalFactorConservesTotal) {
  // Rounding carries across buckets: the total added mass lands within one
  // sample of factor * count even when every bucket individually rounds.
  Histogram sample;
  for (int i = 0; i < 999; ++i) sample.record(50 + 7 * (i % 23));
  Histogram out;
  const std::uint64_t added = out.merge_scaled(sample, 0.37);
  EXPECT_NEAR(static_cast<double>(added), 0.37 * 999.0, 1.0);
  EXPECT_EQ(out.count(), added);
}

TEST(Histogram, MergeScaledDegenerateInputsAreNoops) {
  Histogram sample;
  sample.record(10);
  Histogram out;
  EXPECT_EQ(out.merge_scaled(Histogram{}, 2.0), 0u);  // empty source
  EXPECT_EQ(out.merge_scaled(sample, 0.0), 0u);       // zero factor
  EXPECT_EQ(out.merge_scaled(sample, -1.0), 0u);      // negative factor
  EXPECT_TRUE(out.empty());
}

TEST(Histogram, MergeScaledIntoExistingCombines) {
  Histogram existing;
  existing.record(10);
  Histogram tail;
  tail.record(5000);
  existing.merge_scaled(tail, 2.0);
  EXPECT_EQ(existing.count(), 3u);
  EXPECT_EQ(existing.min(), 10);
  EXPECT_EQ(existing.max(), 5000);
  // Mean tracks the batch update: (10 + 2 * 5000) / 3.
  EXPECT_NEAR(existing.mean(), (10.0 + 2.0 * 5000.0) / 3.0, existing.mean() * 0.01);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(5);
  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, QuantileMonotone) {
  Histogram h;
  sim::Rng rng(3);
  for (int i = 0; i < 10000; ++i) h.record(static_cast<std::int64_t>(rng.below(1000000)));
  std::int64_t last = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const auto v = h.quantile(q);
    EXPECT_GE(v, last);
    last = v;
  }
  EXPECT_EQ(h.quantile(1.0), h.max());
}

TEST(Histogram, SummaryStringHasFields) {
  Histogram h;
  h.record(1500);
  const auto s = h.summary_string(0.001, "us");
  EXPECT_NE(s.find("n=1"), std::string::npos);
  EXPECT_NE(s.find("us"), std::string::npos);
}

// Property: relative quantile error bounded by ~1.6% across magnitudes.
class HistogramAccuracy : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(HistogramAccuracy, SingleValueQuantileWithinBound) {
  const std::int64_t v = GetParam();
  Histogram h;
  h.record_n(v, 100);
  const auto q = h.quantile(0.5);
  EXPECT_GE(q, v);  // bucket upper bound never underestimates
  EXPECT_LE(static_cast<double>(q - v), std::max<double>(1.0, v * 0.017));
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, HistogramAccuracy,
                         ::testing::Values(1, 127, 128, 129, 1000, 123456, 1234567, 87654321,
                                           1234567890123LL));

TEST(Histogram, QuantileOfNanReadsAsZero) {
  Histogram h;
  h.record(7);
  h.record(900);
  EXPECT_EQ(h.quantile(std::numeric_limits<double>::quiet_NaN()), h.quantile(0.0));
  EXPECT_EQ(h.quantile(std::numeric_limits<double>::quiet_NaN()), 7);
}

TEST(Histogram, MergeScaledNonFiniteOrOverflowingFactorIsNoop) {
  Histogram sample;
  sample.record(10);
  Histogram out;
  out.record(3);
  EXPECT_EQ(out.merge_scaled(sample, std::numeric_limits<double>::infinity()), 0u);
  EXPECT_EQ(out.merge_scaled(sample, -std::numeric_limits<double>::infinity()), 0u);
  EXPECT_EQ(out.merge_scaled(sample, std::numeric_limits<double>::quiet_NaN()), 0u);
  // Finite, but the scaled count would not fit in 64 bits.
  EXPECT_EQ(out.merge_scaled(sample, 1e300), 0u);
  EXPECT_EQ(out.count(), 1u);
  EXPECT_EQ(out.max(), 3);
  EXPECT_DOUBLE_EQ(out.mean(), 3.0);
}

// ---- footprint: rows are held only up to the highest recorded row -----------

TEST(HistogramFootprint, DefaultHoldsNoBuckets) {
  Histogram h;
  EXPECT_EQ(h.bucket_count(), 0u);
  EXPECT_EQ(Histogram{}.bucket_count(), 0u);
}

TEST(HistogramFootprint, SmallValuesHoldOneRow) {
  Histogram h;
  for (int v = 0; v < 128; ++v) h.record(v);
  h.record(-3);
  EXPECT_EQ(h.bucket_count(), 128u);
}

TEST(HistogramFootprint, GrowsToHighestRowAndResetReleasesThem) {
  Histogram h;
  h.record(1'000'000);  // msb 19: row 13
  EXPECT_EQ(h.bucket_count(), 14u * 128u);
  h.record(5);  // a lower row adds nothing
  EXPECT_EQ(h.bucket_count(), 14u * 128u);
  Histogram big;
  big.record(std::numeric_limits<std::int64_t>::max());  // msb 62: row 56
  h.merge(big);
  EXPECT_EQ(h.bucket_count(), 57u * 128u);
  h.reset();
  EXPECT_EQ(h.bucket_count(), 0u);
}

// ---- equivalence with the dense layout ---------------------------------------

// The layout Histogram had before rows were allocated on demand: all 58 rows
// up front, every scan over all of them. Kept here only as the oracle for the
// property test below.
class DenseHistogram {
 public:
  DenseHistogram() : buckets_(58 * 128, 0) {}

  void record_n(std::int64_t value, std::uint64_t count) {
    if (count == 0) return;
    const std::uint64_t v = value < 0 ? 0ULL : static_cast<std::uint64_t>(value);
    buckets_[index(v)] += count;
    if (count_ == 0) {
      min_ = max_ = static_cast<std::int64_t>(v);
    } else {
      min_ = std::min<std::int64_t>(min_, static_cast<std::int64_t>(v));
      max_ = std::max<std::int64_t>(max_, static_cast<std::int64_t>(v));
    }
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(count);
    count_ += count;
    const double delta = static_cast<double>(v) - mean_;
    mean_ += delta * n2 / (n1 + n2);
    m2_ += delta * delta * n1 * n2 / (n1 + n2);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::int64_t max() const { return max_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double stddev() const {
    if (count_ < 2) return 0.0;
    const double var = m2_ / static_cast<double>(count_);
    return var > 0.0 ? std::sqrt(var) : 0.0;
  }

  [[nodiscard]] std::int64_t quantile(double q) const {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    if (q >= 1.0) return max_;
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= target && buckets_[i] > 0) return std::min(upper_bound(i), max_);
    }
    return max_;
  }

  void merge(const DenseHistogram& other) {
    if (other.count_ == 0) return;
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
    fold_range(other);
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    mean_ += delta * n2 / (n1 + n2);
    m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
    count_ += other.count_;
  }

  std::uint64_t merge_scaled(const DenseHistogram& other, double factor) {
    if (other.count_ == 0 || factor <= 0.0) return 0;
    std::uint64_t added = 0;
    double carry = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (other.buckets_[i] == 0) continue;
      const double scaled = static_cast<double>(other.buckets_[i]) * factor + carry;
      const double whole = std::floor(scaled + 0.5);
      carry = scaled - whole;
      if (whole <= 0.0) continue;
      const auto n = static_cast<std::uint64_t>(whole);
      buckets_[i] += n;
      added += n;
    }
    if (added == 0) return 0;
    fold_range(other);
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(added);
    const double delta = other.mean_ - mean_;
    mean_ += delta * n2 / (n1 + n2);
    m2_ += other.m2_ * (n2 / static_cast<double>(other.count_)) +
           delta * delta * n1 * n2 / (n1 + n2);
    count_ += added;
    return added;
  }

  void reset() {
    std::fill(buckets_.begin(), buckets_.end(), 0ULL);
    count_ = 0;
    min_ = max_ = 0;
    mean_ = m2_ = 0.0;
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < 128) return static_cast<std::size_t>(v);
    const int row = (63 - std::countl_zero(v)) - 6;
    return static_cast<std::size_t>(row) * 128 + static_cast<std::size_t>((v >> row) & 127);
  }
  static std::int64_t upper_bound(std::size_t idx) {
    const auto row = idx / 128;
    const auto sub = idx % 128;
    if (row == 0) return static_cast<std::int64_t>(sub);
    return static_cast<std::int64_t>(((static_cast<std::uint64_t>(sub) + 1) << row) - 1);
  }
  void fold_range(const DenseHistogram& other) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// A value of random magnitude: anywhere from 0 to INT64_MAX, negatives too, so
// every row (and growth from every row to every higher one) gets exercised.
std::int64_t random_value(sim::Rng& rng) {
  switch (rng.below(8)) {
    case 0: return -static_cast<std::int64_t>(rng.below(1000)) - 1;
    case 1: return std::numeric_limits<std::int64_t>::max();
    case 2: return static_cast<std::int64_t>(rng.below(128));
    default: {
      const auto bits = static_cast<int>(rng.below(63));  // msb 0..62
      return static_cast<std::int64_t>((rng() >> (63 - bits)) | (1ULL << bits));
    }
  }
}

void expect_same(const Histogram& h, const DenseHistogram& d, int step) {
  SCOPED_TRACE(step);
  ASSERT_EQ(h.count(), d.count());
  EXPECT_EQ(h.min(), d.min());
  EXPECT_EQ(h.max(), d.max());
  // Bit-identical moments, not merely close: the Welford order is unchanged.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(h.mean()), std::bit_cast<std::uint64_t>(d.mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(h.stddev()), std::bit_cast<std::uint64_t>(d.stddev()));
  for (double q : {0.0, 1e-9, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.quantile(q), d.quantile(q)) << "q=" << q;
  }
}

TEST(HistogramEquivalence, MatchesDenseLayoutUnderRandomOps) {
  constexpr std::size_t kSlots = 6;
  std::vector<Histogram> sparse(kSlots);
  std::vector<DenseHistogram> dense(kSlots);
  sim::Rng rng(0x5eed);
  for (int step = 0; step < 4000; ++step) {
    const std::size_t a = rng.below(kSlots);
    const std::size_t b = rng.below(kSlots);
    // Merges compound counts; keep them far below 2^64 so that a scaled
    // bucket always fits the integer merge_scaled casts it to.
    for (const std::size_t slot : {a, b}) {
      if (sparse[slot].count() > 1'000'000'000'000ULL) {
        sparse[slot].reset();
        dense[slot].reset();
      }
    }
    switch (rng.below(10)) {
      case 0:
      case 1:
      case 2: {
        const auto v = random_value(rng);
        sparse[a].record(v);
        dense[a].record_n(v, 1);
        break;
      }
      case 3:
      case 4: {
        const auto v = random_value(rng);
        const std::uint64_t n = rng.bernoulli(0.1) ? rng.below(1'000'000) : 1 + rng.below(50);
        sparse[a].record_n(v, n);
        dense[a].record_n(v, n);
        break;
      }
      case 5:
      case 6:
        sparse[a].merge(sparse[b]);
        dense[a].merge(dense[b]);
        break;
      case 7:
      case 8: {
        // Mostly fractional factors so that the rounding carry matters; now
        // and then a zero or negative one.
        const double factor = rng.bernoulli(0.1) ? -rng.uniform(0.0, 1.0) : rng.uniform(0.0, 4.0);
        EXPECT_EQ(sparse[a].merge_scaled(sparse[b], factor), dense[a].merge_scaled(dense[b], factor));
        break;
      }
      default:
        if (rng.bernoulli(0.3)) {
          sparse[a].reset();
          dense[a].reset();
        }
        break;
    }
    expect_same(sparse[a], dense[a], step);
    if (HasFatalFailure()) return;
  }
  for (std::size_t i = 0; i < kSlots; ++i) expect_same(sparse[i], dense[i], -1);
}

// ---- moments: stddev on large-magnitude samples ------------------------------

TEST(HistogramMoments, StddevStableAtTickMagnitude) {
  // Two samples 2 apart at ~1e9 (nanosecond ticks): population stddev is
  // exactly 1. The naive E[x^2]-E[x]^2 formula cancels catastrophically at
  // this magnitude (absolute error of the squared sums is ~hundreds).
  Histogram h;
  for (int i = 0; i < 1000; ++i) {
    h.record(1'000'000'000);
    h.record(1'000'000'002);
  }
  EXPECT_DOUBLE_EQ(h.mean(), 1'000'000'001.0);
  EXPECT_NEAR(h.stddev(), 1.0, 1e-6);
}

TEST(HistogramMoments, MergeMatchesSingleAccumulation) {
  Histogram all;
  Histogram left;
  Histogram right;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t a = 2'000'000'000 + i;
    const std::int64_t b = 2'000'000'000 - i;
    all.record(a);
    all.record(b);
    left.record(a);
    right.record(b);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-6);
  EXPECT_NEAR(left.stddev(), all.stddev(), 1e-6);
}

TEST(HistogramMoments, RecordNMatchesRepeatedRecord) {
  Histogram weighted;
  Histogram repeated;
  weighted.record_n(3'000'000'000, 1000);
  weighted.record_n(3'000'000'010, 1000);
  for (int i = 0; i < 1000; ++i) {
    repeated.record(3'000'000'000);
    repeated.record(3'000'000'010);
  }
  EXPECT_NEAR(weighted.mean(), repeated.mean(), 1e-6);
  EXPECT_NEAR(weighted.stddev(), repeated.stddev(), 1e-6);
  EXPECT_NEAR(weighted.stddev(), 5.0, 1e-6);
}

TEST(Summary, WelfordMatchesNaive) {
  Summary s;
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  double mean = 0.0;
  for (double x : xs) {
    s.record(x);
    mean += x;
  }
  mean /= xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
}

TEST(Summary, MergeEqualsSequential) {
  Summary a;
  Summary b;
  Summary all;
  sim::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0, 100);
    (i % 2 == 0 ? a : b).record(x);
    all.record(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(TimeSeries, BucketsByInterval) {
  TimeSeries ts(sim::from_us(1.0));
  ts.record(sim::from_ns(100), 64.0);
  ts.record(sim::from_ns(900), 64.0);
  ts.record(sim::from_us(1.5), 64.0);
  EXPECT_DOUBLE_EQ(ts.bucket_total(0), 128.0);
  EXPECT_DOUBLE_EQ(ts.bucket_total(1), 64.0);
  EXPECT_DOUBLE_EQ(ts.bucket_total(2), 0.0);
  EXPECT_DOUBLE_EQ(ts.total(), 192.0);
}

TEST(TimeSeries, RatePerNs) {
  TimeSeries ts(sim::from_us(1.0));
  // 1000 bytes in a 1 us bucket = 1 byte/ns.
  ts.record(sim::from_ns(10), 1000.0);
  EXPECT_NEAR(ts.bucket_rate_per_ns(0), 1.0, 1e-12);
}

TEST(TimeSeries, OutOfRangeBucketIsZero) {
  TimeSeries ts(100);
  EXPECT_DOUBLE_EQ(ts.bucket_total(99), 0.0);
  ts.record(-5, 1.0);  // clamps to bucket 0
  EXPECT_DOUBLE_EQ(ts.bucket_total(0), 1.0);
}

TEST(CountMin, NeverUnderestimates) {
  CountMinSketch sk(256, 4);
  sim::Rng rng(7);
  std::unordered_map<std::uint64_t, std::uint64_t> truth;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.below(500);
    const std::uint64_t amount = 1 + rng.below(100);
    sk.add(key, amount);
    truth[key] += amount;
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(sk.estimate(key), count);
  }
}

TEST(CountMin, ErrorWithinEpsilonBound) {
  auto sk = CountMinSketch::for_error(0.005, 0.001);
  sim::Rng rng(9);
  std::unordered_map<std::uint64_t, std::uint64_t> truth;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t key = rng.below(2000);
    sk.add(key);
    ++truth[key];
  }
  const double bound = 0.005 * static_cast<double>(sk.total());
  int violations = 0;
  for (const auto& [key, count] : truth) {
    if (static_cast<double>(sk.estimate(key) - count) > bound) ++violations;
  }
  // With delta=0.001 per query, a handful of violations over 2000 keys would
  // already be unlikely; allow 2 for slack.
  EXPECT_LE(violations, 2);
}

TEST(CountMin, ResetZeroes) {
  CountMinSketch sk(64, 2);
  sk.add(1, 100);
  sk.reset();
  EXPECT_EQ(sk.estimate(1), 0u);
  EXPECT_EQ(sk.total(), 0u);
}

TEST(SpaceSaving, ExactWhenUnderCapacity) {
  SpaceSaving ss(10);
  for (int i = 0; i < 5; ++i) {
    for (int k = 0; k <= i; ++k) ss.add(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(ss.estimate(4), 5u);
  EXPECT_EQ(ss.estimate(0), 1u);
  auto top = ss.top();
  EXPECT_EQ(top.front().key, 4u);
  EXPECT_EQ(top.front().error, 0u);
}

TEST(SpaceSaving, FindsHeavyHittersInSkewedStream) {
  SpaceSaving ss(8);
  sim::Rng rng(11);
  // Two heavy keys drown in light noise.
  for (int i = 0; i < 30000; ++i) {
    if (i % 3 == 0) {
      ss.add(1000001);
    } else if (i % 3 == 1) {
      ss.add(1000002);
    } else {
      ss.add(rng.below(5000));
    }
  }
  auto top = ss.top();
  const std::uint64_t first = top[0].key;
  const std::uint64_t second = top[1].key;
  EXPECT_TRUE((first == 1000001 && second == 1000002) ||
              (first == 1000002 && second == 1000001));
}

TEST(SpaceSaving, OverestimateBoundedByError) {
  SpaceSaving ss(4);
  for (int i = 0; i < 100; ++i) ss.add(static_cast<std::uint64_t>(i % 20));
  for (const auto& c : ss.top()) {
    EXPECT_GE(c.count, c.error);  // count includes at most `error` slack
  }
}

TEST(Fairness, JainIndexBasics) {
  const std::vector<double> equal{10.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(jain_index(equal), 1.0);
  const std::vector<double> skewed{30.0, 0.0, 0.0};
  EXPECT_NEAR(jain_index(skewed), 1.0 / 3.0, 1e-12);
  const std::vector<double> case4{0.4, 0.6};
  EXPECT_NEAR(jain_index(case4), 1.0 / 1.04, 1e-9);
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(jain_index(empty), 1.0);
}

}  // namespace
}  // namespace scn::stats

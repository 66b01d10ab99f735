// HDR-style log-bucketed histogram for latency distributions.
//
// The paper reports average and P999 latencies; sub-1% relative error on
// quantiles is plenty. Buckets are organized as (exponent, mantissa-slice)
// pairs: values up to 2^kSubBucketBits are exact, beyond that relative error
// is bounded by 2 / 2^kSubBucketBits (~1.6%).
//
// Bucket rows are held only up to the highest row recorded so far: a
// histogram that never records allocates nothing, and one whose samples stay
// under 100 us (picosecond ticks, < 2^27) holds 21 of the 57 rows that
// non-negative int64 values span. Rows are appended whole, once per new
// highest row, never per sample.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace scn::stats {

class Histogram {
 public:
  /// Record one sample (values < 0 clamp to 0).
  void record(std::int64_t value) noexcept;
  /// Record `count` identical samples.
  void record_n(std::int64_t value, std::uint64_t count) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::int64_t min() const noexcept;
  [[nodiscard]] std::int64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double stddev() const noexcept;

  /// Quantile in [0,1] (NaN reads as 0); returns an upper bound of the bucket
  /// containing the q-th sample. quantile(1.0) == max().
  [[nodiscard]] std::int64_t quantile(double q) const noexcept;

  [[nodiscard]] std::int64_t p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] std::int64_t p90() const noexcept { return quantile(0.90); }
  [[nodiscard]] std::int64_t p99() const noexcept { return quantile(0.99); }
  [[nodiscard]] std::int64_t p999() const noexcept { return quantile(0.999); }

  /// Merge another histogram into this one.
  void merge(const Histogram& other) noexcept;

  /// Merge `other` scaled by `factor`: its bucket counts are multiplied by
  /// `factor` with carry-based rounding (total added mass is round(count *
  /// factor) up to +/-1), so a short measured sample can stand in for a long
  /// analytically-advanced interval with the same *shape*. Moments fold in
  /// via Chan's batch update using `other`'s exact mean/M2 (scaled), so
  /// mean()/stddev() stay sample-exact; quantiles inherit the usual bucket
  /// granularity. Returns the number of samples added. A factor that is not
  /// positive, is NaN, or would scale the count past 2^64 (inf included) adds
  /// nothing.
  std::uint64_t merge_scaled(const Histogram& other, double factor) noexcept;

  /// Clears every sample. The rows' memory is kept for reuse, but
  /// bucket_count() reads 0 again until the next record.
  void reset() noexcept;

  /// Buckets currently held (a whole number of rows): the histogram's
  /// footprint, not a statistic.
  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }

  /// One-line human-readable summary (for telemetry export).
  [[nodiscard]] std::string summary_string(double unit_scale = 1.0,
                                           const std::string& unit = "") const;

 private:
  static constexpr int kSubBucketBits = 7;  // 128 sub-buckets per exponent
  static constexpr int kSubBucketCount = 1 << kSubBucketBits;

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept;
  [[nodiscard]] static std::int64_t bucket_upper_bound(std::size_t idx) noexcept;
  /// Appends zeroed rows so that bucket `idx` is held.
  void grow_to(std::size_t idx);

  std::vector<std::uint64_t> buckets_;  // rows 0..highest recorded, row-major
  std::uint64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  // Centered (Welford/Chan) moment accumulation: the naive E[x^2] - E[x]^2
  // formula catastrophically cancels for tick-magnitude samples (~1e9), where
  // the squared terms eat all of a double's mantissa.
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace scn::stats

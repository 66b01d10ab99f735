#include "stats/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace scn::stats {

std::size_t Histogram::bucket_index(std::uint64_t v) noexcept {
  if (v < static_cast<std::uint64_t>(kSubBucketCount)) return static_cast<std::size_t>(v);
  // Row r >= 1 holds values whose most-significant bit is at position
  // r + kSubBucketBits - 1; the top kSubBucketBits bits select the sub-bucket.
  const int msb = 63 - std::countl_zero(v);
  const int row = msb - kSubBucketBits + 1;
  const auto sub = static_cast<std::size_t>((v >> row) & (kSubBucketCount - 1));
  return static_cast<std::size_t>(row) * kSubBucketCount + sub;
}

std::int64_t Histogram::bucket_upper_bound(std::size_t idx) noexcept {
  const auto row = idx / kSubBucketCount;
  const auto sub = idx % kSubBucketCount;
  if (row == 0) return static_cast<std::int64_t>(sub);
  // Bucket (row, sub) covers [sub << row, ((sub + 1) << row) - 1] where the
  // sub index implicitly carries the leading bit (sub >= kSubBucketCount/2).
  return static_cast<std::int64_t>(((static_cast<std::uint64_t>(sub) + 1) << row) - 1);
}

void Histogram::grow_to(std::size_t idx) {
  const std::size_t rows = idx / kSubBucketCount + 1;
  const std::size_t size = rows * kSubBucketCount;
  // reserve() first so the vector holds exactly the rows in use rather than
  // the geometric capacity resize() alone would pick.
  buckets_.reserve(size);
  buckets_.resize(size, 0);
}

void Histogram::record(std::int64_t value) noexcept { record_n(value, 1); }

void Histogram::record_n(std::int64_t value, std::uint64_t count) noexcept {
  if (count == 0) return;
  const std::uint64_t v = value < 0 ? 0ULL : static_cast<std::uint64_t>(value);
  const std::size_t idx = bucket_index(v);
  if (idx >= buckets_.size()) grow_to(idx);
  buckets_[idx] += count;
  if (count_ == 0) {
    min_ = static_cast<std::int64_t>(v);
    max_ = static_cast<std::int64_t>(v);
  } else {
    min_ = std::min<std::int64_t>(min_, static_cast<std::int64_t>(v));
    max_ = std::max<std::int64_t>(max_, static_cast<std::int64_t>(v));
  }
  // Chan et al. batch update: fold `count` copies of v (batch mean v, batch
  // M2 0) into the running centered moments.
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(count);
  count_ += count;
  const double dv = static_cast<double>(v);
  const double delta = dv - mean_;
  mean_ += delta * n2 / (n1 + n2);
  m2_ += delta * delta * n1 * n2 / (n1 + n2);
}

std::int64_t Histogram::min() const noexcept { return count_ == 0 ? 0 : min_; }

double Histogram::mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }

double Histogram::stddev() const noexcept {
  if (count_ < 2) return 0.0;
  const double var = m2_ / static_cast<double>(count_);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

std::int64_t Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0;
  // std::clamp passes NaN through, and a NaN target would be cast to an
  // integer below.
  q = std::isnan(q) ? 0.0 : std::clamp(q, 0.0, 1.0);
  if (q >= 1.0) return max_;
  const auto target =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  // Every bucket below min_'s holds zero, so the scan starts at min_'s.
  std::uint64_t seen = 0;
  for (std::size_t i = bucket_index(static_cast<std::uint64_t>(min_)); i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      return std::min(bucket_upper_bound(i), max_);
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  if (other.buckets_.size() > buckets_.size()) grow_to(other.buckets_.size() - 1);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * n2 / (n1 + n2);
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  count_ += other.count_;
}

std::uint64_t Histogram::merge_scaled(const Histogram& other, double factor) noexcept {
  // `factor > 0.0` is false for NaN; the upper bound keeps every scaled
  // bucket (at most factor * count, rounded) inside the uint64 it is cast to.
  if (other.count_ == 0 || !(factor > 0.0) ||
      !(factor * static_cast<double>(other.count_) < 0x1p64)) {
    return 0;
  }
  if (other.buckets_.size() > buckets_.size()) grow_to(other.buckets_.size() - 1);
  std::uint64_t added = 0;
  double carry = 0.0;
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
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
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  // Chan batch update with the scaled sample treated as `added` draws from
  // other's distribution: batch mean other.mean_, batch M2 scaled by the
  // count ratio (M2 is linear in the sample count at fixed variance).
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(added);
  const double delta = other.mean_ - mean_;
  mean_ += delta * n2 / (n1 + n2);
  m2_ += other.m2_ * (n2 / static_cast<double>(other.count_)) +
         delta * delta * n1 * n2 / (n1 + n2);
  count_ += added;
  return added;
}

void Histogram::reset() noexcept {
  buckets_.clear();
  count_ = 0;
  min_ = max_ = 0;
  mean_ = m2_ = 0.0;
}

std::string Histogram::summary_string(double unit_scale, const std::string& unit) const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f%s p50=%.1f%s p99=%.1f%s p999=%.1f%s max=%.1f%s",
                static_cast<unsigned long long>(count_), mean() * unit_scale, unit.c_str(),
                static_cast<double>(p50()) * unit_scale, unit.c_str(),
                static_cast<double>(p99()) * unit_scale, unit.c_str(),
                static_cast<double>(p999()) * unit_scale, unit.c_str(),
                static_cast<double>(max()) * unit_scale, unit.c_str());
  return buf;
}

}  // namespace scn::stats

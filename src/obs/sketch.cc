#include "obs/sketch.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace fta {
namespace obs {

SketchLayout::SketchLayout(double ra) {
  FTA_CHECK_MSG(ra > 0.0 && ra <= 0.5,
                "sketch relative accuracy must be in (0, 0.5]");
  relative_accuracy = ra;
  gamma = (1.0 + ra) / (1.0 - ra);
  log_gamma = std::log(gamma);
  inv_log_gamma = 1.0 / log_gamma;
  min_index =
      static_cast<int32_t>(std::ceil(std::log(kSketchMinValue) *
                                     inv_log_gamma));
  max_index =
      static_cast<int32_t>(std::ceil(std::log(kSketchMaxValue) *
                                     inv_log_gamma));
}

int32_t SketchLayout::IndexFor(double value) const {
  // Callers route value <= 0 (and NaN) to the zero bucket before asking
  // for an index; infinities and out-of-range magnitudes clamp.
  const double raw = std::ceil(std::log(value) * inv_log_gamma);
  if (!(raw > static_cast<double>(min_index))) return min_index;
  if (!(raw < static_cast<double>(max_index))) return max_index;
  return static_cast<int32_t>(raw);
}

double SketchLayout::ValueFor(int32_t index) const {
  // Midpoint of (γ^(i-1), γ^i] under relative error: 2·γ^i/(γ+1).
  return std::exp(static_cast<double>(index) * log_gamma) * 2.0 /
         (gamma + 1.0);
}

namespace {

/// The micro-unit rounding rule: exact for integral and
/// micro-unit-representable values, so sums merge order-invariantly as
/// int64 additions. A value whose micro-units do not fit an int64 — NaN,
/// ±inf, |value| >= 9.2e12, all past the sketch's range anyway — keeps its
/// bucket but adds 0 to the sum (llround would return INT64_MIN).
int64_t ToMicros(double value) {
  const double micros = value * 1e6;
  if (!(std::fabs(micros) < 9.2e18)) return 0;
  return static_cast<int64_t>(std::llround(micros));
}

}  // namespace

void SketchData::Observe(double value) {
  ++total_;
  sum_micros_ += ToMicros(value);
  if (!(value > 0.0)) {
    ++zero_;
    return;
  }
  const int32_t index = layout_.IndexFor(value);
  const auto it = std::lower_bound(indices_.begin(), indices_.end(), index);
  const size_t pos = static_cast<size_t>(it - indices_.begin());
  if (it != indices_.end() && *it == index) {
    ++counts_[pos];
  } else {
    indices_.insert(it, index);
    counts_.insert(counts_.begin() + static_cast<ptrdiff_t>(pos), 1);
  }
}

void SketchData::AddBucket(int32_t index, uint64_t count) {
  if (count == 0) return;
  total_ += count;
  const auto it = std::lower_bound(indices_.begin(), indices_.end(), index);
  const size_t pos = static_cast<size_t>(it - indices_.begin());
  if (it != indices_.end() && *it == index) {
    counts_[pos] += count;
  } else {
    indices_.insert(it, index);
    counts_.insert(counts_.begin() + static_cast<ptrdiff_t>(pos), count);
  }
}

void SketchData::Merge(const SketchData& other) {
  FTA_CHECK_MSG(layout_ == other.layout_,
                "merging sketches with different layouts");
  // Sorted two-way merge; every cell combines by uint64 addition.
  std::vector<int32_t> indices;
  std::vector<uint64_t> counts;
  indices.reserve(indices_.size() + other.indices_.size());
  counts.reserve(indices_.size() + other.indices_.size());
  size_t a = 0, b = 0;
  while (a < indices_.size() || b < other.indices_.size()) {
    if (b == other.indices_.size() ||
        (a < indices_.size() && indices_[a] < other.indices_[b])) {
      indices.push_back(indices_[a]);
      counts.push_back(counts_[a]);
      ++a;
    } else if (a == indices_.size() || other.indices_[b] < indices_[a]) {
      indices.push_back(other.indices_[b]);
      counts.push_back(other.counts_[b]);
      ++b;
    } else {
      indices.push_back(indices_[a]);
      counts.push_back(counts_[a] + other.counts_[b]);
      ++a;
      ++b;
    }
  }
  indices_ = std::move(indices);
  counts_ = std::move(counts);
  zero_ += other.zero_;
  total_ += other.total_;
  sum_micros_ += other.sum_micros_;
}

double SketchData::ValueAtQuantile(double q) const {
  if (total_ == 0) return 0.0;
  uint64_t rank;
  if (q <= 0.0) {
    rank = 1;
  } else if (q >= 1.0) {
    rank = total_;
  } else {
    rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    if (rank < 1) rank = 1;
    if (rank > total_) rank = total_;
  }
  if (rank <= zero_) return 0.0;
  uint64_t cumulative = zero_;
  for (size_t i = 0; i < indices_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) return layout_.ValueFor(indices_[i]);
  }
  // Unreachable when the invariants hold (total_ == zero_ + Σ counts_).
  return layout_.ValueFor(layout_.max_index);
}

void SketchData::Reset() {
  indices_.clear();
  counts_.clear();
  zero_ = 0;
  total_ = 0;
  sum_micros_ = 0;
}

QuantileSketch::QuantileSketch(double relative_accuracy)
    : layout_(relative_accuracy), buckets_(layout_.num_buckets()) {}

void QuantileSketch::Observe(double value) {
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(ToMicros(value), std::memory_order_relaxed);
  if (!(value > 0.0)) {
    zero_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const size_t slot =
      static_cast<size_t>(layout_.IndexFor(value) - layout_.min_index);
  buckets_[slot].fetch_add(1, std::memory_order_relaxed);
}

SketchData QuantileSketch::Snapshot() const {
  SketchData data(layout_);
  for (size_t slot = 0; slot < buckets_.size(); ++slot) {
    const uint64_t count = buckets_[slot].load(std::memory_order_relaxed);
    if (count == 0) continue;
    data.indices_.push_back(layout_.min_index +
                            static_cast<int32_t>(slot));
    data.counts_.push_back(count);
  }
  data.zero_ = zero_.load(std::memory_order_relaxed);
  data.total_ = data.zero_;
  for (uint64_t c : data.counts_) data.total_ += c;
  data.sum_micros_ = sum_micros_.load(std::memory_order_relaxed);
  return data;
}

void QuantileSketch::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  zero_.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_micros_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace fta

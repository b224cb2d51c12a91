#ifndef FTA_OBS_SKETCH_H_
#define FTA_OBS_SKETCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fta {
namespace obs {

/// Deterministic mergeable quantile sketch (DDSketch-style).
///
/// Values are mapped to logarithmic buckets with a fixed relative accuracy
/// α: bucket i covers (γ^(i-1), γ^i] with γ = (1+α)/(1-α), so the bucket's
/// representative value 2·γ^i/(γ+1) is within a factor (1±α) of every
/// value in the bucket. Quantile readouts therefore carry a guaranteed
/// RELATIVE error bound without pre-chosen bucket bounds, across latency
/// tails of any magnitude.
///
/// Everything a sketch stores is a uint64 count, and every merge is an
/// unsigned integer addition — commutative and associative — so merging
/// per-thread or per-shard sketches yields a bit-identical result in any
/// order, the same contract the metrics registry's snapshot merge keeps
/// (see obs/metrics.h). The bucket index is a pure function of the value;
/// no wall clock, no randomness, no allocation-order dependence.
///
/// Two flavors share the bucket math:
///  - SketchData: a plain value type with sparse storage. Single-writer;
///    used for rolling-window epochs, snapshot readouts, and merging.
///  - QuantileSketch: a registry-resident dense array of relaxed atomics
///    for lock-free cross-thread observation, snapshotted into SketchData.

/// Smallest / largest positive value the bucket range resolves. Values
/// below the minimum land in the lowest bucket (their relative error can
/// exceed α); values above the maximum land in the highest bucket. With
/// millisecond-valued observations this spans sub-nanosecond to ~30 years.
inline constexpr double kSketchMinValue = 1e-9;
inline constexpr double kSketchMaxValue = 1e12;

/// The log-bucket geometry for one relative accuracy. All index math lives
/// here so SketchData and QuantileSketch cannot disagree.
struct SketchLayout {
  /// `relative_accuracy` must be in (0, 0.5]; the default 1% keeps the
  /// whole [kSketchMinValue, kSketchMaxValue] range under ~2500 buckets.
  explicit SketchLayout(double relative_accuracy = 0.01);

  double relative_accuracy = 0.0;
  double gamma = 0.0;          // (1+α)/(1−α)
  double inv_log_gamma = 0.0;  // 1 / ln(γ)
  double log_gamma = 0.0;      // ln(γ)
  int32_t min_index = 0;       // bucket index of kSketchMinValue
  int32_t max_index = 0;       // bucket index of kSketchMaxValue

  size_t num_buckets() const {
    return static_cast<size_t>(max_index - min_index) + 1;
  }
  /// Bucket index for a positive value, clamped to [min_index, max_index].
  /// Pure function of (value, layout) — the determinism anchor.
  int32_t IndexFor(double value) const;
  /// The bucket's representative value: the (1±α)-accurate midpoint.
  double ValueFor(int32_t index) const;

  bool operator==(const SketchLayout&) const = default;
};

/// Plain mergeable sketch value. Sparse: only touched buckets are stored
/// (sorted by index), so per-epoch instances stay tiny. NOT thread-safe;
/// external synchronization is the caller's job (RollingWindow holds one
/// per epoch under its own lock).
class SketchData {
 public:
  explicit SketchData(double relative_accuracy = 0.01)
      : layout_(relative_accuracy) {}
  explicit SketchData(const SketchLayout& layout) : layout_(layout) {}

  /// Records one observation. Values that are not > 0 (including NaN)
  /// count into the zero bucket, whose representative value is 0.
  void Observe(double value);
  /// Adds `count` observations of bucket `index` plus the matching
  /// micro-unit sum — the primitive Merge and snapshots are built from.
  void AddBucket(int32_t index, uint64_t count);

  /// Folds `other` in: cell-wise uint64 addition, so any merge order over
  /// any partition of the observations produces bit-identical state.
  /// Layouts must match (checked).
  void Merge(const SketchData& other);

  uint64_t count() const { return total_; }
  uint64_t zero_count() const { return zero_; }
  /// Sum of observed values, accumulated in integral micro-units
  /// (order-invariant by construction).
  double sum() const { return static_cast<double>(sum_micros_) * 1e-6; }
  int64_t sum_micros() const { return sum_micros_; }
  const SketchLayout& layout() const { return layout_; }
  bool empty() const { return total_ == 0; }

  /// Deterministic quantile readout. The rank rule is fixed: the returned
  /// value is the representative of the bucket holding observation number
  /// max(1, ceil(q·count)) in ascending order (zero bucket first). q
  /// outside [0,1] is clamped; an empty sketch reads 0.
  double ValueAtQuantile(double q) const;

  /// Touched buckets, ascending by index (excludes the zero bucket).
  const std::vector<int32_t>& bucket_indices() const { return indices_; }
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  void Reset();

  bool operator==(const SketchData&) const = default;

 private:
  friend class QuantileSketch;

  SketchLayout layout_;
  std::vector<int32_t> indices_;   // sorted ascending
  std::vector<uint64_t> counts_;   // parallel to indices_
  uint64_t zero_ = 0;
  uint64_t total_ = 0;
  int64_t sum_micros_ = 0;
};

/// Registry-resident sketch: one dense cache-friendly array of relaxed
/// atomics covering the full bucket range, written lock-free from any
/// thread. Snapshot() folds the cells into a SketchData; because every
/// cell is an unsigned integer, the fold is order-invariant and two
/// snapshots of the same logical observations are bit-identical however
/// the observing work was spread over threads.
class QuantileSketch {
 public:
  void Observe(double value);

  /// Order-invariant merged reading.
  SketchData Snapshot() const;

  uint64_t TotalCount() const {
    return total_.load(std::memory_order_relaxed);
  }
  const SketchLayout& layout() const { return layout_; }

  /// Callers must quiesce writers first (same contract as the registry's
  /// Reset).
  void Reset();

 private:
  friend class MetricsRegistry;
  explicit QuantileSketch(double relative_accuracy);

  SketchLayout layout_;
  std::vector<std::atomic<uint64_t>> buckets_;  // num_buckets() cells
  std::atomic<uint64_t> zero_{0};
  std::atomic<uint64_t> total_{0};
  std::atomic<int64_t> sum_micros_{0};
};

}  // namespace obs
}  // namespace fta

#endif  // FTA_OBS_SKETCH_H_

#ifndef FTA_OBS_METRICS_H_
#define FTA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sketch.h"
#include "util/mutex.h"

namespace fta {
namespace obs {

class JsonWriter;

/// Process-wide metrics registry: named counters, gauges, and quantile
/// sketches (obs/sketch.h).
///
/// Write path: every counter and sketch spreads its updates over a fixed
/// set of cache-line-padded atomic cells; a thread picks its cell once
/// (hash of its id) and then increments lock-free with relaxed ordering.
/// There is no per-update locking and no false sharing between pool
/// workers.
///
/// Read path: Snapshot() folds the cells with unsigned-integer addition —
/// commutative AND associative, so the merged reading is exactly the same
/// no matter how observations were spread over threads or in what order
/// cells are folded. To keep that guarantee, sketches accumulate their
/// value sum in integral micro-units (value * 1e6, rounded per
/// observation) rather than floating point: double addition is not
/// associative, micro-unit addition is. Count-like metrics driven by a
/// deterministic workload therefore snapshot bit-identically at any thread
/// count; wall-time-valued metrics vary run to run but never because of the
/// merge.
///
/// Registration (GetCounter etc.) takes a mutex; hot paths must cache the
/// returned reference (registered metrics are never deleted, only Reset).

/// Cells per sharded metric. A power of two so the thread-hash modulo is
/// cheap; 16 is comfortably above the pool sizes this library uses.
inline constexpr size_t kMetricCells = 16;

/// The cell of the calling thread (stable for the thread's lifetime).
size_t ThisThreadCell();

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t delta) {
    cells_[ThisThreadCell()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Order-invariant fold of the cells.
  uint64_t Value() const;
  void Reset();

 private:
  friend class MetricsRegistry;
  Counter() = default;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kMetricCells];
};

/// Last-write-wins instantaneous value. Unsharded: Set is a plain atomic
/// store. Use for configuration-like readings (thread counts, sizes) set
/// from one thread; concurrent setters race by design (last write wins).
class Gauge {
 public:
  void Set(double value) { v_.store(value, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> v_{0.0};
};

/// Point-in-time reading of one metric.
struct MetricReading {
  enum class Kind { kCounter, kGauge, kSketch };
  std::string name;
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;  // kCounter
  double gauge = 0.0;    // kGauge
  // kSketch: the merged sketch; count and sum mirror it for uniform access,
  // quantiles read via sketch.ValueAtQuantile.
  uint64_t count = 0;
  double sum = 0.0;
  SketchData sketch;

  bool operator==(const MetricReading&) const = default;
};

/// A full registry snapshot, sorted by metric name (the registry map is
/// ordered, so iteration order never depends on registration order).
struct MetricsSnapshot {
  std::vector<MetricReading> metrics;

  const MetricReading* Find(std::string_view name) const;
  /// {"metric name": {"kind": ..., ...}, ...} — see DESIGN.md §7.
  std::string ToJson() const;
  /// Emits the same object into an in-progress document (after Key()).
  void AppendTo(JsonWriter& w) const;
  /// The counter subset (the deterministic readings; timing-valued gauges
  /// and sketches are excluded). Used by determinism tests.
  std::vector<MetricReading> Counters() const;
};

class MetricsRegistry {
 public:
  /// The process-wide registry.
  static MetricsRegistry& Global();

  /// Finds or creates. The returned reference lives until process exit;
  /// hot paths should cache it. Re-registering an existing sketch name
  /// ignores the new relative accuracy (first registration wins; pinned by
  /// MetricsTest.SketchReRegistrationKeepsFirstAccuracy).
  Counter& GetCounter(const std::string& name) FTA_EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name) FTA_EXCLUDES(mu_);
  QuantileSketch& GetSketch(const std::string& name,
                            double relative_accuracy = 0.01)
      FTA_EXCLUDES(mu_);

  /// Order-invariant merged reading of every registered metric.
  MetricsSnapshot Snapshot() const FTA_EXCLUDES(mu_);

  /// Zeroes every metric (registrations survive). Callers must make sure
  /// no concurrent writers are active (quiesce pools first) — a reset
  /// racing an Add would produce an unspecified but memory-safe reading.
  void Reset() FTA_EXCLUDES(mu_);

 private:
  MetricsRegistry() = default;

  /// Guards the registration maps only. The metric cells themselves stay
  /// lock-free by design (relaxed atomics, order-invariant folds — see the
  /// file comment); a returned Counter& outlives the lock because
  /// registered metrics are never deleted.
  mutable Mutex mu_;
  // std::map: stable pointers + name-ordered snapshots.
  std::map<std::string, std::unique_ptr<Counter>> counters_
      FTA_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ FTA_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<QuantileSketch>> sketches_
      FTA_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace fta

#endif  // FTA_OBS_METRICS_H_

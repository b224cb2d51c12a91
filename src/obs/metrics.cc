#include "obs/metrics.h"

#include <algorithm>
#include <thread>

#include "obs/json.h"

namespace fta {
namespace obs {

size_t ThisThreadCell() {
  thread_local const size_t cell =
      std::hash<std::thread::id>()(std::this_thread::get_id()) %
      kMetricCells;
  return cell;
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Cell& cell : cells_) cell.v.store(0, std::memory_order_relaxed);
}

const MetricReading* MetricsSnapshot::Find(std::string_view name) const {
  for (const MetricReading& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::vector<MetricReading> MetricsSnapshot::Counters() const {
  std::vector<MetricReading> out;
  for (const MetricReading& m : metrics) {
    if (m.kind == MetricReading::Kind::kCounter) out.push_back(m);
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  AppendTo(w);
  return w.str();
}

void MetricsSnapshot::AppendTo(JsonWriter& w) const {
  w.BeginObject();
  for (const MetricReading& m : metrics) {
    w.Key(m.name);
    w.BeginObject();
    switch (m.kind) {
      case MetricReading::Kind::kCounter:
        w.Key("kind");
        w.String("counter");
        w.Key("value");
        w.UInt(m.counter);
        break;
      case MetricReading::Kind::kGauge:
        w.Key("kind");
        w.String("gauge");
        w.Key("value");
        w.Double(m.gauge);
        break;
      case MetricReading::Kind::kSketch:
        w.Key("kind");
        w.String("sketch");
        w.Key("relative_accuracy");
        w.Double(m.sketch.layout().relative_accuracy);
        w.Key("zero_count");
        w.UInt(m.sketch.zero_count());
        w.Key("count");
        w.UInt(m.count);
        w.Key("sum");
        w.Double(m.sum);
        w.Key("buckets");
        w.BeginArray();
        for (size_t i = 0; i < m.sketch.bucket_indices().size(); ++i) {
          w.BeginArray();
          w.Int(m.sketch.bucket_indices()[i]);
          w.UInt(m.sketch.bucket_counts()[i]);
          w.EndArray();
        }
        w.EndArray();
        w.Key("p50");
        w.Double(m.sketch.ValueAtQuantile(0.5));
        w.Key("p90");
        w.Double(m.sketch.ValueAtQuantile(0.9));
        w.Key("p99");
        w.Double(m.sketch.ValueAtQuantile(0.99));
        break;
    }
    w.EndObject();
  }
  w.EndObject();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter());
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge());
  return *slot;
}

QuantileSketch& MetricsRegistry::GetSketch(const std::string& name,
                                           double relative_accuracy) {
  MutexLock lock(&mu_);
  std::unique_ptr<QuantileSketch>& slot = sketches_[name];
  if (slot == nullptr) slot.reset(new QuantileSketch(relative_accuracy));
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snapshot;
  snapshot.metrics.reserve(counters_.size() + gauges_.size() +
                           sketches_.size());
  // One name-ordered pass per kind, then a final merge by name so the
  // snapshot order is a pure function of the metric names.
  for (const auto& [name, counter] : counters_) {
    MetricReading m;
    m.name = name;
    m.kind = MetricReading::Kind::kCounter;
    m.counter = counter->Value();
    snapshot.metrics.push_back(std::move(m));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricReading m;
    m.name = name;
    m.kind = MetricReading::Kind::kGauge;
    m.gauge = gauge->Value();
    snapshot.metrics.push_back(std::move(m));
  }
  for (const auto& [name, sketch] : sketches_) {
    MetricReading m;
    m.name = name;
    m.kind = MetricReading::Kind::kSketch;
    m.sketch = sketch->Snapshot();
    m.count = m.sketch.count();
    m.sum = m.sketch.sum();
    snapshot.metrics.push_back(std::move(m));
  }
  std::sort(snapshot.metrics.begin(), snapshot.metrics.end(),
            [](const MetricReading& a, const MetricReading& b) {
              return a.name < b.name;
            });
  return snapshot;
}

void MetricsRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, sketch] : sketches_) sketch->Reset();
}

}  // namespace obs
}  // namespace fta

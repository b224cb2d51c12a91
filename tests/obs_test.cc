#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/run_report.h"
#include "exp/runner.h"
#include "game/fgt.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/sketch.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "support/json_reader.h"
#include "util/logging.h"
#include "util/rng.h"
#include "vdps/catalog.h"

namespace fta {
namespace {

Instance RandomInstance(uint64_t seed, size_t num_dps, size_t num_workers,
                        double area = 10.0) {
  Rng rng(seed);
  std::vector<DeliveryPoint> dps;
  for (uint32_t d = 0; d < num_dps; ++d) {
    std::vector<SpatialTask> tasks;
    const size_t n = 1 + rng.Index(4);
    for (size_t t = 0; t < n; ++t) {
      tasks.push_back(SpatialTask{d, rng.Uniform(1.0, 4.0), 1.0});
    }
    dps.emplace_back(Point{rng.Uniform(0, area), rng.Uniform(0, area)},
                     std::move(tasks));
  }
  std::vector<Worker> workers;
  for (size_t w = 0; w < num_workers; ++w) {
    workers.push_back(
        Worker{{rng.Uniform(0, area), rng.Uniform(0, area)}, 3});
  }
  return Instance(Point{area / 2, area / 2}, std::move(dps),
                  std::move(workers), TravelModel(5.0));
}

// ------------------------------------------------------------------ JSON --

TEST(JsonTest, WriterEscapesAndRoundTrips) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("text");
  w.String("line1\nline2\t\"quoted\" \\slash");
  w.Key("count");
  w.UInt(18446744073709551615ull);
  w.Key("neg");
  w.Int(-42);
  w.Key("pi");
  w.Double(3.25);
  w.Key("flag");
  w.Bool(true);
  w.Key("nothing");
  w.Null();
  w.Key("list");
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.EndArray();
  w.EndObject();

  StatusOr<obs::JsonValue> parsed = obs::ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& v = *parsed;
  EXPECT_EQ(v.StringOr("text", ""), "line1\nline2\t\"quoted\" \\slash");
  EXPECT_DOUBLE_EQ(v.NumberOr("neg", 0), -42.0);
  EXPECT_DOUBLE_EQ(v.NumberOr("pi", 0), 3.25);
  EXPECT_TRUE(v.BoolOr("flag", false));
  ASSERT_NE(v.Find("list"), nullptr);
  EXPECT_EQ(v.Find("list")->array.size(), 2u);
}

TEST(JsonTest, ParserRejectsMalformed) {
  EXPECT_FALSE(obs::ParseJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(obs::ParseJson("[1, 2").ok());
  EXPECT_FALSE(obs::ParseJson("\"bad\\escape\"").ok());
}

// --------------------------------------------------------------- metrics --

/// Runs a fixed integral workload split over `num_threads` threads and
/// returns the resulting registry snapshot. The workload is identical in
/// total regardless of the split, so every snapshot must be bit-identical.
obs::MetricsSnapshot RunShardedWorkload(size_t num_threads) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  auto& counter = reg.GetCounter("obs_test/work_items");
  auto& sizes = reg.GetSketch("obs_test/work_sizes", 0.01);
  constexpr size_t kItems = 1200;
  std::vector<std::thread> threads;
  std::atomic<size_t> next{0};
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < kItems;
           i = next.fetch_add(1)) {
        counter.Add(i % 7);
        // Integral values: the micro-unit sum is exact, so the merged
        // reading cannot depend on which thread observed what.
        sizes.Observe(static_cast<double>(i % 40));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return reg.Snapshot();
}

TEST(MetricsTest, SnapshotMergeIsOrderInvariantAcrossThreadCounts) {
  const obs::MetricsSnapshot serial = RunShardedWorkload(1);
  const obs::MetricsSnapshot two = RunShardedWorkload(2);
  const obs::MetricsSnapshot eight = RunShardedWorkload(8);
  ASSERT_FALSE(serial.metrics.empty());
  EXPECT_EQ(serial.metrics, two.metrics);
  EXPECT_EQ(serial.metrics, eight.metrics);
  const obs::MetricReading* c = serial.Find("obs_test/work_items");
  ASSERT_NE(c, nullptr);
  uint64_t expected = 0;
  for (size_t i = 0; i < 1200; ++i) expected += i % 7;
  EXPECT_EQ(c->counter, expected);
  const obs::MetricReading* sizes = serial.Find("obs_test/work_sizes");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->kind, obs::MetricReading::Kind::kSketch);
  EXPECT_EQ(sizes->count, 1200u);
  // 30 passes over 0..39, summed exactly in micro-units.
  EXPECT_EQ(sizes->sketch.sum_micros(), int64_t{30 * 780} * 1'000'000);
}

TEST(MetricsTest, SnapshotJsonSortedAndParseable) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.GetCounter("obs_test/zeta").Add(3);
  reg.GetCounter("obs_test/alpha").Add(1);
  reg.GetGauge("obs_test/gauge").Set(2.5);
  const obs::MetricsSnapshot snap = reg.Snapshot();
  // Name-sorted regardless of registration order.
  for (size_t i = 1; i < snap.metrics.size(); ++i) {
    EXPECT_LT(snap.metrics[i - 1].name, snap.metrics[i].name);
  }
  StatusOr<obs::JsonValue> parsed = obs::ParseJson(snap.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* zeta = parsed->Find("obs_test/zeta");
  ASSERT_NE(zeta, nullptr);
  EXPECT_DOUBLE_EQ(zeta->NumberOr("value", 0), 3.0);
  EXPECT_EQ(zeta->StringOr("kind", ""), "counter");
}

TEST(MetricsTest, SketchReRegistrationKeepsFirstAccuracy) {
  auto& reg = obs::MetricsRegistry::Global();
  auto& first = reg.GetSketch("obs_test/rereg_sketch", 0.01);
  auto& second = reg.GetSketch("obs_test/rereg_sketch", 0.2);
  EXPECT_EQ(&first, &second);
  EXPECT_DOUBLE_EQ(second.layout().relative_accuracy, 0.01);
}

TEST(MetricsTest, SnapshotJsonIncludesSketch) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  auto& sketch = reg.GetSketch("obs_test/json_sketch");
  for (int i = 1; i <= 100; ++i) sketch.Observe(static_cast<double>(i));
  const obs::MetricsSnapshot snap = reg.Snapshot();
  const obs::MetricReading* m = snap.Find("obs_test/json_sketch");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, obs::MetricReading::Kind::kSketch);
  EXPECT_EQ(m->count, 100u);
  EXPECT_DOUBLE_EQ(m->sum, 5050.0);

  StatusOr<obs::JsonValue> parsed = obs::ParseJson(snap.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* j = parsed->Find("obs_test/json_sketch");
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->StringOr("kind", ""), "sketch");
  EXPECT_DOUBLE_EQ(j->NumberOr("count", 0), 100.0);
  // The readout quantile carries the sketch's relative-accuracy bound.
  EXPECT_NEAR(j->NumberOr("p50", 0), 50.0, 50.0 * 0.0101);
}

// ---------------------------------------------------------------- sketch --

TEST(SketchTest, QuantilesCarryTheRelativeAccuracyBound) {
  obs::SketchData s(0.01);
  std::vector<double> values;
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform over six decades: exactly the no-pre-chosen-bounds
    // regime fixed-boundary histograms cannot cover.
    const double v = std::exp(rng.Uniform(std::log(1e-3), std::log(1e3)));
    values.push_back(v);
    s.Observe(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(q * static_cast<double>(values.size()))));
    const double exact = values[std::min(rank, values.size()) - 1];
    EXPECT_NEAR(s.ValueAtQuantile(q), exact, exact * 0.0101) << "q=" << q;
  }
}

TEST(SketchTest, DeterministicRankRule) {
  const obs::SketchLayout layout(0.01);
  obs::SketchData s(layout);
  EXPECT_DOUBLE_EQ(s.ValueAtQuantile(0.5), 0.0);  // empty reads 0
  s.Observe(1.0);
  s.Observe(2.0);
  s.Observe(3.0);
  // rank = max(1, ceil(q*count)): q=0 reads observation #1, q=0.5 reads
  // #2, q=1 reads #3; out-of-range q clamps.
  EXPECT_DOUBLE_EQ(s.ValueAtQuantile(0.0),
                   layout.ValueFor(layout.IndexFor(1.0)));
  EXPECT_DOUBLE_EQ(s.ValueAtQuantile(0.5),
                   layout.ValueFor(layout.IndexFor(2.0)));
  EXPECT_DOUBLE_EQ(s.ValueAtQuantile(1.0),
                   layout.ValueFor(layout.IndexFor(3.0)));
  EXPECT_DOUBLE_EQ(s.ValueAtQuantile(2.0), s.ValueAtQuantile(1.0));
  EXPECT_DOUBLE_EQ(s.ValueAtQuantile(-1.0), s.ValueAtQuantile(0.0));

  // Non-positive and NaN observations land in the zero bucket; ranks that
  // fall inside it read exactly 0.
  obs::SketchData z(layout);
  z.Observe(0.0);
  z.Observe(-5.0);
  z.Observe(std::nan(""));
  z.Observe(10.0);
  EXPECT_EQ(z.zero_count(), 3u);
  EXPECT_EQ(z.count(), 4u);
  EXPECT_DOUBLE_EQ(z.ValueAtQuantile(0.5), 0.0);  // rank 2 <= zero count
  EXPECT_DOUBLE_EQ(z.ValueAtQuantile(1.0),
                   layout.ValueFor(layout.IndexFor(10.0)));
  // Non-finite observations keep their bucket but add 0 to the sum.
  EXPECT_EQ(z.sum_micros(), 5'000'000);
  z.Observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(z.sum_micros(), 5'000'000);
  EXPECT_EQ(z.count(), 5u);
  EXPECT_DOUBLE_EQ(z.ValueAtQuantile(1.0),
                   layout.ValueFor(layout.max_index));

  // The registry's atomic sketch folds the same sum.
  obs::QuantileSketch& q = obs::MetricsRegistry::Global().GetSketch(
      "obs_test/non_finite_sketch", 0.01);
  q.Reset();
  for (double v : {0.0, -5.0, std::nan(""), 10.0}) q.Observe(v);
  EXPECT_EQ(q.Snapshot().sum_micros(), 5'000'000);
  q.Observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(q.Snapshot().sum_micros(), 5'000'000);
  EXPECT_EQ(q.Snapshot().count(), 5u);
}

TEST(SketchTest, MergeIsOrderInvariant) {
  // Three shards with overlapping buckets, zero-bucket traffic, and
  // range-clamped extremes, merged in every order — plus a single sketch
  // ingesting the union in a different interleaving. All bit-identical.
  const std::vector<std::vector<double>> shards = {
      {0.5, 1.5, 0.5, 800.0},
      {1.5, 22.0, 1e-12},
      {0.0, 3.14, 0.5},
  };
  std::vector<obs::SketchData> parts;
  for (const std::vector<double>& shard : shards) {
    obs::SketchData s;
    for (double v : shard) s.Observe(v);
    parts.push_back(s);
  }
  std::vector<size_t> order = {0, 1, 2};
  obs::SketchData reference;
  bool have_reference = false;
  do {
    obs::SketchData merged;
    for (size_t i : order) merged.Merge(parts[i]);
    if (!have_reference) {
      reference = merged;
      have_reference = true;
    }
    EXPECT_EQ(merged, reference);
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(reference.count(), 10u);

  obs::SketchData interleaved;
  for (double v :
       {0.5, 1.5, 0.0, 22.0, 3.14, 0.5, 1e-12, 800.0, 1.5, 0.5}) {
    interleaved.Observe(v);
  }
  EXPECT_EQ(interleaved, reference);
}

/// Observes a fixed workload into the registry-resident atomic sketch from
/// `num_threads` threads; the snapshot must not depend on the split.
obs::SketchData RunShardedSketchWorkload(size_t num_threads) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  auto& sketch = reg.GetSketch("obs_test/latency_sketch");
  constexpr size_t kItems = 4000;
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < kItems;
           i = next.fetch_add(1)) {
        // i % 97 == 0 exercises the zero bucket concurrently too.
        sketch.Observe(0.05 * static_cast<double>(i % 97));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return sketch.Snapshot();
}

TEST(SketchTest, AtomicSnapshotIsThreadCountInvariant) {
  const obs::SketchData serial = RunShardedSketchWorkload(1);
  EXPECT_EQ(serial.count(), 4000u);
  EXPECT_GT(serial.zero_count(), 0u);
  EXPECT_EQ(serial, RunShardedSketchWorkload(2));
  EXPECT_EQ(serial, RunShardedSketchWorkload(8));
}

// ---------------------------------------------------------------- window --

TEST(WindowTest, EpochBoundariesAreExactAndOldEpochsEvict) {
  obs::RollingWindow window(2);
  window.Observe(1.0);
  const obs::WindowStats s0 = window.Stats();
  EXPECT_EQ(s0.count(), 1u);  // the in-progress epoch is included
  EXPECT_EQ(s0.epochs, 0u);
  EXPECT_DOUBLE_EQ(s0.RatePerEpoch(), 1.0);  // denominator clamps to 1

  window.Advance();  // seal {1}
  window.Observe(2.0);
  window.Observe(2.0);
  window.Advance();    // seal {2,2}
  window.Observe(4.0);  // in-progress
  const obs::WindowStats s1 = window.Stats();
  EXPECT_EQ(s1.epochs, 2u);
  EXPECT_EQ(s1.capacity, 2u);
  EXPECT_EQ(s1.count(), 4u);  // {1} + {2,2} + {4}
  EXPECT_DOUBLE_EQ(s1.sum(), 9.0);
  EXPECT_DOUBLE_EQ(s1.RatePerEpoch(), 2.0);

  window.Advance();  // seal {4}; the ring evicts {1}
  const obs::WindowStats s2 = window.Stats();
  EXPECT_EQ(window.epochs_sealed(), 2u);
  EXPECT_EQ(s2.count(), 3u);  // exactly {2,2} + {4}: the 1.0 left
  EXPECT_DOUBLE_EQ(s2.sum(), 8.0);
  const obs::SketchLayout layout(0.01);
  EXPECT_DOUBLE_EQ(s2.Quantile(0.5),
                   layout.ValueFor(layout.IndexFor(2.0)));
  EXPECT_DOUBLE_EQ(s2.Quantile(1.0),
                   layout.ValueFor(layout.IndexFor(4.0)));

  window.Reset();
  EXPECT_EQ(window.Stats().count(), 0u);
  EXPECT_EQ(window.epochs_sealed(), 0u);
}

/// Same fixed workload into one window epoch from `num_threads` threads.
obs::SketchData RunShardedWindowWorkload(size_t num_threads) {
  obs::RollingWindow window(4);
  constexpr size_t kItems = 2000;
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < kItems;
           i = next.fetch_add(1)) {
        window.Observe(0.25 * static_cast<double>(i % 53));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  window.Advance();  // seal the epoch the whole workload landed in
  return window.Stats().merged;
}

TEST(WindowTest, MergedStatsAreThreadCountInvariant) {
  const obs::SketchData serial = RunShardedWindowWorkload(1);
  EXPECT_EQ(serial.count(), 2000u);
  EXPECT_EQ(serial, RunShardedWindowWorkload(2));
  EXPECT_EQ(serial, RunShardedWindowWorkload(8));
}

// ------------------------------------------------------------ prometheus --

TEST(PrometheusTest, NameSanitization) {
  EXPECT_EQ(obs::PrometheusName("stream/tick_ms"), "fta_stream_tick_ms");
  EXPECT_EQ(obs::PrometheusName("a-b.c:d9"), "fta_a_b_c:d9");
}

TEST(PrometheusTest, TextPageCoversEveryMetricKind) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.GetCounter("obs_test/prom_counter").Add(3);
  reg.GetGauge("obs_test/prom_gauge").Set(2.5);
  auto& sk = reg.GetSketch("obs_test/prom_sketch");
  for (int i = 0; i < 10; ++i) sk.Observe(2.5);

  const std::string text = obs::ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE fta_obs_test_prom_counter_total counter\n"
                      "fta_obs_test_prom_counter_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fta_obs_test_prom_gauge gauge\n"
                      "fta_obs_test_prom_gauge 2.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fta_obs_test_prom_sketch summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("fta_obs_test_prom_sketch{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("fta_obs_test_prom_sketch_sum 25\n"),
            std::string::npos);
  EXPECT_NE(text.find("fta_obs_test_prom_sketch_count 10\n"),
            std::string::npos);
}

TEST(PrometheusTest, WindowSummaryAndAtomicPublish) {
  obs::RollingWindow window(3);
  window.Observe(1.0);
  window.Observe(5.0);
  window.Advance();
  window.Observe(9.0);
  std::string out;
  obs::AppendWindowSummary("tick_ms", window.Stats(), out);
  EXPECT_NE(out.find("# TYPE fta_window_tick_ms gauge\n"),
            std::string::npos);
  EXPECT_NE(out.find("fta_window_tick_ms{stat=\"count\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("fta_window_tick_ms{stat=\"epochs\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("fta_window_tick_ms{stat=\"rate_per_epoch\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("fta_window_tick_ms{stat=\"p50\"} "),
            std::string::npos);

  const std::string path = ::testing::TempDir() + "fta_obs_prom_test.prom";
  ASSERT_TRUE(obs::WriteTextFileAtomic(path, out));
  std::ifstream f(path, std::ios::binary);
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(buf.str(), out);
  // The temp name never survives a successful publish.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- spans --

TEST(TraceTest, DisabledRecordsNothing) {
  obs::SetTracingEnabled(false);
  obs::TraceRecorder::Global().Clear();
  {
    FTA_SPAN("obs_test/should_not_appear");
  }
  EXPECT_EQ(obs::TraceRecorder::Global().num_events(), 0u);
}

TEST(TraceTest, SpanNestingAndThreadAttribution) {
  obs::TraceRecorder::Global().Clear();
  obs::SetTracingEnabled(true);
  {
    FTA_SPAN("obs_test/outer");
    {
      FTA_SPAN("obs_test/inner");
    }
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
      workers.emplace_back([] { FTA_SPAN("obs_test/worker"); });
    }
    for (std::thread& th : workers) th.join();
  }
  obs::SetTracingEnabled(false);

  const std::vector<obs::SpanEvent> spans =
      obs::TraceRecorder::Global().Snapshot();
  const obs::SpanEvent* outer = nullptr;
  const obs::SpanEvent* inner = nullptr;
  std::vector<const obs::SpanEvent*> worker_spans;
  for (const obs::SpanEvent& s : spans) {
    if (s.name == "obs_test/outer") outer = &s;
    if (s.name == "obs_test/inner") inner = &s;
    if (s.name == "obs_test/worker") worker_spans.push_back(&s);
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(worker_spans.size(), 2u);
  // Nesting: the inner span is one level deeper, on the same thread, and
  // contained in the outer span's time range.
  EXPECT_EQ(inner->depth, outer->depth + 1);
  EXPECT_EQ(inner->tid, outer->tid);
  EXPECT_GE(inner->start_us, outer->start_us);
  EXPECT_LE(inner->start_us + inner->dur_us,
            outer->start_us + outer->dur_us);
  // Thread attribution: each worker records under its own tid, not the
  // main thread's, and starts at depth 0 on its thread.
  EXPECT_NE(worker_spans[0]->tid, outer->tid);
  EXPECT_NE(worker_spans[1]->tid, outer->tid);
  EXPECT_NE(worker_spans[0]->tid, worker_spans[1]->tid);
  EXPECT_EQ(worker_spans[0]->depth, 0u);
}

TEST(TraceTest, ChromeJsonParsesAndCoversSpans) {
  obs::TraceRecorder::Global().Clear();
  obs::SetTracingEnabled(true);
  {
    FTA_SPAN("obs_test/chrome");
  }
  obs::SetTracingEnabled(false);
  const std::string json = obs::TraceRecorder::Global().ToChromeJson();
  StatusOr<obs::JsonValue> parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->StringOr("displayTimeUnit", ""), "ms");
  const obs::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  bool has_thread_name = false;
  for (const obs::JsonValue& e : events->array) {
    if (e.StringOr("ph", "") == "X" &&
        e.StringOr("name", "") == "obs_test/chrome") {
      found = true;
    }
    if (e.StringOr("ph", "") == "M") has_thread_name = true;
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(has_thread_name);
}

// ------------------------------------------------------------ run report --

TEST(RunReportTest, JsonRoundTrip) {
  const Instance inst = RandomInstance(41, 10, 4);
  SolverOptions options;
  options.fgt.record_trace = true;
  options.fgt.max_rounds = 20;
  obs::MetricsRegistry::Global().Reset();
  const RunMetrics m = RunOnInstance(Algorithm::kFgt, inst, options);
  ASSERT_FALSE(m.trace.empty());

  const RunReport report =
      BuildRunReport("obs_test", "FGT", "random-41", m);
  StatusOr<obs::JsonValue> parsed = obs::ParseJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& v = *parsed;
  EXPECT_EQ(v.StringOr("schema", ""), "fta-run-report-v1");
  EXPECT_EQ(v.StringOr("tool", ""), "obs_test");
  EXPECT_EQ(v.StringOr("algorithm", ""), "FGT");
  EXPECT_EQ(v.StringOr("dataset", ""), "random-41");

  const obs::JsonValue* metrics = v.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(metrics->NumberOr("num_workers", 0), 4.0);
  EXPECT_DOUBLE_EQ(metrics->NumberOr("payoff_difference", -1),
                   m.payoff_difference);
  EXPECT_DOUBLE_EQ(metrics->NumberOr("rounds", -1),
                   static_cast<double>(m.rounds));

  const obs::JsonValue* iterations = v.Find("iterations");
  ASSERT_NE(iterations, nullptr);
  EXPECT_EQ(iterations->array.size(), m.trace.size());

  const obs::JsonValue* generation = v.Find("generation");
  ASSERT_NE(generation, nullptr);
  EXPECT_DOUBLE_EQ(generation->NumberOr("entries", -1),
                   static_cast<double>(m.generation.entries));

  const obs::JsonValue* registry = v.Find("metrics_registry");
  ASSERT_NE(registry, nullptr);
  const obs::JsonValue* fgt_runs = registry->Find("game/fgt/runs");
  ASSERT_NE(fgt_runs, nullptr);
  EXPECT_DOUBLE_EQ(fgt_runs->NumberOr("value", 0), 1.0);

  ASSERT_NE(v.Find("spans"), nullptr);
}

TEST(RunReportTest, WindowsSectionRoundTrips) {
  const Instance inst = RandomInstance(43, 8, 4);
  SolverOptions options;
  obs::MetricsRegistry::Global().Reset();
  const RunMetrics m = RunOnInstance(Algorithm::kFgt, inst, options);
  RunReport report = BuildRunReport("obs_test", "FGT", "random-43", m);
  obs::RollingWindow window(4);
  window.Observe(1.0);
  window.Observe(3.0);
  window.Advance();
  report.windows.emplace_back("tick_ms", window.Stats());

  StatusOr<obs::JsonValue> parsed = obs::ParseJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* windows = parsed->Find("windows");
  ASSERT_NE(windows, nullptr);
  const obs::JsonValue* tick = windows->Find("tick_ms");
  ASSERT_NE(tick, nullptr);
  EXPECT_DOUBLE_EQ(tick->NumberOr("count", 0), 2.0);
  EXPECT_DOUBLE_EQ(tick->NumberOr("sum", 0), 4.0);
  EXPECT_DOUBLE_EQ(tick->NumberOr("epochs", 0), 1.0);
  EXPECT_DOUBLE_EQ(tick->NumberOr("capacity", 0), 4.0);
  EXPECT_DOUBLE_EQ(tick->NumberOr("rate_per_epoch", 0), 2.0);
  EXPECT_GT(tick->NumberOr("p99", 0), 0.0);
}

// ----------------------------------------------------------- determinism --

/// Counter-kind registry readings, minus the batch-shaped counters
/// (parallel_batches, simd/batches) — the ones that
/// legitimately depend on the thread count: they count fan-outs and
/// per-shard kernel calls, not algorithmic work. game/simd/lanes stays:
/// the total candidate count is partition-invariant.
std::vector<obs::MetricReading> DeterministicCounters(
    const obs::MetricsSnapshot& snap) {
  std::vector<obs::MetricReading> out;
  for (const obs::MetricReading& m : snap.Counters()) {
    if (m.name.find("batches") != std::string::npos) continue;
    out.push_back(m);
  }
  return out;
}

TEST(DeterminismTest, ObsModesAndThreadCountsAreBitIdentical) {
  const Instance inst = RandomInstance(77, 12, 6);
  VdpsConfig vdps;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);

  struct RunResult {
    std::vector<Route> routes;
    std::vector<obs::MetricReading> counters;
  };
  const auto run = [&](bool tracing, size_t threads) {
    obs::MetricsRegistry::Global().Reset();
    obs::TraceRecorder::Global().Clear();
    obs::SetTracingEnabled(tracing);
    FgtConfig cfg;
    cfg.max_rounds = 50;
    cfg.engine.num_threads = threads;
    cfg.engine.min_parallel_candidates = 1;  // force the parallel path
    const GameResult r = SolveFgt(inst, catalog, cfg);
    obs::SetTracingEnabled(false);
    return RunResult{
        r.assignment.routes(),
        DeterministicCounters(obs::MetricsRegistry::Global().Snapshot())};
  };

  const RunResult base = run(/*tracing=*/false, /*threads=*/1);
  const RunResult traced = run(/*tracing=*/true, /*threads=*/1);
  const RunResult parallel = run(/*tracing=*/false, /*threads=*/4);
  const RunResult traced_parallel = run(/*tracing=*/true, /*threads=*/4);

  // Tracing is observational: identical assignment AND identical metrics.
  EXPECT_EQ(base.routes, traced.routes);
  EXPECT_EQ(base.counters, traced.counters);
  // Thread count changes neither the assignment nor any counter other than
  // the excluded fan-out count.
  EXPECT_EQ(base.routes, parallel.routes);
  EXPECT_EQ(base.counters, parallel.counters);
  EXPECT_EQ(base.routes, traced_parallel.routes);
  EXPECT_EQ(base.counters, traced_parallel.counters);
}

// --------------------------------------------------------------- logging --

TEST(LogSinkTest, CaptureSinkReceivesWholeLinesUnderConcurrency) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  CaptureLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  constexpr int kThreads = 4;
  constexpr int kLines = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        FTA_LOG(kInfo) << "thread " << t << " line " << i << " tail";
      }
    });
  }
  for (std::thread& th : threads) th.join();
  SetLogSink(previous);
  SetLogLevel(before);

  const std::vector<std::string> lines = sink.lines();
  ASSERT_EQ(lines.size(), static_cast<size_t>(kThreads * kLines));
  // Every line arrives whole: prefix, full message, no interleaving and no
  // trailing newline.
  const std::regex pattern(
      R"(\[INFO obs_test\.cc:\d+\] thread \d+ line \d+ tail)");
  for (const std::string& line : lines) {
    EXPECT_TRUE(std::regex_match(line, pattern)) << "malformed: " << line;
  }
}

}  // namespace
}  // namespace fta

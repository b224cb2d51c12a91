// City-scale traffic replay through the sharded assignment server: a
// synthesized multi-center city (heterogeneous per-center Poisson rates,
// GM pruning defaults) replayed through AssignmentServer at 1, 2, and 8
// runner threads and through the single-threaded sequential reference
// loop. Emits BENCH_serve.json.
//
// Hard gates (the bench aborts if they fail):
//  - response identity: EVERY response of every server run (tick,
//    shard_seq, first_global_seq, coalesced count, running digest) equals
//    the sequential reference's — the serve determinism contract
//    (DESIGN.md §14), re-checked on the bench workload at every thread
//    count;
//  - pool reuse: the measurement loop constructs zero ThreadPools after
//    warmup (ThreadPool::total_created() must stay flat across
//    repetitions);
//  - throughput: >= kSpeedupGate x the sequential reference at 8 runner
//    threads — enforced only when the host has >= 8 hardware threads;
//    on smaller hosts the shard fan-out has no cores to land on, so the
//    ratio is reported (loudly) instead of gated.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench/common.h"
#include "util/check.h"

namespace fta {
namespace bench {
namespace {

constexpr size_t kCenters = 12;
constexpr uint64_t kTicks = 16;
constexpr double kTickPeriod = 0.05;
constexpr int kReps = 2;
constexpr double kSpeedupGate = 3.0;
constexpr unsigned kGateMinHardwareThreads = 8;

CityWorkloadConfig BenchCity() {
  CityWorkloadConfig city;
  city.num_centers = kCenters;
  city.center_spacing = 12.0;
  city.rate_sigma = 0.6;  // heterogeneous: hot downtown, quiet tail
  city.tick_period = kTickPeriod;
  city.ticks = kTicks;
  // Per center, bench_stream's steady churn regime: ~12 orders and ~2
  // workers turn over per tick against a queue filling toward rate x
  // patience.
  city.base.tasks.base_rate_per_hour = 240.0;
  city.base.tasks.peak_hours = {};
  city.base.worker_rate_per_hour = 40.0;
  city.base.area_size = 10.0;
  city.base.mean_worker_dwell_hours = 1.0;
  city.base.mean_task_patience_hours = 1.0;
  return city;
}

ServerConfig BenchServer(size_t threads) {
  ServerConfig config;
  config.num_threads = threads;
  config.queue_capacity = 256;
  config.tick_period = kTickPeriod;
  config.engine.policy = ResolvePolicy::kWarm;
  config.engine.solver = StreamSolver::kFgt;
  config.engine.vdps.epsilon = 0.6;  // paper's GM default (Table I)
  config.engine.vdps.max_set_size = 3;
  config.engine.seed = 7;
  return config;
}

void CheckAgainstReference(const AssignmentServer& server,
                           const ReferenceResult& ref, size_t threads) {
  for (uint32_t c = 0; c < server.num_shards(); ++c) {
    FTA_CHECK_MSG(server.shard_digest(c) == ref.digests[c],
                  "shard " << c << " digest diverged from the sequential "
                           << "reference at " << threads << " threads");
    const std::vector<ServeResponse>& got = server.responses(c);
    const std::vector<ServeResponse>& want = ref.responses[c];
    FTA_CHECK_MSG(got.size() == want.size(),
                  "shard " << c << " answered " << got.size()
                           << " batches, reference has " << want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      const bool same = got[i].tick == want[i].tick &&
                        got[i].shard_seq == want[i].shard_seq &&
                        got[i].first_global_seq == want[i].first_global_seq &&
                        got[i].coalesced_requests ==
                            want[i].coalesced_requests &&
                        got[i].shard_digest == want[i].shard_digest;
      FTA_CHECK_MSG(same, "shard " << c << " response " << i
                                   << " diverged from the reference at "
                                   << threads << " threads");
    }
  }
}

struct ServerRun {
  double wall_ms = kInfinity;
  double throughput = 0.0;  // assignments per second, best rep
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  uint64_t retries = 0;
  uint64_t assignments = 0;
  uint64_t shard_batches_min = 0;
  uint64_t shard_batches_max = 0;
  /// Max over shards of (shard solve-ms total / mean) — 1.0 is perfectly
  /// balanced.
  double solve_imbalance = 0.0;
};

ServerRun RunServer(size_t threads, const ServeTrace& trace,
                    const ReferenceResult& ref, ThreadPool& pool) {
  ServerRun best;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<CenterSpec> centers;
    for (const Point& p : trace.centers) centers.push_back({p});
    Stopwatch sw;
    AssignmentServer server(BenchServer(threads), std::move(centers), &pool);
    StatusOr<uint64_t> retries = ReplayTrace(server, trace);
    FTA_CHECK_OK(retries.status());
    server.Drain();
    const double wall_ms = sw.ElapsedMillis();
    CheckAgainstReference(server, ref, threads);
    const ServeCounters counters = server.counters();
    FTA_CHECK_MSG(counters.answered == counters.admitted,
                  "drain left admitted requests unanswered");
    if (wall_ms >= best.wall_ms) continue;

    best.wall_ms = wall_ms;
    best.retries = *retries;
    best.assignments = counters.assignments;
    best.throughput =
        static_cast<double>(counters.assignments) / (wall_ms / 1000.0);
    obs::SketchData latency(0.01);
    for (uint32_t c = 0; c < server.num_shards(); ++c) {
      for (const ServeResponse& r : server.responses(c)) {
        latency.Observe(r.latency_ms);
      }
    }
    best.p50_latency_ms = latency.ValueAtQuantile(0.5);
    best.p99_latency_ms = latency.ValueAtQuantile(0.99);

    const std::vector<uint64_t> batches = server.shard_batch_counts();
    best.shard_batches_min =
        *std::min_element(batches.begin(), batches.end());
    best.shard_batches_max =
        *std::max_element(batches.begin(), batches.end());
    std::vector<double> solve_totals(server.num_shards(), 0.0);
    double total = 0.0;
    for (uint32_t c = 0; c < server.num_shards(); ++c) {
      for (const ServeResponse& r : server.responses(c)) {
        solve_totals[c] += r.stats.solve_ms;
      }
      total += solve_totals[c];
    }
    const double mean = total / static_cast<double>(server.num_shards());
    best.solve_imbalance =
        mean > 0.0
            ? *std::max_element(solve_totals.begin(), solve_totals.end()) /
                  mean
            : 0.0;
  }
  return best;
}

void AppendRun(std::ostringstream& json, size_t threads,
               const ServerRun& run) {
  json << "    {\"threads\": " << threads
       << ", \"wall_ms\": " << StrFormat("%.3f", run.wall_ms)
       << ", \"throughput_assignments_per_s\": "
       << StrFormat("%.1f", run.throughput)
       << ", \"p50_latency_ms\": " << StrFormat("%.4f", run.p50_latency_ms)
       << ", \"p99_latency_ms\": " << StrFormat("%.4f", run.p99_latency_ms)
       << ", \"assignments\": " << run.assignments
       << ", \"queue_full_retries\": " << run.retries
       << ", \"shard_batches_min\": " << run.shard_batches_min
       << ", \"shard_batches_max\": " << run.shard_batches_max
       << ", \"solve_imbalance\": "
       << StrFormat("%.3f", run.solve_imbalance) << ", \"digest_ok\": true}";
}

void Main() {
  PrintHeader("bench_serve — sharded multi-center assignment server");

  const CityWorkload city = GenerateCityWorkload(BenchCity(), 7);
  const ServeTrace trace =
      BuildServeTrace(city, /*max_requests_per_tick=*/3, /*seed=*/7);
  size_t events = 0;
  for (const auto& center_events : city.events) {
    events += center_events.size();
  }
  std::printf(
      "serve bench: %zu centers, %llu ticks, %zu requests, %zu events, "
      "%d reps\n",
      city.centers.size(), static_cast<unsigned long long>(city.ticks),
      trace.requests.size(), events, kReps);

  // Pools come first so the measured loop never constructs one; the gate
  // below pins that.
  ThreadPool& pool = SharedBenchPool(8);
  ReferenceResult ref;
  double ref_wall_ms = kInfinity;
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch sw;
    ReferenceResult r = RunSequentialReference(BenchServer(1), trace);
    const double wall_ms = sw.ElapsedMillis();
    if (wall_ms < ref_wall_ms) {
      ref_wall_ms = wall_ms;
      ref = std::move(r);
    }
  }
  const double ref_throughput =
      static_cast<double>(ref.assignments) / (ref_wall_ms / 1000.0);
  std::printf("  sequential reference: %.1f ms, %llu batches, "
              "%llu assignments, %.1f assignments/s\n",
              ref_wall_ms, static_cast<unsigned long long>(ref.batches),
              static_cast<unsigned long long>(ref.assignments),
              ref_throughput);

  const uint64_t pools_before = ThreadPool::total_created();
  ServerRun runs[3];
  const size_t thread_counts[3] = {1, 2, 8};
  for (size_t i = 0; i < 3; ++i) {
    runs[i] = RunServer(thread_counts[i], trace, ref, pool);
    std::printf("  server %zu thread(s): %.1f ms, %.1f assignments/s, "
                "p50 %.2f ms, p99 %.2f ms, imbalance %.2f, retries %llu\n",
                thread_counts[i], runs[i].wall_ms, runs[i].throughput,
                runs[i].p50_latency_ms, runs[i].p99_latency_ms,
                runs[i].solve_imbalance,
                static_cast<unsigned long long>(runs[i].retries));
  }
  const uint64_t pools_after = ThreadPool::total_created();
  FTA_CHECK_MSG(pools_after == pools_before,
                "measurement loop constructed "
                    << (pools_after - pools_before)
                    << " ThreadPool(s); servers and engines must reuse the "
                       "shared bench pool");

  const double speedup = runs[2].throughput / ref_throughput;
  // The 8-runner p99 in units of the sequential reference's mean time per
  // batch, timed in this same run: a uniformly slower host moves both.
  const double ref_batch_ms =
      ref_wall_ms / static_cast<double>(std::max<uint64_t>(ref.batches, 1));
  const double p99_vs_sequential = runs[2].p99_latency_ms / ref_batch_ms;
  std::printf("  8-shard p99 vs sequential batch time: %.2fx (%.2f ms / "
              "%.3f ms)\n",
              p99_vs_sequential, runs[2].p99_latency_ms, ref_batch_ms);
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const bool gate_enforced = hw_threads >= kGateMinHardwareThreads;
  std::printf("  8-shard speedup vs sequential: %.2fx (gate >= %.1fx, %s)\n",
              speedup, kSpeedupGate,
              gate_enforced ? "enforced" : "REPORT-ONLY");
  if (gate_enforced) {
    FTA_CHECK_MSG(speedup >= kSpeedupGate,
                  "8-shard throughput must be >= "
                      << kSpeedupGate << "x the sequential reference, got "
                      << StrFormat("%.2fx", speedup));
  } else {
    std::printf(
        "  NOTE: host has %u hardware thread(s) < %u — the speedup gate is "
        "REPORT-ONLY on this machine (digest identity stays hard).\n",
        hw_threads, kGateMinHardwareThreads);
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"serve\",\n  \"meta\": " << BenchMetaJson()
       << ",\n  \"workload\": {\"centers\": " << city.centers.size()
       << ", \"ticks\": " << city.ticks
       << ", \"requests\": " << trace.requests.size()
       << ", \"events\": " << events
       << ", \"epsilon\": 0.6, \"reps\": " << kReps << "}"
       << ",\n  \"reference\": {\"wall_ms\": "
       << StrFormat("%.3f", ref_wall_ms) << ", \"batches\": " << ref.batches
       << ", \"assignments\": " << ref.assignments
       << ", \"throughput_assignments_per_s\": "
       << StrFormat("%.1f", ref_throughput) << "}"
       << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < 3; ++i) {
    AppendRun(json, thread_counts[i], runs[i]);
    json << (i + 1 < 3 ? ",\n" : "\n");
  }
  json << "  ],\n  \"serve8\": {\"throughput_assignments_per_s\": "
       << StrFormat("%.1f", runs[2].throughput)
       << ", \"p99_latency_ms\": "
       << StrFormat("%.4f", runs[2].p99_latency_ms)
       << ", \"p99_vs_sequential\": "
       << StrFormat("%.4f", p99_vs_sequential)
       << ", \"speedup_vs_sequential\": " << StrFormat("%.3f", speedup)
       << "},\n  \"speedup_gate\": " << StrFormat("%.1f", kSpeedupGate)
       << ",\n  \"gate_enforced\": " << (gate_enforced ? "true" : "false")
       << ",\n  \"digest_identity\": true\n}\n";

  const std::string path = "BENCH_serve.json";
  std::ofstream out(path);
  out << json.str();
  out.close();
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace fta

int main() { fta::bench::Main(); }

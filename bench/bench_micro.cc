// Micro-benchmarks (google-benchmark) for the library's hot paths: C-VDPS
// generation with and without pruning, IAU evaluation, best-response
// rounds, the solvers end-to-end, k-means, tree-decomposition MWIS, and
// grid-index radius queries.
//
// Three hard gates run before the suite (and can be run alone with
// --bench=obs / --bench=game / --bench=simd): the observability overhead
// gate (BENCH_obs.json), the payoff-ledger gate (BENCH_game.json) — which
// fails the binary unless the ledger Evaluate path does zero steady-state
// heap allocations and beats the OthersView rebuild path by >= 5x — and
// the SIMD kernel gate (BENCH_simd.json), which requires the fused batch
// kernel to beat the legacy per-candidate fold by >= 2x over the same
// candidates at |W| >= 256.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/heap_count.h"
#include "fta/fta.h"
#include "game/iau_kernels.h"
#include "util/check.h"

namespace fta {
namespace {

Instance GmInstance(size_t tasks = 200, size_t dps = 100,
                    size_t workers = 40) {
  GMissionConfig config;
  config.num_tasks = tasks;
  config.num_workers = workers;
  config.seed = 11;
  GMissionPrepConfig prep;
  prep.num_delivery_points = dps;
  prep.seed = 12;
  return GenerateGMissionLike(config, prep);
}

VdpsConfig PrunedVdps(double epsilon = 0.6) {
  VdpsConfig vdps;
  vdps.epsilon = epsilon;
  vdps.max_set_size = 3;
  return vdps;
}

void BM_VdpsGenerationPruned(benchmark::State& state) {
  const Instance inst = GmInstance();
  const VdpsConfig vdps =
      PrunedVdps(static_cast<double>(state.range(0)) / 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VdpsCatalog::Generate(inst, vdps));
  }
}
BENCHMARK(BM_VdpsGenerationPruned)->Arg(2)->Arg(6)->Arg(10);

void BM_VdpsGenerationUnpruned(benchmark::State& state) {
  const Instance inst = GmInstance();
  VdpsConfig vdps;
  vdps.max_set_size = 3;  // epsilon = infinity
  for (auto _ : state) {
    benchmark::DoNotOptimize(VdpsCatalog::Generate(inst, vdps));
  }
}
BENCHMARK(BM_VdpsGenerationUnpruned);

void BM_VdpsExactDp(benchmark::State& state) {
  const Instance inst =
      GmInstance(60, static_cast<size_t>(state.range(0)), 10);
  VdpsConfig vdps;
  vdps.max_set_size = 3;
  vdps.use_exact_dp = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(VdpsCatalog::Generate(inst, vdps));
  }
}
BENCHMARK(BM_VdpsExactDp)->Arg(10)->Arg(14)->Arg(18);

void BM_IauNaive(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> others(static_cast<size_t>(state.range(0)));
  for (double& p : others) p = rng.Uniform(0, 10);
  const IauParams params;
  double own = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Iau(own, others, params));
  }
}
BENCHMARK(BM_IauNaive)->Arg(100)->Arg(1000)->Arg(10000);

void BM_IauOthersView(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> others(static_cast<size_t>(state.range(0)));
  for (double& p : others) p = rng.Uniform(0, 10);
  const OthersView view(others);
  const IauParams params;
  double own = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.Iau(own, params));
  }
}
BENCHMARK(BM_IauOthersView)->Arg(100)->Arg(1000)->Arg(10000);

void BM_FgtSolve(benchmark::State& state) {
  const Instance inst = GmInstance();
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, PrunedVdps());
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveFgt(inst, catalog));
  }
}
BENCHMARK(BM_FgtSolve);

// Serial-vs-parallel best-response scans on the default Table-1-scale
// instance. Arg(n) = engine threads; items/sec = candidate strategies
// evaluated (availability + IAU) per second, the engine's throughput
// metric. Output is bit-identical across all arguments.
void BM_BestResponseRoundsParallel(benchmark::State& state) {
  const Instance inst = GmInstance();
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, PrunedVdps());
  FgtConfig config;
  config.engine.num_threads = static_cast<size_t>(state.range(0));
  // One pool per thread count for every timed iteration: per-iteration
  // pool construction would otherwise dominate the small arguments.
  if (config.engine.num_threads > 1) {
    config.engine.pool = &bench::SharedBenchPool(config.engine.num_threads);
  }
  // Isolate the fan-out: at beta >= 1 the engine runs the full scan, the
  // only path that fans out (the monotone early exit is serial).
  config.iau = IauParams{1.0, 1.0};
  uint64_t candidates = 0;
  for (auto _ : state) {
    const GameResult result = SolveFgt(inst, catalog, config);
    candidates += result.engine.strategies_scanned;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(candidates));
}
BENCHMARK(BM_BestResponseRoundsParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_IegtSolve(benchmark::State& state) {
  const Instance inst = GmInstance();
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, PrunedVdps());
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveIegt(inst, catalog));
  }
}
BENCHMARK(BM_IegtSolve);

void BM_GtaSolve(benchmark::State& state) {
  const Instance inst = GmInstance();
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, PrunedVdps());
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveGta(inst, catalog));
  }
}
BENCHMARK(BM_GtaSolve);

void BM_MptaSolve(benchmark::State& state) {
  const Instance inst = GmInstance();
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, PrunedVdps());
  MptaConfig config;
  config.candidates_per_worker = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMpta(inst, catalog, config));
  }
}
BENCHMARK(BM_MptaSolve)->Arg(4)->Arg(8)->Arg(16);

void BM_KMeans(benchmark::State& state) {
  Rng data_rng(3);
  std::vector<Point> pts(static_cast<size_t>(state.range(0)));
  for (Point& p : pts) {
    p = {data_rng.Uniform(0, 100), data_rng.Uniform(0, 100)};
  }
  for (auto _ : state) {
    Rng rng(4);
    benchmark::DoNotOptimize(KMeans(pts, 50, rng));
  }
}
BENCHMARK(BM_KMeans)->Arg(1000)->Arg(10000);

void BM_TreeDecompositionMwis(benchmark::State& state) {
  Rng rng(5);
  const size_t n = static_cast<size_t>(state.range(0));
  Graph g(n);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(4.0 / static_cast<double>(n))) g.AddEdge(u, v);
    }
  }
  std::vector<double> w(n);
  for (double& x : w) x = rng.Uniform(0.1, 10.0);
  for (auto _ : state) {
    const TreeDecomposition td = TreeDecomposition::Build(g);
    benchmark::DoNotOptimize(MwisOverTreeDecomposition(g, w, td, 24));
  }
}
BENCHMARK(BM_TreeDecompositionMwis)->Arg(50)->Arg(200);

void BM_GridRadiusQuery(benchmark::State& state) {
  Rng rng(6);
  std::vector<Point> pts(static_cast<size_t>(state.range(0)));
  for (Point& p : pts) p = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
  const GridIndex index(pts, 2.0);
  size_t i = 0;
  for (auto _ : state) {
    const Point q{static_cast<double>(i % 100),
                  static_cast<double>((i * 7) % 100)};
    benchmark::DoNotOptimize(index.RadiusQuery(q, 2.0));
    ++i;
  }
}
BENCHMARK(BM_GridRadiusQuery)->Arg(1000)->Arg(100000);

// --- Observability micro-costs -------------------------------------------

void BM_SpanDisabled(benchmark::State& state) {
  obs::SetTracingEnabled(false);
  for (auto _ : state) {
    FTA_SPAN("bench/span");
  }
}
BENCHMARK(BM_SpanDisabled);

// Fixed iteration count: every enabled span is retained in the recorder, so
// letting google-benchmark pick the count would grow the buffer unbounded.
void BM_SpanEnabled(benchmark::State& state) {
  obs::TraceRecorder::Global().Clear();
  obs::SetTracingEnabled(true);
  for (auto _ : state) {
    FTA_SPAN("bench/span");
  }
  obs::SetTracingEnabled(false);
  obs::TraceRecorder::Global().Clear();
}
BENCHMARK(BM_SpanEnabled)->Iterations(1 << 16);

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("bench/counter_add");
  for (auto _ : state) {
    counter.Add(1);
  }
}
BENCHMARK(BM_CounterAdd);

}  // namespace

// Observability overhead gate, run before the benchmark suite proper: the
// instrumentation left in the hot paths must cost < 2% of a GM-default FGT
// run when tracing is disabled (the production configuration). Disabled
// spans do constant work, so the modeled overhead is
//
//   spans-per-run x disabled-span-cost / untraced-run-wall-time
//
// with spans-per-run counted from a traced run of the same workload. The
// model is deliberate: on a noisy 1-CPU container, differencing two wall
// times of the full solver would drown the signal, while the per-span cost
// is measurable to well under a nanosecond. Results go to BENCH_obs.json.
int RunObsOverheadGate() {
  // Per-span cost with tracing disabled (one relaxed atomic load).
  obs::SetTracingEnabled(false);
  constexpr int kProbeSpans = 2000000;
  Stopwatch probe;
  for (int i = 0; i < kProbeSpans; ++i) {
    FTA_SPAN("bench/obs_gate_probe");
  }
  const double disabled_span_ns =
      probe.ElapsedSeconds() * 1e9 / kProbeSpans;

  // Spans a traced GM-default FGT run emits.
  const Instance inst = GmInstance();
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, PrunedVdps());
  obs::TraceRecorder::Global().Clear();
  obs::SetTracingEnabled(true);
  benchmark::DoNotOptimize(SolveFgt(inst, catalog));
  obs::SetTracingEnabled(false);
  const size_t spans_per_run = obs::TraceRecorder::Global().num_events();
  obs::TraceRecorder::Global().Clear();

  // Untraced FGT wall time: best of 5 to shed scheduler noise.
  double run_seconds = kInfinity;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch sw;
    benchmark::DoNotOptimize(SolveFgt(inst, catalog));
    run_seconds = std::min(run_seconds, sw.ElapsedSeconds());
  }

  const double overhead_fraction =
      static_cast<double>(spans_per_run) * disabled_span_ns * 1e-9 /
      run_seconds;
  constexpr double kThreshold = 0.02;
  const bool span_pass = overhead_fraction < kThreshold;

  // ---- Stream-telemetry section. Two hard gates on the per-tick
  // telemetry layer (stream/telemetry.h):
  //   1. identity — a full-telemetry GM-churn warm run's digest (with
  //      digest_catalog on) is bit-identical to the telemetry-off run's;
  //   2. overhead — the telemetry cost per tick, measured directly on
  //      OnTick (the only code telemetry adds to the tick path; wall-time
  //      differencing of whole runs would drown in scheduler noise, same
  //      rationale as the span model above), is < 2% of the telemetry-off
  //      per-tick wall time. ----
  constexpr size_t kStreamTicks = 16;
  ChurnWorkloadConfig churn;
  churn.horizon_hours = 0.05 * static_cast<double>(kStreamTicks);
  churn.tasks.base_rate_per_hour = 240.0;
  churn.tasks.peak_hours = {};
  churn.worker_rate_per_hour = 40.0;
  churn.area_size = 10.0;
  churn.mean_worker_dwell_hours = 1.0;
  churn.mean_task_patience_hours = 1.0;
  const std::vector<StreamEvent> events = GenerateChurnEvents(churn, 7);
  StreamConfig stream_config;
  stream_config.engine.center = Point{5.0, 5.0};
  stream_config.tick_period = 0.05;
  stream_config.max_ticks = kStreamTicks;
  stream_config.engine.policy = ResolvePolicy::kWarm;
  stream_config.engine.vdps.epsilon = 0.6;
  stream_config.engine.vdps.max_set_size = 3;
  stream_config.engine.seed = 7;
  stream_config.engine.digest_catalog = true;

  uint64_t digest_off = 0;
  double off_ms_per_tick = kInfinity;
  for (int rep = 0; rep < 3; ++rep) {
    StreamConfig c = stream_config;
    c.telemetry.enabled = false;
    StreamDispatcher dispatcher(c, events);
    StatusOr<StreamResult> result = dispatcher.Run();
    FTA_CHECK_OK(result.status());
    digest_off = result->digest;
    double tick_ms = 0.0;
    for (const TickStats& ts : result->ticks) tick_ms += ts.tick_ms;
    off_ms_per_tick = std::min(
        off_ms_per_tick, tick_ms / static_cast<double>(kStreamTicks));
  }
  uint64_t digest_on = 0;
  {
    StreamDispatcher dispatcher(stream_config, events);
    StatusOr<StreamResult> result = dispatcher.Run();
    FTA_CHECK_OK(result.status());
    digest_on = result->digest;
  }
  const bool digest_match = digest_on == digest_off;

  // Direct OnTick cost over a representative synthetic tick.
  StreamTelemetry telemetry(StreamTelemetryConfig{});
  TickStats probe_ts;
  probe_ts.num_workers = 40;
  probe_ts.num_dps = 240;
  probe_ts.workers_in = 2;
  probe_ts.tasks_in = 12;
  probe_ts.tasks_out = 12;
  probe_ts.used_delta = true;
  probe_ts.catalog_ms = 0.4;
  probe_ts.solve_ms = 0.2;
  probe_ts.project_ms = 0.01;
  probe_ts.tick_ms = 0.7;
  probe_ts.rounds = 2;
  probe_ts.converged = true;
  constexpr int kOnTickReps = 200000;
  Stopwatch ontick_sw;
  for (int i = 0; i < kOnTickReps; ++i) {
    probe_ts.tick = static_cast<uint64_t>(i);
    telemetry.OnTick(probe_ts);
  }
  const double ontick_ns =
      ontick_sw.ElapsedSeconds() * 1e9 / kOnTickReps;
  const double stream_overhead_fraction =
      ontick_ns * 1e-6 / off_ms_per_tick;
  const bool stream_pass =
      digest_match && stream_overhead_fraction < kThreshold;

  const bool pass = span_pass && stream_pass;

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("obs_overhead");
  json.Key("meta");
  bench::AppendBenchMeta(json);
  json.Key("workload");
  json.String("gm_default_fgt");
  json.Key("disabled_span_ns");
  json.Double(disabled_span_ns);
  json.Key("spans_per_run");
  json.UInt(spans_per_run);
  json.Key("run_seconds");
  json.Double(run_seconds);
  json.Key("overhead_fraction");
  json.Double(overhead_fraction);
  json.Key("threshold");
  json.Double(kThreshold);
  json.Key("stream_telemetry");
  json.BeginObject();
  json.Key("workload");
  json.String("gm_churn_warm_fgt");
  json.Key("ticks");
  json.UInt(kStreamTicks);
  json.Key("off_ms_per_tick");
  json.Double(off_ms_per_tick);
  json.Key("ontick_ns");
  json.Double(ontick_ns);
  json.Key("overhead_fraction");
  json.Double(stream_overhead_fraction);
  json.Key("threshold");
  json.Double(kThreshold);
  json.Key("digest_match");
  json.Bool(digest_match);
  json.EndObject();
  json.Key("pass");
  json.Bool(pass);
  json.EndObject();
  const std::string path = "BENCH_obs.json";
  std::ofstream out(path);
  out << json.str() << "\n";
  out.close();

  std::printf(
      "obs overhead gate: %.3f ns/span disabled, %zu spans/run, FGT run "
      "%.3f ms -> modeled overhead %.4f%% (< %.1f%%: %s); wrote %s\n",
      disabled_span_ns, spans_per_run, run_seconds * 1e3,
      overhead_fraction * 100.0, kThreshold * 100.0,
      span_pass ? "PASS" : "FAIL", path.c_str());
  std::printf(
      "stream telemetry gate: %.1f ns/OnTick vs %.3f ms/tick off -> "
      "%.4f%% (< %.1f%%), digests %s (%s)\n",
      ontick_ns, off_ms_per_tick, stream_overhead_fraction * 100.0,
      kThreshold * 100.0, digest_match ? "match" : "DIVERGE",
      stream_pass ? "PASS" : "FAIL");
  if (!span_pass) {
    std::fprintf(stderr,
                 "obs overhead gate FAILED: disabled-mode instrumentation "
                 "costs %.4f%% of the GM-default FGT run (limit %.1f%%)\n",
                 overhead_fraction * 100.0, kThreshold * 100.0);
    return 1;
  }
  if (!stream_pass) {
    std::fprintf(stderr,
                 "stream telemetry gate FAILED: digest_match=%d, per-tick "
                 "overhead %.4f%% (limit %.1f%%)\n",
                 digest_match ? 1 : 0, stream_overhead_fraction * 100.0,
                 kThreshold * 100.0);
    return 1;
  }
  return 0;
}

// Payoff-ledger gate: proves the tentpole claims of the sorted payoff
// ledger (game/payoff_ledger.h) on a purpose-built instance that isolates
// Evaluate's view construction. Workers are strung out along a line away
// from the distribution center with one delivery point each; since every
// route starts with the worker-to-center leg, only the center-adjacent
// worker can meet any deadline, so 255 of 256 workers have an empty
// catalog and an empty candidate scan. An Evaluate over the 256-worker
// state is then almost exactly one exclude-one view — the code the ledger
// replaces. Two hard gates:
//
//   1. Zero steady-state heap allocations on the ledger path, counted by
//      the global operator-new hook above (the rebuild path allocates two
//      vectors per call).
//   2. >= 5x Evaluate-path speedup over the OthersView rebuild at
//      |W| >= 200 (best-of-reps on both sides to shed scheduler noise).
//
// On production GM-scale catalogs the candidate scan dilutes the win; the
// JSON therefore also records a GM-default FGT run's ledger counters so
// the report shows both the isolated and the end-to-end picture. Results
// go to BENCH_game.json.
namespace {

Instance LedgerGateInstance(size_t num_workers) {
  std::vector<DeliveryPoint> dps;
  std::vector<Worker> workers;
  dps.reserve(num_workers);
  workers.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    const double x = static_cast<double>(i) * 1000.0;
    const double dy = 1.0 + 0.001 * static_cast<double>(i);
    dps.emplace_back(
        Point{x, dy},
        std::vector<SpatialTask>{SpatialTask{static_cast<uint32_t>(i), 5.0,
                                             1.0}});
    workers.push_back(Worker{{x, 0.0}, 2});
  }
  return Instance(Point{0.0, 0.0}, std::move(dps), std::move(workers),
                  TravelModel(5.0));
}

/// Seconds for `sweeps` full Evaluate sweeps over all workers, best of
/// `reps` (each rep re-times the same steady state).
double TimeEvaluateSweeps(BestResponseEngine& engine, size_t num_workers,
                          int sweeps, int reps) {
  double best = kInfinity;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    for (int s = 0; s < sweeps; ++s) {
      for (size_t w = 0; w < num_workers; ++w) {
        benchmark::DoNotOptimize(engine.Evaluate(w));
      }
    }
    best = std::min(best, sw.ElapsedSeconds());
  }
  return best;
}

}  // namespace

int RunGameLedgerGate(size_t num_workers) {
  const Instance inst = LedgerGateInstance(num_workers);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const IauParams params;

  // Serial engines: the zero-allocation claim is about the Evaluate path
  // itself, not the (optional) thread-pool fan-out.
  BestResponseConfig ledger_config;   // use_payoff_ledger = true (default)
  BestResponseConfig rebuild_config;
  rebuild_config.use_payoff_ledger = false;

  JointState ledger_state(inst, catalog);
  BestResponseEngine ledger_engine(ledger_state, params, ledger_config);
  JointState rebuild_state(inst, catalog);
  BestResponseEngine rebuild_engine(rebuild_state, params, rebuild_config);
  for (size_t w = 0; w < num_workers; ++w) {
    if (!catalog.strategies(w).empty() && ledger_state.IsAvailable(w, 0)) {
      ledger_engine.Apply(w, 0);
      rebuild_engine.Apply(w, 0);
    }
  }

  // Warm both paths (first-touch page faults), then
  // count heap allocations across a steady-state sweep of each.
  constexpr int kSweeps = 20;
  constexpr int kReps = 5;
  TimeEvaluateSweeps(ledger_engine, num_workers, 1, 1);
  TimeEvaluateSweeps(rebuild_engine, num_workers, 1, 1);
  const uint64_t evaluate_calls =
      static_cast<uint64_t>(kSweeps) * num_workers;

  uint64_t before = bench::HeapAllocations();
  TimeEvaluateSweeps(ledger_engine, num_workers, kSweeps, 1);
  const uint64_t ledger_allocs =
      bench::HeapAllocations() - before;
  before = bench::HeapAllocations();
  TimeEvaluateSweeps(rebuild_engine, num_workers, kSweeps, 1);
  const uint64_t rebuild_allocs =
      bench::HeapAllocations() - before;

  const double ledger_seconds =
      TimeEvaluateSweeps(ledger_engine, num_workers, kSweeps, kReps);
  const double rebuild_seconds =
      TimeEvaluateSweeps(rebuild_engine, num_workers, kSweeps, kReps);
  const double speedup = rebuild_seconds / ledger_seconds;

  constexpr double kSpeedupThreshold = 5.0;
  const bool zero_alloc_pass = ledger_allocs == 0;
  const bool speedup_pass = speedup >= kSpeedupThreshold;
  const bool pass = zero_alloc_pass && speedup_pass;

  // End-to-end context: what the ledger saves on a production-shaped
  // GM-default FGT solve (candidate scans included).
  const Instance gm = GmInstance();
  const VdpsCatalog gm_catalog = VdpsCatalog::Generate(gm, PrunedVdps());
  const GameResult gm_run = SolveFgt(gm, gm_catalog);
  const LedgerCounters& gm_ledger = gm_run.engine.ledger;

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("game_ledger");
  json.Key("meta");
  bench::AppendBenchMeta(json);
  json.Key("workload");
  json.String("chain_single_strategy");
  json.Key("workers");
  json.UInt(static_cast<uint64_t>(num_workers));
  json.Key("evaluate_calls");
  json.UInt(evaluate_calls);
  json.Key("ledger");
  json.BeginObject();
  json.Key("steady_state_allocations");
  json.UInt(ledger_allocs);
  json.Key("seconds");
  json.Double(ledger_seconds);
  json.Key("ns_per_evaluate");
  json.Double(ledger_seconds * 1e9 / static_cast<double>(evaluate_calls));
  json.EndObject();
  json.Key("rebuild");
  json.BeginObject();
  json.Key("steady_state_allocations");
  json.UInt(rebuild_allocs);
  json.Key("seconds");
  json.Double(rebuild_seconds);
  json.Key("ns_per_evaluate");
  json.Double(rebuild_seconds * 1e9 / static_cast<double>(evaluate_calls));
  json.EndObject();
  json.Key("speedup");
  json.Double(speedup);
  json.Key("speedup_threshold");
  json.Double(kSpeedupThreshold);
  json.Key("zero_alloc_pass");
  json.Bool(zero_alloc_pass);
  json.Key("speedup_pass");
  json.Bool(speedup_pass);
  json.Key("gm_default_fgt_ledger");
  json.BeginObject();
  json.Key("sorts_eliminated");
  json.UInt(gm_ledger.sorts_eliminated);
  json.Key("bytes_not_allocated");
  json.UInt(gm_ledger.bytes_not_allocated);
  json.Key("memmove_elements");
  json.UInt(gm_ledger.memmove_elements);
  json.Key("scratch_reuses");
  json.UInt(gm_ledger.scratch_reuses);
  json.EndObject();
  json.Key("pass");
  json.Bool(pass);
  json.EndObject();
  const std::string path = "BENCH_game.json";
  std::ofstream out(path);
  out << json.str() << "\n";
  out.close();

  std::printf(
      "game ledger gate (|W|=%zu, %llu Evaluates): ledger %.1f ns/call "
      "(%llu allocs), rebuild %.1f ns/call (%llu allocs) -> %.2fx "
      "(>= %.1fx and 0 allocs: %s); wrote %s\n",
      num_workers,
      static_cast<unsigned long long>(evaluate_calls),
      ledger_seconds * 1e9 / static_cast<double>(evaluate_calls),
      static_cast<unsigned long long>(ledger_allocs),
      rebuild_seconds * 1e9 / static_cast<double>(evaluate_calls),
      static_cast<unsigned long long>(rebuild_allocs), speedup,
      kSpeedupThreshold, pass ? "PASS" : "FAIL", path.c_str());
  if (!pass) {
    std::fprintf(stderr,
                 "game ledger gate FAILED: allocations=%llu (need 0), "
                 "speedup %.2fx (need >= %.1fx)\n",
                 static_cast<unsigned long long>(ledger_allocs), speedup,
                 kSpeedupThreshold);
    return 1;
  }
  return 0;
}

// SIMD kernel gate: proves the claims of the batched payoff kernels
// (game/iau_kernels.h, util/math_util.h) on a purpose-built instance whose
// workers each have hundreds of available candidates. The engine runs at
// alpha = beta = 1, where the IAU is not monotone in own payoff and
// Evaluate takes the full-scan path through SortedIauBatchArgmax (at the
// paper's alpha = beta = 0.5 the monotone early exit scores one or two
// candidates, which would time the exit, not the kernel). Three hard
// gates:
//
//   1. Zero steady-state heap allocations on the engine's full-scan
//      Evaluate path (the gather scratch and rank chunks are sized once).
//   2. >= 2x kernel speedup: one SortedIauBatchArgmax per worker against
//      the legacy per-candidate fold (one view.Iau — lower_bound plus the
//      sorted expression tree — per candidate, earliest strict maximum),
//      both over the same gathered candidate payoffs and the same
//      exclude-one view. Availability checks and the view build sit
//      outside both timers, so the ratio is the kernel's alone.
//   3. The legacy replica and the engine choose the same best response for
//      every worker (the baseline must be semantically the old path, not a
//      strawman), and the kernel's argmax equals the fold's on every batch.
//
// Results go to BENCH_simd.json.
namespace {

/// |W| workers and 2|W| single-task delivery points scattered near the
/// distribution center with a deadline no route can miss: every worker's
/// catalog holds one strategy per point (maxDP = 1), and after the greedy
/// seeding assignment roughly half the candidates of every Evaluate
/// survive the availability filter — hundreds of kernel lanes per call
/// against an exclude-one view of |W| - 1 payoffs, the shape the batched
/// kernels target.
Instance SimdGateInstance(size_t num_workers) {
  Rng rng(21);
  const size_t num_dps = num_workers * 2;
  std::vector<DeliveryPoint> dps;
  dps.reserve(num_dps);
  for (size_t i = 0; i < num_dps; ++i) {
    const Point at{rng.Uniform(-10.0, 10.0), rng.Uniform(-10.0, 10.0)};
    // Distinct rewards give the ledger |W| distinct payoffs.
    dps.emplace_back(at, std::vector<SpatialTask>{SpatialTask{
                             static_cast<uint32_t>(i), 1000.0,
                             1.0 + 0.001 * static_cast<double>(i)}});
  }
  std::vector<Worker> workers;
  workers.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers.push_back(
        Worker{{rng.Uniform(-10.0, 10.0), rng.Uniform(-10.0, 10.0)}, 1});
  }
  return Instance(Point{0.0, 0.0}, std::move(dps), std::move(workers),
                  TravelModel(5.0));
}

/// Replica of the engine's pre-batching Evaluate inner loop: one
/// exclude-one view per call, then a view.Iau (lower_bound + the sorted
/// expression tree) per available candidate, payoffs read through the AoS
/// strategy records, availability from a precomputed bitmap. Semantically
/// the engine's full scan — Better()'s (utility desc, index asc) fold over
/// the same null-first candidate order — kept in the bench so the library
/// stays single-path.
int32_t LegacyBestResponse(const JointState& state, PayoffLedger& ledger,
                           const std::vector<uint8_t>& avail, size_t w,
                           const IauParams& params) {
  const LedgerView& view = ledger.Exclude(w);
  const std::vector<WorkerStrategy>& strategies =
      state.catalog().strategies(w);
  const int32_t current = state.strategy_of(w);
  const double incumbent_u = view.Iau(state.payoff_of(w), params);
  bool valid = false;
  double best_u = 0.0;
  int32_t best_idx = 0;
  if (current != kNullStrategy) {
    best_u = view.Iau(0.0, params);
    best_idx = kNullStrategy;
    valid = true;
  }
  for (size_t i = 0; i < strategies.size(); ++i) {
    const int32_t idx = static_cast<int32_t>(i);
    if (idx == current) continue;
    if (avail[i] == 0) continue;
    const double u = view.Iau(strategies[i].payoff, params);
    // In an ascending-index scan only a strictly greater utility may
    // replace the running winner (ties keep the lower index / null).
    if (!valid || u > best_u) {
      best_u = u;
      best_idx = idx;
      valid = true;
    }
  }
  if (valid && DefinitelyGreater(best_u, incumbent_u)) return best_idx;
  return current;
}

/// One worker's kernel input: its exclude-one view and the payoffs of its
/// available non-incumbent strategies in catalog (payoff-descending)
/// order — exactly what the engine's full scan gathers.
struct KernelBatch {
  OthersView view;
  std::vector<double> owns;
};

/// The legacy per-candidate fold over one batch: earliest strict maximum
/// of view.Iau, the Better() order within a batch.
size_t LegacyFoldArgmax(const KernelBatch& b, const IauParams& params,
                        double* best_utility) {
  size_t best = 0;
  double best_u = b.view.Iau(b.owns[0], params);
  for (size_t j = 1; j < b.owns.size(); ++j) {
    const double u = b.view.Iau(b.owns[j], params);
    if (u > best_u) {
      best_u = u;
      best = j;
    }
  }
  *best_utility = best_u;
  return best;
}

size_t KernelArgmax(const KernelBatch& b, const IauParams& params,
                    double* best_utility) {
  return SortedIauBatchArgmax(b.view.sorted_values(), b.view.size(),
                              b.view.prefix_sums(), params, b.owns.data(),
                              b.owns.size(), best_utility);
}

/// Seconds for `sweeps` passes of `argmax` over every batch, best of
/// `reps`.
template <typename Argmax>
double TimeBatchSweeps(const std::vector<KernelBatch>& batches,
                       const IauParams& params, Argmax argmax, int sweeps,
                       int reps) {
  double best = kInfinity;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    for (int s = 0; s < sweeps; ++s) {
      for (const KernelBatch& b : batches) {
        double u = 0.0;
        benchmark::DoNotOptimize(argmax(b, params, &u));
        benchmark::DoNotOptimize(u);
      }
    }
    best = std::min(best, sw.ElapsedSeconds());
  }
  return best;
}

}  // namespace

int RunSimdKernelGate(size_t num_workers) {
  const Instance inst = SimdGateInstance(num_workers);
  VdpsConfig vdps;
  vdps.max_set_size = 1;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);

  // beta >= 1: the engine's full scan, the path that runs the kernel.
  const IauParams params{1.0, 1.0};
  BestResponseConfig config;
  JointState state(inst, catalog);
  BestResponseEngine engine(state, params, config);
  for (size_t w = 0; w < num_workers; ++w) {
    const size_t n = catalog.strategies(w).size();
    for (size_t i = 0; i < n; ++i) {
      const int32_t idx = static_cast<int32_t>(i);
      if (state.IsAvailable(w, idx)) {
        engine.Apply(w, idx);
        break;
      }
    }
  }
  PayoffLedger legacy_ledger(state.payoffs());
  std::vector<std::vector<uint8_t>> avail(num_workers);
  std::vector<KernelBatch> batches;
  batches.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    const size_t n = catalog.strategies(w).size();
    const int32_t current = state.strategy_of(w);
    avail[w].resize(n);
    std::vector<double> owns;
    for (size_t i = 0; i < n; ++i) {
      const int32_t idx = static_cast<int32_t>(i);
      avail[w][i] = state.IsAvailable(w, idx) ? 1 : 0;
      if (avail[w][i] != 0 && idx != current) {
        owns.push_back(catalog.strategy_payoffs(w)[i]);
      }
    }
    if (owns.empty()) continue;
    std::vector<double> others;
    others.reserve(num_workers - 1);
    for (size_t j = 0; j < num_workers; ++j) {
      if (j != w) others.push_back(state.payoff_of(j));
    }
    batches.push_back(KernelBatch{OthersView(std::move(others)),
                                  std::move(owns)});
  }

  // Gate 3 first: the baselines' choices must match before their timing
  // means anything.
  bool replica_agrees = true;
  for (size_t w = 0; w < num_workers; ++w) {
    if (engine.Evaluate(w).strategy !=
        LegacyBestResponse(state, legacy_ledger, avail[w], w, params)) {
      replica_agrees = false;
    }
  }
  for (const KernelBatch& b : batches) {
    double kernel_u = 0.0;
    double fold_u = 0.0;
    if (KernelArgmax(b, params, &kernel_u) !=
            LegacyFoldArgmax(b, params, &fold_u) ||
        kernel_u != fold_u) {
      replica_agrees = false;
    }
  }

  // Lanes per Evaluate, from the engine's own batch counters.
  const BestResponseCounters sweep_before = engine.counters();
  for (size_t w = 0; w < num_workers; ++w) {
    benchmark::DoNotOptimize(engine.Evaluate(w));
  }
  const BestResponseCounters sweep_after = engine.counters();
  const double lanes_per_evaluate =
      static_cast<double>(sweep_after.simd_lanes - sweep_before.simd_lanes) /
      static_cast<double>(num_workers);

  constexpr int kSweeps = 10;
  constexpr int kReps = 5;
  const uint64_t batch_calls =
      static_cast<uint64_t>(kSweeps) * batches.size();

  // Steady-state allocation count of the engine's full-scan Evaluate,
  // after a warm-up sweep.
  TimeEvaluateSweeps(engine, num_workers, 1, 1);
  const uint64_t before =
      bench::HeapAllocations();
  TimeEvaluateSweeps(engine, num_workers, kSweeps, 1);
  const uint64_t engine_allocs =
      bench::HeapAllocations() - before;

  TimeBatchSweeps(batches, params, KernelArgmax, 1, 1);
  TimeBatchSweeps(batches, params, LegacyFoldArgmax, 1, 1);
  const double scalar_seconds =
      TimeBatchSweeps(batches, params, KernelArgmax, kSweeps, kReps);
  const double legacy_seconds =
      TimeBatchSweeps(batches, params, LegacyFoldArgmax, kSweeps, kReps);
  const double speedup = legacy_seconds / scalar_seconds;

  constexpr double kSpeedupThreshold = 2.0;
  const bool zero_alloc_pass = engine_allocs == 0;
  const bool speedup_pass = speedup >= kSpeedupThreshold;
  const bool pass = zero_alloc_pass && replica_agrees && speedup_pass;

  const double per_call = 1e9 / static_cast<double>(batch_calls);
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("simd_kernels");
  json.Key("meta");
  bench::AppendBenchMeta(json);
  json.Key("workload");
  json.String("uniform_single_point_catalogs");
  json.Key("workers");
  json.UInt(static_cast<uint64_t>(num_workers));
  json.Key("strategies_per_worker");
  json.UInt(static_cast<uint64_t>(catalog.MaxStrategiesPerWorker()));
  json.Key("iau_alpha");
  json.Double(params.alpha);
  json.Key("iau_beta");
  json.Double(params.beta);
  json.Key("lanes_per_evaluate");
  json.Double(lanes_per_evaluate);
  json.Key("batch_calls");
  json.UInt(batch_calls);
  json.Key("legacy_fold");
  json.BeginObject();
  json.Key("seconds");
  json.Double(legacy_seconds);
  json.Key("ns_per_batch");
  json.Double(legacy_seconds * per_call);
  json.EndObject();
  json.Key("scalar_batch");
  json.BeginObject();
  json.Key("seconds");
  json.Double(scalar_seconds);
  json.Key("ns_per_batch");
  json.Double(scalar_seconds * per_call);
  json.EndObject();
  json.Key("steady_state_allocations");
  json.UInt(engine_allocs);
  json.Key("speedup");
  json.Double(speedup);
  json.Key("speedup_threshold");
  json.Double(kSpeedupThreshold);
  json.Key("zero_alloc_pass");
  json.Bool(zero_alloc_pass);
  json.Key("replica_agrees");
  json.Bool(replica_agrees);
  json.Key("speedup_pass");
  json.Bool(speedup_pass);
  json.Key("pass");
  json.Bool(pass);
  json.EndObject();
  const std::string path = "BENCH_simd.json";
  std::ofstream out(path);
  out << json.str() << "\n";
  out.close();

  std::printf(
      "simd kernel gate (|W|=%zu, alpha=beta=1, %.0f lanes/Evaluate): "
      "legacy fold %.1f ns/batch, scalar batch %.1f ns/batch "
      "(Evaluate %llu allocs) -> %.2fx (>= %.1fx, 0 allocs, replica %s: "
      "%s); wrote %s\n",
      num_workers, lanes_per_evaluate, legacy_seconds * per_call,
      scalar_seconds * per_call,
      static_cast<unsigned long long>(engine_allocs), speedup,
      kSpeedupThreshold, replica_agrees ? "agrees" : "DISAGREES",
      pass ? "PASS" : "FAIL", path.c_str());
  if (!pass) {
    std::fprintf(stderr,
                 "simd kernel gate FAILED: allocations=%llu (need 0), "
                 "replica_agrees=%d, speedup %.2fx (need >= %.1fx)\n",
                 static_cast<unsigned long long>(engine_allocs),
                 replica_agrees ? 1 : 0, speedup, kSpeedupThreshold);
    return 1;
  }
  return 0;
}

}  // namespace fta

int main(int argc, char** argv) {
  // --bench=obs / --bench=game / --bench=simd run just that gate (the CI
  // smoke mode); --gate-workers=N resizes the ledger and SIMD gates'
  // instances. All are consumed here so google-benchmark never sees them.
  bool obs_only = false;
  bool game_only = false;
  bool simd_only = false;
  std::size_t gate_workers = 256;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench=obs") {
      obs_only = true;
    } else if (arg == "--bench=game") {
      game_only = true;
    } else if (arg == "--bench=simd") {
      simd_only = true;
    } else if (arg.rfind("--gate-workers=", 0) == 0) {
      gate_workers = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + std::strlen("--gate-workers="),
                        nullptr, 10));
      if (gate_workers == 0) {
        std::fprintf(stderr, "bad --gate-workers value: %s\n", arg.c_str());
        return 1;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (obs_only) return fta::RunObsOverheadGate();
  if (game_only) return fta::RunGameLedgerGate(gate_workers);
  if (simd_only) return fta::RunSimdKernelGate(gate_workers);
  if (const int rc = fta::RunObsOverheadGate(); rc != 0) return rc;
  if (const int rc = fta::RunGameLedgerGate(gate_workers); rc != 0) {
    return rc;
  }
  if (const int rc = fta::RunSimdKernelGate(gate_workers); rc != 0) {
    return rc;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

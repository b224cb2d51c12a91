// Streaming dispatch bench: warm (delta-patched catalog + warm-started
// solver) vs cold-restart (full regeneration + random init) on the same
// Poisson churn event sequence, at 5-8% per-tick element churn (the queue
// is still filling toward its rate x patience steady state, so the
// measured fraction sits a little above the 5% design point — a strictly
// harder regime for the delta path) and the paper's GM pruning threshold
// ε=0.6 km. Emits BENCH_stream.json.
//
// Hard gates (the bench aborts if they fail):
//  - steady-state warm per-tick cost (catalog maintenance + solve) is
//    <= 0.5x the cold-restart per-tick cost, measured after a warmup of
//    kWarmupTicks and min-of-kReps to shed scheduler noise;
//  - the warm run's whole-run digest equals the cold-seeded run's digest
//    (the differential identity the stream test battery pins, re-checked
//    here on the bench workload).

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench/common.h"
#include "util/check.h"

namespace fta {
namespace bench {
namespace {

constexpr size_t kTicks = 40;
constexpr size_t kWarmupTicks = 10;
constexpr int kReps = 3;
constexpr double kGateRatio = 0.5;

ChurnWorkloadConfig BenchChurn() {
  // Steady state ~ rate x patience = 240 queued orders and ~40 workers;
  // each 0.05 h tick then turns over ~12 orders and ~2 workers — 5% of the
  // population arriving (and, in steady state, another 5% expiring).
  ChurnWorkloadConfig churn;
  churn.horizon_hours = 0.05 * static_cast<double>(kTicks);
  churn.tasks.base_rate_per_hour = 240.0;
  churn.tasks.peak_hours = {};  // homogeneous: steady-state churn
  churn.worker_rate_per_hour = 40.0;
  churn.area_size = 10.0;
  churn.mean_worker_dwell_hours = 1.0;
  churn.mean_task_patience_hours = 1.0;
  return churn;
}

StreamConfig BenchStream(ResolvePolicy policy) {
  StreamConfig config;
  config.engine.center = Point{5.0, 5.0};
  config.tick_period = 0.05;
  config.max_ticks = kTicks;
  config.engine.policy = policy;
  config.engine.vdps.epsilon = 0.6;  // paper's GM default (Table I)
  config.engine.vdps.max_set_size = 3;
  config.engine.seed = 7;
  return config;
}

struct PolicyRun {
  StreamResult result;
  /// Mean per-tick cost over the steady-state window, best of kReps.
  double steady_catalog_ms = 0.0;
  double steady_solve_ms = 0.0;
  double steady_total_ms = 0.0;
  /// Mean per-tick fraction of elements churned in the steady window.
  double churn_fraction = 0.0;
};

PolicyRun RunPolicy(ResolvePolicy policy,
                    const std::vector<StreamEvent>& events) {
  PolicyRun run;
  run.steady_total_ms = kInfinity;
  for (int rep = 0; rep < kReps; ++rep) {
    StreamDispatcher dispatcher(BenchStream(policy), events);
    StatusOr<StreamResult> result = dispatcher.Run();
    FTA_CHECK_OK(result.status());
    FTA_CHECK_MSG(result->ticks.size() == kTicks, "missing tick stats");
    double catalog_ms = 0.0, solve_ms = 0.0, churn = 0.0;
    for (size_t t = kWarmupTicks; t < kTicks; ++t) {
      const TickStats& ts = result->ticks[t];
      catalog_ms += ts.catalog_ms;
      solve_ms += ts.solve_ms;
      const size_t population = ts.num_workers + ts.num_dps;
      if (population > 0) {
        // One-sided: the fraction of the live population that arrived this
        // tick (steady state sheds about the same fraction).
        churn += static_cast<double>(ts.workers_in + ts.tasks_in) /
                 static_cast<double>(population);
      }
    }
    const double n = static_cast<double>(kTicks - kWarmupTicks);
    if ((catalog_ms + solve_ms) / n < run.steady_total_ms) {
      run.steady_catalog_ms = catalog_ms / n;
      run.steady_solve_ms = solve_ms / n;
      run.steady_total_ms = (catalog_ms + solve_ms) / n;
      run.churn_fraction = churn / n;
      run.result = std::move(*result);
    }
  }
  return run;
}

void AppendPolicy(std::ostringstream& json, const char* name,
                  const PolicyRun& run) {
  const StreamCounters& c = run.result.counters;
  json << "    {\"policy\": \"" << name << "\", "
       << "\"steady_catalog_ms_per_tick\": "
       << StrFormat("%.4f", run.steady_catalog_ms)
       << ", \"steady_solve_ms_per_tick\": "
       << StrFormat("%.4f", run.steady_solve_ms)
       << ", \"steady_total_ms_per_tick\": "
       << StrFormat("%.4f", run.steady_total_ms)
       << ", \"churn_fraction_per_tick\": "
       << StrFormat("%.4f", run.churn_fraction)
       << ", \"regens\": " << c.regens << ", \"deltas\": " << c.deltas
       << ", \"solver_rounds\": " << c.solver_rounds
       << ", \"converged_ticks\": " << c.converged_ticks
       << ", \"tasks_arrived\": " << c.tasks_arrived
       << ", \"tasks_expired\": " << c.tasks_expired
       << ", \"workers_arrived\": " << c.workers_arrived
       << ", \"workers_departed\": " << c.workers_departed
       << ", \"digest\": \""
       << StrFormat("%016llx",
                    static_cast<unsigned long long>(run.result.digest))
       << "\"}";
}

void Main() {
  const std::vector<StreamEvent> events = GenerateChurnEvents(BenchChurn(), 7);
  std::printf("stream bench: %zu events, %zu ticks (%zu warmup), %d reps\n",
              events.size(), kTicks, kWarmupTicks, kReps);

  const PolicyRun cold = RunPolicy(ResolvePolicy::kColdRestart, events);
  const PolicyRun seeded = RunPolicy(ResolvePolicy::kColdSeeded, events);
  const PolicyRun warm = RunPolicy(ResolvePolicy::kWarm, events);

  const double ratio = warm.steady_total_ms / cold.steady_total_ms;
  std::printf(
      "  cold-restart: %.3f ms/tick (catalog %.3f + solve %.3f)\n"
      "  cold-seeded:  %.3f ms/tick (catalog %.3f + solve %.3f)\n"
      "  warm:         %.3f ms/tick (catalog %.3f + solve %.3f)\n"
      "  churn/tick:   %.1f%% of live elements\n"
      "  warm / cold-restart ratio: %.3f (gate <= %.2f)\n",
      cold.steady_total_ms, cold.steady_catalog_ms, cold.steady_solve_ms,
      seeded.steady_total_ms, seeded.steady_catalog_ms,
      seeded.steady_solve_ms, warm.steady_total_ms, warm.steady_catalog_ms,
      warm.steady_solve_ms, warm.churn_fraction * 100.0, ratio, kGateRatio);

  FTA_CHECK_MSG(warm.result.digest == seeded.result.digest,
                "warm digest must equal cold-seeded digest "
                "(delta-patched catalog or warm start diverged)");
  FTA_CHECK_MSG(warm.result.counters.deltas == kTicks - 1,
                "warm run must delta-patch every tick after the first");
  FTA_CHECK_MSG(
      ratio <= kGateRatio,
      "steady-state warm per-tick cost must be <= "
          << kGateRatio << "x cold restart, got "
          << StrFormat("%.3fx (warm %.3f ms vs cold %.3f ms)", ratio,
                       warm.steady_total_ms, cold.steady_total_ms));

  std::ostringstream json;
  json << "{\n  \"bench\": \"stream\",\n  \"meta\": " << BenchMetaJson()
       << ",\n  \"ticks\": " << kTicks
       << ",\n  \"warmup_ticks\": " << kWarmupTicks
       << ",\n  \"reps\": " << kReps << ",\n  \"epsilon\": 0.6"
       << ",\n  \"events\": " << events.size() << ",\n  \"policies\": [\n";
  AppendPolicy(json, "cold-restart", cold);
  json << ",\n";
  AppendPolicy(json, "cold-seeded", seeded);
  json << ",\n";
  AppendPolicy(json, "warm", warm);
  json << "\n  ],\n  \"warm_cold_ratio\": " << StrFormat("%.4f", ratio)
       << ",\n  \"gate_ratio\": " << StrFormat("%.2f", kGateRatio)
       << ",\n  \"warm_equals_cold_seeded\": "
       << (warm.result.digest == seeded.result.digest ? "true" : "false")
       << "\n}\n";

  const std::string path = "BENCH_stream.json";
  std::ofstream out(path);
  out << json.str();
  out.close();
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace fta

int main() { fta::bench::Main(); }

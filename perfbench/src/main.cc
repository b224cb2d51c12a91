// Repository benchmark driver. One workload per process:
//
//   fta_perfbench --workload <serve-steady|serve-rush|syn-batch> --seed <n>
//                 --seconds <s> --trace <0|1> [--spans <path>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (0 for a layer the
// workload does not exercise). A failed correctness check prints the
// reason on standard error, no result, and exits 1.
//
// Self-test hooks: --toy (tiny inputs), --input-digest (print a digest of
// the generated inputs and stop), --corrupt-reference (the run must fail).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly the names and units in BENCHMARK.json (the self-test
// checks it).
constexpr MetricDef kEndToEnd[] = {
    {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"batch_solve_ms", "ms"}, {"fgt.pdif", "payoff"},
    {"fgt.avg_payoff", "payoff"}, {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"vdps.delta_ms_p50", "ms"},
    {"vdps.delta_ms_p99", "ms"},
    {"vdps.delta_neighborhood_dps", "count"},
    {"vdps.delta_subenum_states", "count"},
    {"vdps.delta_entries_added", "count"},
    {"vdps.delta_entries_removed", "count"},
    {"vdps.regens", "count"},
    {"vdps.generate_ms", "ms"},
    {"vdps.adjacency_ms", "ms"},
    {"vdps.enumerate_ms", "ms"},
    {"vdps.finalize_ms", "ms"},
    {"vdps.strategies_ms", "ms"},
    {"vdps.states_expanded", "count"},
    {"vdps.entries", "count"},
    {"vdps.strategies", "count"},
    {"vdps.entries_per_state", "ratio"},
    {"game.fgt_ms", "ms"},
    {"game.iegt_ms", "ms"},
    {"game.solve_ms_p50", "ms"},
    {"game.solve_ms_p99", "ms"},
    {"game.fgt_rounds", "count"},
    {"game.iegt_rounds", "count"},
    {"game.strategies_scanned", "count"},
    {"game.cache_skips", "count"},
    {"game.cache_hit_frac", "frac"},
    {"game.converged_frac", "frac"},
    {"game.iegt_pdif", "payoff"},
    {"game.iegt_avg_payoff", "payoff"},
    {"stream.tick_ms_p50", "ms"},
    {"stream.tick_ms_p99", "ms"},
    {"stream.project_ms_mean", "ms"},
    {"stream.other_ms_mean", "ms"},
    {"stream.churn_frac", "frac"},
    {"stream.live_workers_mean", "count"},
    {"stream.live_dps_mean", "count"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.wait_ms_p99", "ms"},
    {"serve.shard_busy_imbalance", "ratio"},
    {"serve.runner_busy_frac", "frac"},
    {"serve.requests_per_batch", "count"},
    {"serve.queue_full", "count"},
    {"serve.submit_us_p50", "us"},
    {"serve.submit_us_p99", "us"},
    {"serve.slo_miss_frac", "frac"},
    {"driver.lag_p99_ms", "ms"},
    {"trace.overhead_frac", "frac"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "fta_perfbench: %s\nusage: fta_perfbench --workload "
               "<serve-steady|serve-rush|syn-batch> --seed <n> --seconds "
               "<s> --trace <0|1> [--spans <path>] [--toy] "
               "[--input-digest] [--corrupt-reference]\n",
               why);
  return 2;
}

template <size_t N>
void PrintResult(const WorkloadResult& r, const MetricDef (&defs)[N],
                 const std::map<std::string, double>& values) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, spans_path;
  RunSpec spec;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--toy") {
      spec.toy = true;
    } else if (arg == "--input-digest") {
      spec.input_digest_only = true;
    } else if (arg == "--corrupt-reference") {
      spec.corrupt_reference = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      char* end = nullptr;
      spec.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
      have_seed = true;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      spec.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(spec.seconds > 0.0) || spec.seconds > 120.0) {
        return Usage("--seconds takes a number in (0, 120]");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      spec.trace = v == "1";
      have_trace = true;
    } else if (arg == "--spans") {
      spans_path = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  fta::SetLogLevel(fta::LogLevel::kWarning);
  SpanLog spans;
  if (spec.trace) spec.spans = &spans;
  WorkloadResult result;
  if (workload == "serve-steady") {
    result = RunServe(/*rush=*/false, spec);
  } else if (workload == "serve-rush") {
    result = RunServe(/*rush=*/true, spec);
  } else if (workload == "syn-batch") {
    result = RunSynBatch(spec);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (spec.input_digest_only) return 0;
  if (!result.correct) {
    std::fprintf(stderr, "fta_perfbench: %s: check failed: %s\n",
                 workload.c_str(), result.error.c_str());
    return 1;
  }
  if (spec.trace) {
    if (!spans_path.empty() && !spans.WriteJson(spans_path)) {
      std::fprintf(stderr, "fta_perfbench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
    PrintResult(result, kPerLayer, result.layer);
  } else {
    PrintResult(result, kEndToEnd, result.e2e);
  }
  return 0;
}

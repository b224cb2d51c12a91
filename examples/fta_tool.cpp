// fta_tool — command-line front end for the library. Subcommands:
//
//   generate   synthesize a dataset and write it to a CSV instance file
//     ./fta_tool generate --family=syn --scale=0.05 --out=syn.csv
//     ./fta_tool generate --family=gm --tasks=200 --workers=40 --out=gm.csv
//
//   solve      load an instance file, run an algorithm, print metrics
//     ./fta_tool solve --algorithm=iegt --epsilon=2 --svg=out.svg syn.csv
//
//   repeat     multi-seed statistical comparison of all four algorithms
//     ./fta_tool repeat --family=gm --seeds=5
//
//   simulate   multi-wave day simulation
//     ./fta_tool simulate --algorithm=iegt --waves=12
//
//   stream     online streaming dispatch over a Poisson churn workload
//     ./fta_tool stream --policy=warm --solver=fgt --ticks=40
//     ./fta_tool stream --prom-out=metrics.prom --prom-every=1 ...
//
//   serve      sharded multi-center assignment server over a replayed
//              city workload (synthesized or loaded from --workload)
//     ./fta_tool serve --centers=16 --ticks=20 --threads=8 --validate
//     ./fta_tool serve --save-workload=city.csv
//     ./fta_tool serve --workload=city.csv --prom-out=metrics.prom
//
//   metrics-serve   tiny HTTP exporter over a published metrics text file
//     ./fta_tool metrics-serve --file=metrics.prom --port=9184
//
// Every knob has a sane default; run a subcommand with --help for flags.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "fta/fta.h"

namespace fta {
namespace {

StatusOr<Algorithm> ParseAlgorithm(const std::string& name) {
  if (name == "mpta") return Algorithm::kMpta;
  if (name == "gta") return Algorithm::kGta;
  if (name == "fgt") return Algorithm::kFgt;
  if (name == "iegt") return Algorithm::kIegt;
  if (name == "random") return Algorithm::kRandom;
  return Status::InvalidArgument(
      "unknown algorithm '" + name + "' (mpta|gta|fgt|iegt|random)");
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdGenerate(int argc, const char* const* argv) {
  std::string family = "syn";
  std::string out = "dataset.csv";
  double scale = 0.05;
  size_t tasks = 200, workers = 40, dps = 100;
  int64_t seed = 7;
  bool help = false;
  FlagParser flags;
  flags.AddString("family", &family, "dataset family: syn | gm");
  flags.AddString("out", &out, "output instance file");
  flags.AddDouble("scale", &scale, "SYN population scale vs. the paper");
  flags.AddSizeT("tasks", &tasks, "GM task count");
  flags.AddSizeT("workers", &workers, "GM worker count");
  flags.AddSizeT("dps", &dps, "GM delivery point count (k-means k)");
  flags.AddInt("seed", &seed, "generator seed");
  flags.AddBool("help", &help, "show flags");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  if (help) {
    std::printf("generate flags:\n%s", flags.Usage().c_str());
    return 0;
  }

  MultiCenterInstance multi;
  if (family == "syn") {
    SynConfig config = ScaleSyn(SynConfig{}, scale);
    config.seed = static_cast<uint64_t>(seed);
    multi = GenerateSyn(config);
  } else if (family == "gm") {
    GMissionConfig config;
    config.num_tasks = tasks;
    config.num_workers = workers;
    config.seed = static_cast<uint64_t>(seed);
    GMissionPrepConfig prep;
    prep.num_delivery_points = dps;
    prep.seed = static_cast<uint64_t>(seed) + 1;
    multi.centers.push_back(GenerateGMissionLike(config, prep));
  } else {
    return Fail(Status::InvalidArgument("--family must be syn or gm"));
  }
  if (Status s = SaveInstances(out, multi); !s.ok()) return Fail(s);
  std::printf("wrote %s: %zu centers, %zu workers, %zu delivery points, "
              "%zu tasks\n",
              out.c_str(), multi.centers.size(), multi.num_workers(),
              multi.num_delivery_points(), multi.num_tasks());
  return 0;
}

int CmdSolve(int argc, const char* const* argv) {
  std::string algorithm_name = "iegt";
  std::string svg;
  std::string trace_json;
  std::string metrics_json;
  double epsilon = 2.0;
  size_t max_set = 3;
  size_t threads = 1;
  int64_t seed = 1;
  bool help = false;
  FlagParser flags;
  flags.AddString("algorithm", &algorithm_name,
                  "mpta | gta | fgt | iegt | random");
  flags.AddDouble("epsilon", &epsilon, "pruning threshold (km; 0 = off)");
  flags.AddSizeT("max_set", &max_set, "max delivery points per VDPS");
  flags.AddSizeT("threads", &threads, "threads across centers");
  flags.AddInt("seed", &seed, "solver seed");
  flags.AddString("svg", &svg,
                  "write the first center's assignment as SVG here");
  flags.AddString("trace-json", &trace_json,
                  "record spans and write a Chrome/Perfetto trace here");
  flags.AddString("metrics-json", &metrics_json,
                  "write the structured run report (fta-run-report-v1) here");
  flags.AddBool("help", &help, "show flags");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  if (help || flags.positional().size() != 2) {
    std::printf("usage: fta_tool solve [flags] <instance.csv>\n%s",
                flags.Usage().c_str());
    return help ? 0 : 1;
  }

  StatusOr<Algorithm> algorithm = ParseAlgorithm(algorithm_name);
  if (!algorithm.ok()) return Fail(algorithm.status());
  StatusOr<MultiCenterInstance> multi = LoadInstances(flags.positional()[1]);
  if (!multi.ok()) return Fail(multi.status());

  if (!trace_json.empty()) {
    obs::TraceRecorder::Global().Clear();
    obs::SetTracingEnabled(true);
  }
  SolverOptions options;
  options.vdps.epsilon = epsilon > 0 ? epsilon : kInfinity;
  options.vdps.max_set_size = static_cast<uint32_t>(max_set);
  options.seed = static_cast<uint64_t>(seed);
  if (!metrics_json.empty()) {
    // The report's per-iteration section needs the solver trace.
    options.fgt.record_trace = true;
    options.iegt.record_trace = true;
  }
  const RunMetrics m = RunOnMulti(*algorithm, *multi, options, threads);
  if (!trace_json.empty()) obs::SetTracingEnabled(false);
  std::printf(
      "%s on %zu centers: P_dif %.4f | avg payoff %.4f | total %.2f | "
      "assigned %zu/%zu | covered tasks %zu | CPU %.3fs\n",
      AlgorithmName(*algorithm), multi->centers.size(), m.payoff_difference,
      m.average_payoff, m.total_payoff, m.assigned_workers, m.num_workers,
      m.covered_tasks, m.cpu_seconds);

  if (!trace_json.empty()) {
    if (Status s = obs::TraceRecorder::Global().WriteChromeJson(trace_json);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %s (%zu spans)\n", trace_json.c_str(),
                obs::TraceRecorder::Global().num_events());
  }
  if (!metrics_json.empty()) {
    const RunReport report =
        BuildRunReport("fta_tool", AlgorithmName(*algorithm),
                       flags.positional()[1], m);
    if (Status s = report.WriteJson(metrics_json); !s.ok()) return Fail(s);
    std::printf("wrote %s (%zu registry metrics)\n", metrics_json.c_str(),
                report.registry.metrics.size());
  }

  if (!svg.empty() && !multi->centers.empty()) {
    // Re-solve the first center alone for the picture.
    const Instance& first = multi->centers[0];
    const VdpsCatalog catalog = VdpsCatalog::Generate(first, options.vdps);
    Assignment assignment;
    switch (*algorithm) {
      case Algorithm::kMpta:
        assignment = SolveMpta(first, catalog).assignment;
        break;
      case Algorithm::kGta:
        assignment = SolveGta(first, catalog);
        break;
      case Algorithm::kFgt:
        assignment = SolveFgt(first, catalog).assignment;
        break;
      case Algorithm::kIegt:
        assignment = SolveIegt(first, catalog).assignment;
        break;
      case Algorithm::kRandom: {
        Rng rng(static_cast<uint64_t>(seed));
        assignment = SolveRandom(first, catalog, rng);
        break;
      }
    }
    if (Status s = WriteInstanceSvg(svg, first, &assignment); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %s\n", svg.c_str());
  }
  return 0;
}

int CmdRepeat(int argc, const char* const* argv) {
  std::string family = "gm";
  size_t seeds = 5;
  double epsilon = 2.0;
  bool help = false;
  FlagParser flags;
  flags.AddString("family", &family, "dataset family: syn | gm");
  flags.AddSizeT("seeds", &seeds, "number of seeds");
  flags.AddDouble("epsilon", &epsilon, "pruning threshold");
  flags.AddBool("help", &help, "show flags");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  if (help) {
    std::printf("repeat flags:\n%s", flags.Usage().c_str());
    return 0;
  }

  const auto instance_for = [&](uint64_t seed) {
    if (family == "syn") {
      SynConfig config = ScaleSyn(SynConfig{}, 0.02);
      config.seed = seed;
      return GenerateSyn(config);
    }
    GMissionConfig config;
    config.seed = seed;
    GMissionPrepConfig prep;
    prep.seed = seed + 1;
    MultiCenterInstance multi;
    multi.centers.push_back(GenerateGMissionLike(config, prep));
    return multi;
  };
  SolverOptions options;
  options.vdps.epsilon = epsilon;

  ResultTable table(
      StrFormat("%s over %zu seeds (mean ± 95%% CI)", family.c_str(), seeds),
      {"algorithm", "P_dif", "avg payoff", "CPU (s)"});
  for (Algorithm a : PaperAlgorithms()) {
    const RepeatedRunSummary s =
        RunRepeated(a, instance_for, options, seeds);
    table.AddRow({AlgorithmName(a), s.payoff_difference.ToString(),
                  s.average_payoff.ToString(), s.cpu_seconds.ToString()});
  }
  std::printf("%s", table.ToText().c_str());
  return 0;
}

int CmdSimulate(int argc, const char* const* argv) {
  std::string algorithm_name = "iegt";
  int64_t waves = 12;
  size_t workers = 12;
  size_t tasks = 50;
  int64_t seed = 99;
  bool help = false;
  FlagParser flags;
  flags.AddString("algorithm", &algorithm_name,
                  "mpta | gta | fgt | iegt | random");
  flags.AddInt("waves", &waves, "assignment waves to simulate");
  flags.AddSizeT("workers", &workers, "courier fleet size");
  flags.AddSizeT("tasks", &tasks, "order arrivals per wave");
  flags.AddInt("seed", &seed, "simulation seed");
  flags.AddBool("help", &help, "show flags");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  if (help) {
    std::printf("simulate flags:\n%s", flags.Usage().c_str());
    return 0;
  }

  StatusOr<Algorithm> algorithm = ParseAlgorithm(algorithm_name);
  if (!algorithm.ok()) return Fail(algorithm.status());
  SimulationConfig config;
  config.algorithm = *algorithm;
  config.num_waves = static_cast<int>(waves);
  config.num_workers = workers;
  config.tasks_per_wave = tasks;
  config.options.vdps.epsilon = 2.5;
  config.seed = static_cast<uint64_t>(seed);
  const SimulationResult r = RunDispatchSimulation(config);
  std::printf(
      "%s, %d waves: served %zu, expired %zu, leftover %zu | earnings "
      "P_dif %.3f, Gini %.3f, Jain %.3f\n",
      AlgorithmName(*algorithm), config.num_waves, r.tasks_served,
      r.tasks_expired, r.tasks_leftover, r.earnings_payoff_difference,
      r.earnings_gini, r.earnings_jain);
  return 0;
}

int CmdStream(int argc, const char* const* argv) {
  std::string policy_name = "warm";
  std::string solver_name = "fgt";
  std::string metrics_json;
  std::string trace_json;
  std::string prom_out;
  size_t prom_every = 1;
  size_t window = 32;
  int64_t ticks = 40;
  double tick_period = 0.05;
  double epsilon = 2.5;
  size_t max_set = 3;
  size_t threads = 1;
  double task_rate = 120.0;
  double worker_rate = 30.0;
  double dwell = 1.0;
  double patience = 1.0;
  int64_t seed = 42;
  bool help = false;
  FlagParser flags;
  flags.AddString("policy", &policy_name,
                  "per-tick re-solve policy: cold | cold-seeded | warm");
  flags.AddString("solver", &solver_name, "fgt | iegt");
  flags.AddInt("ticks", &ticks, "ticks to run");
  flags.AddDouble("tick-period", &tick_period, "hours per tick");
  flags.AddDouble("epsilon", &epsilon, "pruning threshold (km; 0 = off)");
  flags.AddSizeT("max_set", &max_set, "max delivery points per VDPS");
  flags.AddSizeT("threads", &threads, "catalog/best-response threads");
  flags.AddDouble("task-rate", &task_rate, "mean order arrivals per hour");
  flags.AddDouble("worker-rate", &worker_rate,
                  "mean worker arrivals per hour");
  flags.AddDouble("dwell", &dwell, "mean worker dwell (hours)");
  flags.AddDouble("patience", &patience,
                  "mean undispatched-order patience (hours)");
  flags.AddInt("seed", &seed, "stream seed (events and solver)");
  flags.AddString("metrics-json", &metrics_json,
                  "write the structured run report (fta-run-report-v1) here");
  flags.AddString("trace-json", &trace_json,
                  "record spans and write a Chrome/Perfetto trace here");
  flags.AddString("prom-out", &prom_out,
                  "publish a Prometheus text page here while running "
                  "(atomic rename; scrape with metrics-serve or tail)");
  flags.AddSizeT("prom-every", &prom_every,
                 "publish cadence in ticks (0 = only at run end)");
  flags.AddSizeT("window", &window, "rolling-window length in ticks");
  flags.AddBool("help", &help, "show flags");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  if (help) {
    std::printf("stream flags:\n%s", flags.Usage().c_str());
    return 0;
  }

  StreamConfig config;
  if (policy_name == "cold") {
    config.engine.policy = ResolvePolicy::kColdRestart;
  } else if (policy_name == "cold-seeded") {
    config.engine.policy = ResolvePolicy::kColdSeeded;
  } else if (policy_name == "warm") {
    config.engine.policy = ResolvePolicy::kWarm;
  } else {
    return Fail(Status::InvalidArgument(
        "--policy must be cold, cold-seeded, or warm"));
  }
  if (solver_name == "fgt") {
    config.engine.solver = StreamSolver::kFgt;
  } else if (solver_name == "iegt") {
    config.engine.solver = StreamSolver::kIegt;
  } else {
    return Fail(Status::InvalidArgument("--solver must be fgt or iegt"));
  }
  ChurnWorkloadConfig churn;
  churn.horizon_hours = tick_period * static_cast<double>(ticks);
  churn.tasks.base_rate_per_hour = task_rate;
  churn.tasks.peak_hours = {churn.horizon_hours / 2.0};
  churn.worker_rate_per_hour = worker_rate;
  churn.mean_worker_dwell_hours = dwell;
  churn.mean_task_patience_hours = patience;
  config.engine.center = Point{churn.area_size / 2.0, churn.area_size / 2.0};
  config.tick_period = tick_period;
  config.max_ticks = static_cast<size_t>(ticks);
  config.engine.vdps.epsilon = epsilon > 0 ? epsilon : kInfinity;
  config.engine.vdps.max_set_size = static_cast<uint32_t>(max_set);
  config.engine.vdps.num_threads = threads;
  config.engine.fgt.engine.num_threads = threads;
  config.engine.iegt.engine.num_threads = threads;
  config.engine.seed = static_cast<uint64_t>(seed);
  config.telemetry.window_ticks = window > 0 ? window : 1;
  config.telemetry.publish_path = prom_out;
  config.telemetry.publish_every_ticks = prom_every;

  if (!trace_json.empty()) {
    obs::TraceRecorder::Global().Clear();
    obs::SetTracingEnabled(true);
  }
  StreamDispatcher dispatcher(
      config, GenerateChurnEvents(churn, static_cast<uint64_t>(seed)));
  StatusOr<StreamResult> result = dispatcher.Run();
  if (!trace_json.empty()) obs::SetTracingEnabled(false);
  if (!result.ok()) return Fail(result.status());
  const StreamCounters& c = result->counters;
  std::printf(
      "%s/%s over %llu ticks: events %llu | tasks %llu in / %llu expired | "
      "workers %llu in / %llu out | regens %llu, deltas %llu | rounds %llu "
      "(converged %llu) | catalog %.1fms, solve %.1fms | digest %016llx\n",
      ResolvePolicyName(config.engine.policy),
      StreamSolverName(config.engine.solver),
      static_cast<unsigned long long>(c.ticks),
      static_cast<unsigned long long>(c.events_ingested),
      static_cast<unsigned long long>(c.tasks_arrived),
      static_cast<unsigned long long>(c.tasks_expired),
      static_cast<unsigned long long>(c.workers_arrived),
      static_cast<unsigned long long>(c.workers_departed),
      static_cast<unsigned long long>(c.regens),
      static_cast<unsigned long long>(c.deltas),
      static_cast<unsigned long long>(c.solver_rounds),
      static_cast<unsigned long long>(c.converged_ticks), c.catalog_ms,
      c.solve_ms, static_cast<unsigned long long>(result->digest));
  if (!result->ticks.empty()) {
    const TickStats& last = result->ticks.back();
    std::printf(
        "last tick: %zu workers, %zu dps, %zu assigned, %zu covered | "
        "P_dif %.4f | avg payoff %.4f\n",
        last.num_workers, last.num_dps, last.assigned_workers,
        last.covered_dps, last.payoff_difference, last.average_payoff);
  }
  if (!trace_json.empty()) {
    if (Status s = obs::TraceRecorder::Global().WriteChromeJson(trace_json);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %s (%zu spans)\n", trace_json.c_str(),
                obs::TraceRecorder::Global().num_events());
  }
  if (!prom_out.empty()) {
    std::printf("published %s (windowed tick p50 %.3fms / p99 %.3fms)\n",
                prom_out.c_str(),
                dispatcher.telemetry()->tick_window().Stats().Quantile(0.5),
                dispatcher.telemetry()->tick_window().Stats().Quantile(0.99));
  }
  if (!metrics_json.empty()) {
    RunMetrics m;
    m.num_workers = result->ticks.empty() ? 0 : result->ticks.back().num_workers;
    m.payoff_difference =
        result->ticks.empty() ? 0.0 : result->ticks.back().payoff_difference;
    m.average_payoff =
        result->ticks.empty() ? 0.0 : result->ticks.back().average_payoff;
    m.assigned_workers =
        result->ticks.empty() ? 0 : result->ticks.back().assigned_workers;
    m.cpu_seconds = (c.catalog_ms + c.solve_ms) / 1e3;
    RunReport report = BuildRunReport(
        "fta_tool", StrFormat("stream-%s-%s", policy_name.c_str(),
                              solver_name.c_str()),
        "churn-workload", m);
    if (dispatcher.telemetry() != nullptr) {
      report.windows = dispatcher.telemetry()->WindowReadings();
    }
    if (Status s = report.WriteJson(metrics_json); !s.ok()) return Fail(s);
    std::printf("wrote %s (%zu registry metrics, %zu windows)\n",
                metrics_json.c_str(), report.registry.metrics.size(),
                report.windows.size());
  }
  return 0;
}

int CmdServe(int argc, const char* const* argv) {
  std::string policy_name = "warm";
  std::string solver_name = "fgt";
  std::string workload;
  std::string save_workload;
  std::string prom_out;
  int64_t centers = 8;
  int64_t ticks = 16;
  double tick_period = 0.05;
  double epsilon = 0.6;
  size_t max_set = 3;
  size_t threads = 8;
  size_t queue_capacity = 256;
  size_t max_requests_per_tick = 3;
  double task_rate = 240.0;
  double worker_rate = 40.0;
  double rate_sigma = 0.6;
  int64_t seed = 42;
  bool validate = false;
  bool help = false;
  FlagParser flags;
  flags.AddString("policy", &policy_name,
                  "per-tick re-solve policy: cold | cold-seeded | warm");
  flags.AddString("solver", &solver_name, "fgt | iegt");
  flags.AddInt("centers", &centers, "distribution centers (= shards)");
  flags.AddInt("ticks", &ticks, "replay ticks");
  flags.AddDouble("tick-period", &tick_period, "hours per tick");
  flags.AddDouble("epsilon", &epsilon, "pruning threshold (km; 0 = off)");
  flags.AddSizeT("max_set", &max_set, "max delivery points per VDPS");
  flags.AddSizeT("threads", &threads, "shard-runner threads");
  flags.AddSizeT("queue-capacity", &queue_capacity,
                 "admission bound (requests in flight before shedding)");
  flags.AddSizeT("max-requests-per-tick", &max_requests_per_tick,
                 "per (center, tick) coalescing split when synthesizing");
  flags.AddDouble("task-rate", &task_rate,
                  "mean order arrivals per center per hour");
  flags.AddDouble("worker-rate", &worker_rate,
                  "mean worker arrivals per center per hour");
  flags.AddDouble("rate-sigma", &rate_sigma,
                  "log-normal per-center rate heterogeneity (0 = uniform)");
  flags.AddInt("seed", &seed, "city + trace + solver seed");
  flags.AddString("workload", &workload,
                  "replay this saved trace instead of synthesizing");
  flags.AddString("save-workload", &save_workload,
                  "write the replayed trace here (fta serve trace CSV)");
  flags.AddBool("validate", &validate,
                "run the sequential reference and compare every shard "
                "digest (exits non-zero on divergence)");
  flags.AddString("prom-out", &prom_out,
                  "write the post-drain Prometheus page here");
  flags.AddBool("help", &help, "show flags");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  if (help) {
    std::printf("serve flags:\n%s", flags.Usage().c_str());
    return 0;
  }

  ServerConfig config;
  config.num_threads = threads > 0 ? threads : 1;
  config.queue_capacity = queue_capacity;
  config.tick_period = tick_period;
  if (policy_name == "cold") {
    config.engine.policy = ResolvePolicy::kColdRestart;
  } else if (policy_name == "cold-seeded") {
    config.engine.policy = ResolvePolicy::kColdSeeded;
  } else if (policy_name == "warm") {
    config.engine.policy = ResolvePolicy::kWarm;
  } else {
    return Fail(Status::InvalidArgument(
        "--policy must be cold, cold-seeded, or warm"));
  }
  if (solver_name == "fgt") {
    config.engine.solver = StreamSolver::kFgt;
  } else if (solver_name == "iegt") {
    config.engine.solver = StreamSolver::kIegt;
  } else {
    return Fail(Status::InvalidArgument("--solver must be fgt or iegt"));
  }
  config.engine.vdps.epsilon = epsilon > 0 ? epsilon : kInfinity;
  config.engine.vdps.max_set_size = static_cast<uint32_t>(max_set);
  config.engine.seed = static_cast<uint64_t>(seed);

  ServeTrace trace;
  if (!workload.empty()) {
    StatusOr<ServeTrace> loaded = LoadServeTrace(workload);
    if (!loaded.ok()) return Fail(loaded.status());
    trace = std::move(*loaded);
    config.tick_period = trace.tick_period;
  } else {
    CityWorkloadConfig city;
    city.num_centers = static_cast<size_t>(centers);
    city.rate_sigma = rate_sigma;
    city.tick_period = tick_period;
    city.ticks = static_cast<uint64_t>(ticks);
    city.base.tasks.base_rate_per_hour = task_rate;
    city.base.tasks.peak_hours = {};
    city.base.worker_rate_per_hour = worker_rate;
    trace = BuildServeTrace(GenerateCityWorkload(city,
                                                 static_cast<uint64_t>(seed)),
                            max_requests_per_tick,
                            static_cast<uint64_t>(seed));
  }
  if (!save_workload.empty()) {
    if (Status s = SaveServeTrace(save_workload, trace); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %s (%zu centers, %zu requests)\n",
                save_workload.c_str(), trace.centers.size(),
                trace.requests.size());
  }

  std::vector<CenterSpec> specs;
  for (const Point& p : trace.centers) specs.push_back({p});
  ThreadPool pool(config.num_threads);
  Stopwatch sw;
  AssignmentServer server(config, std::move(specs), &pool);
  StatusOr<uint64_t> retries = ReplayTrace(server, trace);
  if (!retries.ok()) return Fail(retries.status());
  server.Drain();
  const double wall_ms = sw.ElapsedMillis();

  const ServeCounters counters = server.counters();
  obs::SketchData latency(0.01);
  for (uint32_t c = 0; c < server.num_shards(); ++c) {
    for (const ServeResponse& r : server.responses(c)) {
      latency.Observe(r.latency_ms);
    }
  }
  std::printf(
      "%s/%s: %zu shards x %llu requests over %.1f ms | batches %llu | "
      "assignments %llu | shed %llu (retries %llu) | rounds %llu | "
      "latency p50 %.2fms p99 %.2fms | %.0f assignments/s\n",
      policy_name.c_str(), solver_name.c_str(), server.num_shards(),
      static_cast<unsigned long long>(counters.admitted), wall_ms,
      static_cast<unsigned long long>(counters.batches),
      static_cast<unsigned long long>(counters.assignments),
      static_cast<unsigned long long>(counters.rejected_full),
      static_cast<unsigned long long>(*retries),
      static_cast<unsigned long long>(counters.solver_rounds),
      latency.ValueAtQuantile(0.5), latency.ValueAtQuantile(0.99),
      wall_ms > 0.0 ? static_cast<double>(counters.assignments) /
                          (wall_ms / 1000.0)
                    : 0.0);
  const std::vector<uint64_t> batches = server.shard_batch_counts();
  uint64_t bmin = batches.empty() ? 0 : batches[0];
  uint64_t bmax = 0;
  for (const uint64_t b : batches) {
    bmin = b < bmin ? b : bmin;
    bmax = b > bmax ? b : bmax;
  }
  std::printf("shard balance: %llu..%llu batches/shard\n",
              static_cast<unsigned long long>(bmin),
              static_cast<unsigned long long>(bmax));

  if (validate) {
    const ReferenceResult ref = RunSequentialReference(config, trace);
    for (uint32_t c = 0; c < server.num_shards(); ++c) {
      if (server.shard_digest(c) != ref.digests[c]) {
        return Fail(Status::Internal(StrFormat(
            "shard %u digest %016llx != sequential reference %016llx", c,
            static_cast<unsigned long long>(server.shard_digest(c)),
            static_cast<unsigned long long>(ref.digests[c]))));
      }
    }
    std::printf("validate: all %zu shard digests match the sequential "
                "reference\n",
                server.num_shards());
  }
  if (!prom_out.empty()) {
    if (!obs::WriteTextFileAtomic(prom_out, server.PrometheusText())) {
      return Fail(Status::IoError("cannot publish " + prom_out));
    }
    std::printf("published %s\n", prom_out.c_str());
  }
  return 0;
}

// Minimal single-threaded HTTP/1.0 exporter over a published text file —
// the node_exporter textfile pattern: the dispatcher atomically renames
// fresh pages into place and this loop re-reads the file per scrape, so
// the serving side never touches dispatcher state.
int CmdMetricsServe(int argc, const char* const* argv) {
  std::string file;
  size_t port = 9184;
  size_t max_requests = 0;
  bool help = false;
  FlagParser flags;
  flags.AddString("file", &file, "metrics text file to serve (required)");
  flags.AddSizeT("port", &port, "TCP port to listen on");
  flags.AddSizeT("max-requests", &max_requests,
                 "exit after this many requests (0 = serve forever)");
  flags.AddBool("help", &help, "show flags");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  if (help || file.empty()) {
    std::printf("metrics-serve flags:\n%s", flags.Usage().c_str());
    return help ? 0 : 1;
  }

  const int server = socket(AF_INET, SOCK_STREAM, 0);
  if (server < 0) return Fail(Status::IoError("socket() failed"));
  const int one = 1;
  setsockopt(server, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(server, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(server);
    return Fail(Status::IoError(
        StrFormat("bind() failed on port %zu", port)));
  }
  if (listen(server, 16) < 0) {
    close(server);
    return Fail(Status::IoError("listen() failed"));
  }
  std::printf("serving %s on http://0.0.0.0:%zu/metrics\n", file.c_str(),
              port);
  std::fflush(stdout);

  size_t served = 0;
  while (max_requests == 0 || served < max_requests) {
    const int conn = accept(server, nullptr, nullptr);
    if (conn < 0) continue;
    char request[1024];
    // One read is enough for a scrape's GET line; content is ignored.
    (void)read(conn, request, sizeof(request));

    std::ifstream in(file, std::ios::binary);
    std::string response;
    if (in) {
      std::ostringstream body;
      body << in.rdbuf();
      const std::string text = body.str();
      response = StrFormat(
          "HTTP/1.0 200 OK\r\n"
          "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
          "Content-Length: %zu\r\n\r\n",
          text.size());
      response += text;
    } else {
      const std::string text = "metrics file not available\n";
      response = StrFormat(
          "HTTP/1.0 503 Service Unavailable\r\n"
          "Content-Type: text/plain\r\nContent-Length: %zu\r\n\r\n",
          text.size());
      response += text;
    }
    size_t off = 0;
    while (off < response.size()) {
      const ssize_t n =
          write(conn, response.data() + off, response.size() - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    close(conn);
    ++served;
  }
  close(server);
  std::printf("served %zu requests\n", served);
  return 0;
}

int Main(int argc, const char* const* argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "generate") return CmdGenerate(argc, argv);
  if (command == "solve") return CmdSolve(argc, argv);
  if (command == "repeat") return CmdRepeat(argc, argv);
  if (command == "simulate") return CmdSimulate(argc, argv);
  if (command == "stream") return CmdStream(argc, argv);
  if (command == "serve") return CmdServe(argc, argv);
  if (command == "metrics-serve") return CmdMetricsServe(argc, argv);
  std::printf(
      "usage: fta_tool "
      "<generate|solve|repeat|simulate|stream|serve|metrics-serve> [flags]\n"
      "run a subcommand with --help for its flags\n");
  return command.empty() ? 1 : (command == "--help" ? 0 : 1);
}

}  // namespace
}  // namespace fta

int main(int argc, char** argv) { return fta::Main(argc, argv); }

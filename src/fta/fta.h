#ifndef FTA_FTA_H_
#define FTA_FTA_H_

/// Umbrella header for the FTA library: Fairness-aware Task Assignment in
/// Spatial Crowdsourcing (Zhao et al., ICDE 2021 reproduction).
///
/// Typical usage:
///
///   fta::Instance instance = fta::GenerateGMissionLike({}, {});
///   fta::VdpsCatalog catalog =
///       fta::VdpsCatalog::Generate(instance, {.epsilon = 0.6});
///   fta::GameResult result = fta::SolveIegt(instance, catalog);
///   std::cout << result.assignment.ToString(instance);

#include "baseline/branch_and_bound.h"
#include "baseline/gta.h"
#include "baseline/mpta.h"
#include "baseline/random_assignment.h"
#include "baseline/single_task.h"
#include "cluster/dbscan.h"
#include "cluster/kmeans.h"
#include "datagen/city.h"
#include "datagen/gmission.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "exp/report.h"
#include "exp/run_report.h"
#include "exp/runner.h"
#include "exp/simulation.h"
#include "exp/stats.h"
#include "exp/sweep.h"
#include "game/best_response.h"
#include "game/fgt.h"
#include "game/iau.h"
#include "game/iegt.h"
#include "game/joint_state.h"
#include "game/potential.h"
#include "game/priority.h"
#include "game/trace.h"
#include "geo/bounding_box.h"
#include "geo/grid_index.h"
#include "geo/point.h"
#include "geo/travel.h"
#include "io/assignment_io.h"
#include "io/csv.h"
#include "io/dataset_io.h"
#include "io/svg.h"
#include "io/trace_io.h"
#include "model/assignment.h"
#include "model/builder.h"
#include "model/instance.h"
#include "model/route.h"
#include "model/task.h"
#include "model/worker.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/sketch.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "serve/replay.h"
#include "serve/request.h"
#include "serve/server.h"
#include "stream/dispatcher.h"
#include "stream/digest.h"
#include "stream/events.h"
#include "stream/telemetry.h"
#include "stream/tick_engine.h"
#include "treedec/graph.h"
#include "treedec/mwis.h"
#include "treedec/tree_decomposition.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "vdps/catalog.h"
#include "vdps/generators.h"

#endif  // FTA_FTA_H_

#ifndef FTA_STREAM_DISPATCHER_H_
#define FTA_STREAM_DISPATCHER_H_

// Event-driven streaming dispatch loop over the per-tick core in
// stream/tick_engine.h: a time-sliced tick queue of worker/task arrivals
// and expirations, incremental C-VDPS catalog deltas between ticks, and
// warm-started FGT/IEGT solves seeded from the previous equilibrium.
//
// Each tick maintains a standing equilibrium PLAN over the current queue
// (continuous re-planning; commitment/serving is downstream of this
// subsystem). Elements leave only by their own deadlines, so most of the
// previous equilibrium survives a tick — that persistence is what the
// warm start and the catalog delta both exploit. The dispatcher owns the
// clock and the pre-sorted event feed; the TickEngine does everything
// else, so the serving layer (src/serve/) shares the exact machinery.

#include <cstdint>
#include <memory>
#include <vector>

#include "model/assignment.h"
#include "model/instance.h"
#include "stream/events.h"
#include "stream/telemetry.h"
#include "stream/tick_engine.h"
#include "util/status.h"
#include "vdps/catalog.h"

namespace fta {

struct StreamConfig {
  /// The per-tick engine: center, travel model, policy, solver, catalog
  /// and solver configurations, seed and catalog digest.
  TickEngineConfig engine;
  /// Tick t runs at absolute time t * tick_period.
  double tick_period = 1.0;
  /// Number of ticks to run (tick 0 included).
  size_t max_ticks = 16;
  /// Keep per-tick stats in the result (cheap; off for huge runs).
  bool record_ticks = true;
  /// Live-telemetry sink: per-tick phase sketches, rolling windows, and
  /// the Prometheus publisher. Purely observational — telemetry on/off
  /// leaves the run digest unchanged (pinned by the identity battery).
  StreamTelemetryConfig telemetry;
};

/// Whole-run aggregation, mirrored into the obs metrics registry.
struct StreamCounters {
  uint64_t ticks = 0;
  uint64_t events_ingested = 0;
  uint64_t workers_arrived = 0;
  uint64_t workers_departed = 0;
  uint64_t tasks_arrived = 0;
  uint64_t tasks_expired = 0;
  /// Full catalog regenerations vs incremental delta applications.
  uint64_t regens = 0;
  uint64_t deltas = 0;
  uint64_t solver_rounds = 0;
  uint64_t converged_ticks = 0;
  /// Catalog maintenance wall time (Generate or ApplyDelta), and solver
  /// wall time, summed over ticks — the bench compares these across
  /// policies at matched churn.
  double catalog_ms = 0.0;
  double solve_ms = 0.0;
  /// Aggregated delta counters (kWarm only).
  DeltaCounters delta;

  /// Folds one finished tick into the aggregates. `events` is the number
  /// of feed events the tick drained (arrivals handed to the engine).
  void FoldTick(const TickStats& ts, size_t events);
};

struct StreamResult {
  StreamCounters counters;
  std::vector<TickStats> ticks;
  /// FNV-1a whole-run digest: every tick folds its instance shape and
  /// full assignment (stable ids, routes, payoff bits), plus the catalog
  /// digest when enabled. Two runs agree iff their observable behavior is
  /// bit-identical.
  uint64_t digest = 0;
};

/// The streaming dispatch loop. Step() advances one tick; Run() drives the
/// configured number of ticks and returns the aggregated result. Tests
/// step manually and inspect instance()/catalog()/last_assignment()
/// between ticks.
class StreamDispatcher {
 public:
  /// `events` must be sorted by non-decreasing time (checked). kWarm
  /// policy requires a delta-patchable VdpsConfig (checked).
  StreamDispatcher(StreamConfig config, std::vector<StreamEvent> events);

  bool Done() const { return tick_ >= config_.max_ticks; }

  /// Advances one tick: drains every arrival due by this tick's time into
  /// the engine, which expires dead elements, patches or regenerates the
  /// catalog, seeds and runs the solver, and folds the run digest.
  Status Step();

  /// Runs all remaining ticks and finalizes the result.
  StatusOr<StreamResult> Run();

  /// State after the last Step(), for tests and tooling.
  const Instance& instance() const { return engine_.instance(); }
  const VdpsCatalog& catalog() const { return engine_.catalog(); }
  const Assignment& last_assignment() const {
    return engine_.last_assignment();
  }
  const TickStats& last_tick() const { return last_tick_; }
  const StreamCounters& counters() const { return counters_; }
  uint64_t digest() const { return engine_.digest(); }
  /// Null when config.telemetry.enabled is false.
  const StreamTelemetry* telemetry() const { return telemetry_.get(); }

 private:
  StreamConfig config_;
  std::vector<StreamEvent> events_;
  size_t next_event_ = 0;
  size_t tick_ = 0;

  TickEngine engine_;
  StreamCounters counters_;
  std::vector<TickStats> ticks_;
  TickStats last_tick_;
  std::unique_ptr<StreamTelemetry> telemetry_;
};

}  // namespace fta

#endif  // FTA_STREAM_DISPATCHER_H_

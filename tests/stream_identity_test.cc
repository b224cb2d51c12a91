#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "datagen/workload.h"
#include "obs/window.h"
#include "stream/dispatcher.h"
#include "util/status.h"

// Cold ≡ warm differential battery for the streaming dispatcher.
//
// kColdSeeded regenerates the catalog from scratch every tick and seeds the
// solver from the projected previous equilibrium; kWarm delta-patches the
// catalog (VdpsCatalog::ApplyDelta) and uses the same seed. Both fold every
// tick's full catalog (entries, strategies, ε-adjacency)
// and assignment into one FNV-1a whole-run digest, so a single EXPECT_EQ
// pins, bit for bit, across seeds × thread counts × solvers:
//   * delta-patched catalog ≡ regenerated catalog, and
//   * warm-started convergence ≡ cold(-seeded) convergence — same final
//     assignment, Definition-8 valid (validated each tick inside Step()).

namespace fta {
namespace {

ChurnWorkloadConfig SmallChurn() {
  ChurnWorkloadConfig churn;
  churn.horizon_hours = 1.0;
  churn.tasks.base_rate_per_hour = 40.0;
  churn.tasks.peak_hours = {0.5};
  churn.worker_rate_per_hour = 15.0;
  churn.area_size = 6.0;
  churn.mean_worker_dwell_hours = 0.5;
  churn.mean_task_patience_hours = 0.4;
  return churn;
}

StreamConfig SmallStream(uint64_t seed, size_t threads, StreamSolver solver) {
  StreamConfig config;
  config.engine.center = Point{3.0, 3.0};
  config.tick_period = 0.1;
  config.max_ticks = 10;
  config.engine.solver = solver;
  config.engine.vdps.epsilon = 2.0;
  config.engine.vdps.max_set_size = 3;
  config.engine.vdps.num_threads = threads;
  config.engine.fgt.engine.num_threads = threads;
  config.engine.iegt.engine.num_threads = threads;
  config.engine.seed = seed;
  config.engine.digest_catalog = true;
  return config;
}

uint64_t RunDigest(const StreamConfig& config,
                   const std::vector<StreamEvent>& events) {
  StreamDispatcher dispatcher(config, events);
  StatusOr<StreamResult> result = dispatcher.Run();
  EXPECT_TRUE(result.ok()) << result.status().message();
  return result->digest;
}

TEST(StreamIdentityTest, WarmEqualsColdSeededAcrossSeedsThreadsSolvers) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const std::vector<StreamEvent> events =
        GenerateChurnEvents(SmallChurn(), seed * 1000);
    for (const StreamSolver solver : {StreamSolver::kFgt, StreamSolver::kIegt}) {
      uint64_t reference = 0;
      bool have_reference = false;
      for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        StreamConfig cold = SmallStream(seed, threads, solver);
        cold.engine.policy = ResolvePolicy::kColdSeeded;
        StreamConfig warm = SmallStream(seed, threads, solver);
        warm.engine.policy = ResolvePolicy::kWarm;
        const uint64_t cold_digest = RunDigest(cold, events);
        const uint64_t warm_digest = RunDigest(warm, events);
        EXPECT_EQ(warm_digest, cold_digest)
            << "seed=" << seed << " threads=" << threads
            << " solver=" << StreamSolverName(solver);
        // Thread count must not change the stream either (catalogs and
        // best responses are bit-identical at any parallelism).
        if (!have_reference) {
          reference = cold_digest;
          have_reference = true;
        }
        EXPECT_EQ(cold_digest, reference)
            << "seed=" << seed << " threads=" << threads
            << " solver=" << StreamSolverName(solver);
      }
    }
  }
}

TEST(StreamIdentityTest, WarmTicksActuallyUseDeltas) {
  const std::vector<StreamEvent> events =
      GenerateChurnEvents(SmallChurn(), 7);
  StreamConfig config = SmallStream(7, 1, StreamSolver::kFgt);
  config.engine.policy = ResolvePolicy::kWarm;
  StreamDispatcher dispatcher(config, events);
  StatusOr<StreamResult> result = dispatcher.Run();
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->counters.regens, 1u);  // tick 0 only
  EXPECT_EQ(result->counters.deltas, result->counters.ticks - 1);
  EXPECT_GT(result->counters.delta.deltas_applied, 0u);
}

TEST(StreamIdentityTest, ColdSeededTicksAlwaysRegenerate) {
  const std::vector<StreamEvent> events =
      GenerateChurnEvents(SmallChurn(), 7);
  StreamConfig config = SmallStream(7, 1, StreamSolver::kFgt);
  config.engine.policy = ResolvePolicy::kColdSeeded;
  StreamDispatcher dispatcher(config, events);
  StatusOr<StreamResult> result = dispatcher.Run();
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->counters.regens, result->counters.ticks);
  EXPECT_EQ(result->counters.deltas, 0u);
}

TEST(StreamIdentityTest, TelemetryOnOffAssignmentsAreBitIdentical) {
  // Telemetry is strictly an observer (dispatcher phase 7, after the
  // digest fold): with it on (the default) and off, a full stream run must
  // fold bit-identical whole-run digests — while the telemetry side really
  // does observe every tick into its rolling windows.
  const std::vector<StreamEvent> events =
      GenerateChurnEvents(SmallChurn(), 31);
  for (const StreamSolver solver :
       {StreamSolver::kFgt, StreamSolver::kIegt}) {
    StreamConfig on = SmallStream(5, 2, solver);
    on.engine.policy = ResolvePolicy::kWarm;
    StreamConfig off = on;
    off.telemetry.enabled = false;

    StreamDispatcher instrumented(on, events);
    StatusOr<StreamResult> with = instrumented.Run();
    ASSERT_TRUE(with.ok()) << with.status().message();
    ASSERT_NE(instrumented.telemetry(), nullptr);
    const obs::WindowStats tick_stats =
        instrumented.telemetry()->tick_window().Stats();
    EXPECT_EQ(tick_stats.count(), with->counters.ticks);

    StreamDispatcher bare(off, events);
    StatusOr<StreamResult> without = bare.Run();
    ASSERT_TRUE(without.ok()) << without.status().message();
    EXPECT_EQ(bare.telemetry(), nullptr);
    EXPECT_EQ(with->digest, without->digest)
        << "solver=" << StreamSolverName(solver);
  }
}

TEST(StreamIdentityTest, DifferentSeedsProduceDifferentStreams) {
  const StreamConfig config = SmallStream(1, 1, StreamSolver::kFgt);
  const uint64_t a =
      RunDigest(config, GenerateChurnEvents(SmallChurn(), 1000));
  const uint64_t b =
      RunDigest(config, GenerateChurnEvents(SmallChurn(), 2000));
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace fta

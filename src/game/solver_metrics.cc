#include "game/solver_metrics.h"

#include <string>

#include "obs/metrics.h"
#include "util/simd.h"

namespace fta {

void PublishGameRun(const char* solver, const GameResult& result) {
  auto& reg = obs::MetricsRegistry::Global();
  const std::string prefix(solver);
  // Per-solver registrations are looked up by name on every run (solvers
  // run at most a handful of times per process; the map lookup is not a
  // hot path, unlike the per-observation cell updates).
  reg.GetCounter(prefix + "/runs").Increment();
  reg.GetCounter(prefix + "/rounds")
      .Add(static_cast<uint64_t>(result.rounds));
  if (result.converged) reg.GetCounter(prefix + "/converged").Increment();
  if (result.early_stopped) {
    reg.GetCounter(prefix + "/early_stopped").Increment();
  }
  // Round count as a distribution: observations are exact small integers,
  // so the histogram is as deterministic as the solve itself.
  reg.GetHistogram(prefix + "/rounds_dist",
                   obs::ExponentialBounds(1.0, 2.0, 8))
      .Observe(static_cast<double>(result.rounds));
  // Engine work is shared across solvers on purpose: the Figure-12 benches
  // compare total scan traffic regardless of which loop drove it.
  reg.GetCounter("game/engine/strategies_scanned")
      .Add(result.engine.strategies_scanned);
  reg.GetCounter("game/engine/parallel_batches")
      .Add(result.engine.parallel_batches);
  // Batched-kernel traffic (game/iau_kernels.h): how many SortedIauBatch
  // calls the candidate scans issued, how many candidate utilities they
  // produced, and which dispatch path served them — avx2_batches is 0 on a
  // scalar host or forced-scalar run, so dashboards can tell at a glance
  // which kernels produced a run's numbers.
  reg.GetCounter("game/simd/batches").Add(result.engine.simd_batches);
  reg.GetCounter("game/simd/lanes").Add(result.engine.simd_lanes);
  reg.GetCounter("game/simd/avx2_batches")
      .Add(result.engine.simd_avx2_batches);
  reg.GetCounter(std::string("game/simd/dispatch_") +
                 simd::SimdModeName(simd::ActiveSimdMode()))
      .Increment();
  // Payoff-ledger savings (game/payoff_ledger.h): what the OthersView
  // rebuild path would have cost, measured rather than estimated.
  reg.GetCounter("game/ledger/sorts_eliminated")
      .Add(result.engine.ledger.sorts_eliminated);
  reg.GetCounter("game/ledger/bytes_not_allocated")
      .Add(result.engine.ledger.bytes_not_allocated);
  reg.GetCounter("game/ledger/memmove_elements")
      .Add(result.engine.ledger.memmove_elements);
  reg.GetCounter("game/ledger/scratch_reuses")
      .Add(result.engine.ledger.scratch_reuses);
}

}  // namespace fta

#include "game/solver_metrics.h"

#include <string>

#include "obs/metrics.h"

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
  // so the sketch is as deterministic as the solve itself.
  reg.GetSketch(prefix + "/rounds_dist", 0.01)
      .Observe(static_cast<double>(result.rounds));
  // Engine work is shared across solvers on purpose: the Figure-12 benches
  // compare total scan traffic regardless of which loop drove it.
  reg.GetCounter("game/engine/strategies_scanned")
      .Add(result.engine.strategies_scanned);
  reg.GetCounter("game/engine/parallel_batches")
      .Add(result.engine.parallel_batches);
  // Batched-kernel traffic (game/iau_kernels.h): how many
  // SortedIauBatchArgmax calls the candidate scans issued and how many
  // candidate utilities they produced.
  reg.GetCounter("game/simd/batches").Add(result.engine.simd_batches);
  reg.GetCounter("game/simd/lanes").Add(result.engine.simd_lanes);
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

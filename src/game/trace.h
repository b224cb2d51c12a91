#ifndef FTA_GAME_TRACE_H_
#define FTA_GAME_TRACE_H_

#include <cstddef>
#include <vector>

#include "game/payoff_ledger.h"
#include "model/assignment.h"

namespace fta {

/// Work counters of the BestResponseEngine, exposed through the game trace
/// for the Figure-12 convergence benches. Purely observational: two runs
/// that differ only in these counters produced identical assignments.
struct BestResponseCounters {
  /// Strategies whose availability was checked against delivery-point
  /// ownership (one JointState::IsAvailable call each).
  uint64_t strategies_scanned = 0;
  /// Always 0: every availability check counts in strategies_scanned.
  /// Kept because the benchmark's batch workload
  /// (perfbench/src/batch_workload.cc) reports it as game.cache_skips.
  uint64_t cache_skips = 0;
  /// Candidate fan-outs that ran on the thread pool.
  uint64_t parallel_batches = 0;
  /// SortedIauBatch calls issued by the candidate scan (one per gathered
  /// availability batch; see game/iau_kernels.h).
  uint64_t simd_batches = 0;
  /// Candidate utilities produced by those batches (lanes).
  uint64_t simd_lanes = 0;
  /// Subset of simd_batches dispatched to the AVX2 kernels — 0 on a scalar
  /// host / forced-scalar run, == simd_batches under AVX2 dispatch, so
  /// benches record which path produced their numbers.
  uint64_t simd_avx2_batches = 0;
  /// Sorted-payoff-ledger savings (sorts and allocations the rebuild path
  /// would have paid; see game/payoff_ledger.h).
  LedgerCounters ledger;

  BestResponseCounters& operator+=(const BestResponseCounters& o) {
    strategies_scanned += o.strategies_scanned;
    parallel_batches += o.parallel_batches;
    simd_batches += o.simd_batches;
    simd_lanes += o.simd_lanes;
    simd_avx2_batches += o.simd_avx2_batches;
    ledger += o.ledger;
    return *this;
  }
  friend BestResponseCounters operator-(BestResponseCounters a,
                                        const BestResponseCounters& b) {
    a.strategies_scanned -= b.strategies_scanned;
    a.parallel_batches -= b.parallel_batches;
    a.simd_batches -= b.simd_batches;
    a.simd_lanes -= b.simd_lanes;
    a.simd_avx2_batches -= b.simd_avx2_batches;
    a.ledger = a.ledger - b.ledger;
    return a;
  }
};

/// Per-iteration snapshot of a game-theoretic solver; one row of Figure 12.
struct IterationStats {
  int iteration = 0;
  /// P_dif of the current joint strategy.
  double payoff_difference = 0.0;
  /// Mean worker payoff of the current joint strategy.
  double average_payoff = 0.0;
  /// Exact potential Φ (FGT only; 0 for IEGT).
  double potential = 0.0;
  /// Number of workers that changed strategy in this iteration.
  size_t num_changes = 0;
  /// Engine work done during this iteration (delta, not cumulative).
  BestResponseCounters engine;
};

/// Outcome of a game-theoretic solver run.
struct GameResult {
  Assignment assignment;
  /// Iterations actually executed (the paper's T factor).
  int rounds = 0;
  /// True if the termination condition (equilibrium) was reached before the
  /// round cap.
  bool converged = false;
  /// True if the run was cut short by the early-termination rule (the
  /// paper's future-work efficiency extension) rather than by reaching an
  /// equilibrium.
  bool early_stopped = false;
  /// Per-iteration statistics; filled only when the config asks for it.
  std::vector<IterationStats> trace;
  /// Total engine work across the whole run (always filled).
  BestResponseCounters engine;
};

/// Early-termination rule shared by FGT and IEGT (the paper's future-work
/// item "improve the game-theoretic algorithm's efficiency by enabling
/// early termination of iterations"): stop once the payoff difference has
/// failed to improve by more than `tolerance` for `patience` consecutive
/// rounds. patience == 0 disables the rule.
struct EarlyStopRule {
  double tolerance = 1e-3;
  int patience = 0;
};

/// Stateful evaluator of an EarlyStopRule over a run's P_dif sequence.
class EarlyStopMonitor {
 public:
  explicit EarlyStopMonitor(const EarlyStopRule& rule) : rule_(rule) {}

  /// Feeds the current round's payoff difference; returns true when the
  /// rule says to stop.
  bool ShouldStop(double payoff_difference) {
    if (rule_.patience <= 0) return false;
    if (payoff_difference < best_ - rule_.tolerance) {
      best_ = payoff_difference;
      stale_rounds_ = 0;
      return false;
    }
    ++stale_rounds_;
    return stale_rounds_ >= rule_.patience;
  }

 private:
  EarlyStopRule rule_;
  double best_ = 1e300;
  int stale_rounds_ = 0;
};

}  // namespace fta

#endif  // FTA_GAME_TRACE_H_

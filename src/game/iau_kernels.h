#ifndef FTA_GAME_IAU_KERNELS_H_
#define FTA_GAME_IAU_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "game/iau.h"

namespace fta {

/// Batched rank computation over an ascending sequence:
/// out_counts[j] = |{ i : values[i] < owns[j] }| — exactly the index
/// std::lower_bound(values, values + n, owns[j]) returns, one lower_bound
/// per own. Counts are exact integers: ties are excluded by `<`,
/// -0.0 < +0.0 is false, and NaN compares false.
void CountLessBatch(const double* values, size_t n, const double* owns,
                    size_t count, uint32_t* out_counts);

/// CountLessBatch for owns that are NON-INCREASING (the engine's gathered
/// candidate payoffs stream from the catalog's payoff-descending strategy
/// order, so its batches always are): the ranks of ascending owns form a
/// monotone staircase, so ONE merge pointer over `values` serves the whole
/// batch — O(n + count) total instead of count * log n lower_bounds. Each
/// count is still the exact lower_bound index (the advance stops at the
/// first value with !(value < own)). Callers must guarantee monotonicity;
/// SortedIauBatchArgmax verifies it in O(count) and falls back to
/// CountLessBatch otherwise.
void CountLessBatchSortedDesc(const double* values, size_t n,
                              const double* owns, size_t count,
                              uint32_t* out_counts);

/// Batched SortedIau + reduce: scores every own with
/// SortedIau(values, n, prefix, owns[j], params) bit for bit — the ranks
/// come from the rank kernels above and each lane then runs the identical
/// (prefix[n] - prefix[k]) - above*own arithmetic the single kernel runs,
/// with alpha/m and beta/m hoisted as the single kernel hoists them — and
/// returns the EARLIEST position attaining the maximal utility, writing
/// that utility to *best_utility. This is exactly the result of folding
/// the lanes in ascending position through the engine's Better() order
/// (utility desc, position asc): the max is a total order, associative and
/// commutative, and each lane's utility is SortedIau's. This is
/// BestResponseEngine's candidate-scan kernel: one call per gathered
/// availability batch instead of one lower_bound per candidate. Requires
/// count >= 1. No allocations (fixed-size internal chunking).
size_t SortedIauBatchArgmax(const double* values, size_t n,
                            const double* prefix, const IauParams& params,
                            const double* owns, size_t count,
                            double* best_utility);

/// Payoff band of the engine's monotone early exit: δ >= 0 such that every
/// finite payoff x < reference - δ computes SortedIau(x) strictly below
/// SortedIau(reference) (the batch kernels share its expression tree), for
/// an exclude-one view whose `prefix` is the canonical BlockedPrefixSum of
/// ascending `values`, as PayoffLedger::Exclude and OthersView build it.
/// Proof at the definition. +inf when no band exists: the slope bound
/// min(1 + alpha, 1 - beta) is not positive after rounding (beta >= 1) or
/// an input is not finite. δ = 0 is NOT safe: the computed utility is not
/// monotone at ulp scale.
double SortedIauMonotoneBand(const double* values, size_t n,
                             const double* prefix, const IauParams& params,
                             double reference);

namespace iau_internal {

/// True when owns[0] >= owns[1] >= ... (the catalog's payoff-descending
/// strategy order): unlocks the O(n + count) merge rank kernels. Any NaN
/// fails the chain, routing the batch to the generic per-own kernel.
inline bool IsNonIncreasing(const double* owns, size_t count) {
  for (size_t j = 1; j < count; ++j) {
    if (!(owns[j] <= owns[j - 1])) return false;
  }
  return true;
}

}  // namespace iau_internal
}  // namespace fta

#endif  // FTA_GAME_IAU_KERNELS_H_

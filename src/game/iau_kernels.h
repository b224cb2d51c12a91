#ifndef FTA_GAME_IAU_KERNELS_H_
#define FTA_GAME_IAU_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "game/iau.h"

namespace fta {

/// Batched rank computation over an ascending sequence:
/// out_counts[j] = |{ i : values[i] < owns[j] }| — exactly the index
/// std::lower_bound(values, values + n, owns[j]) returns. Counts are exact
/// integers (ties are excluded by `<` on both paths, -0.0 < +0.0 is false on
/// both paths, NaN compares false on both paths), so the scalar
/// (lower_bound) and AVX2 (compare + mask-popcount) implementations agree
/// by construction; the dispatch choice can never change a result.
void CountLessBatch(const double* values, size_t n, const double* owns,
                    size_t count, uint32_t* out_counts);

/// CountLessBatch for owns that are NON-INCREASING (the engine's gathered
/// candidate payoffs stream from the catalog's payoff-descending strategy
/// order, so its batches always are): the ranks of ascending owns form a
/// monotone staircase, so ONE merge pointer over `values` serves the whole
/// batch — O(n + count) total instead of count * log n lower_bounds. Each
/// count is still the exact lower_bound index (the advance stops at the
/// first value with !(value < own), the same `<` on every path), so the
/// scalar walk and the AVX2 variant (advance four lanes per
/// compare + movemask, popcount of the all-true prefix) agree by
/// construction. Callers must guarantee monotonicity; SortedIauBatch
/// verifies it in O(count) and falls back to CountLessBatch otherwise.
void CountLessBatchSortedDesc(const double* values, size_t n,
                              const double* owns, size_t count,
                              uint32_t* out_counts);

/// Batched SortedIau: out[j] = SortedIau(values, n, prefix, owns[j], params)
/// bit for bit — the ranks come from CountLessBatch and each lane then runs
/// the identical (prefix[n] - prefix[k]) - above*own arithmetic the scalar
/// kernel runs, with alpha/m and beta/m hoisted as the single kernel hoists
/// them. This is BestResponseEngine's candidate-scan kernel: one call per
/// gathered availability batch instead of one virtual-free-but-branchy
/// lower_bound per candidate. No allocations (fixed-size internal chunking).
void SortedIauBatch(const double* values, size_t n, const double* prefix,
                    const IauParams& params, const double* owns, size_t count,
                    double* out);

/// Fused batch + reduce: computes the SortedIauBatch utilities of `owns`
/// (bit for bit — same ranks, same per-lane expression trees) and returns
/// the EARLIEST position attaining the maximal utility, writing that
/// utility to *best_utility. This is exactly the result of folding the
/// lanes in ascending position through the engine's Better() order
/// (utility desc, position asc), so the fused kernel can replace
/// utils-array + fold without moving a single bit: the max is a total
/// order, associative and commutative, and each lane's utility is
/// identical on every path. The AVX2 variant runs four lanes per step —
/// rank gathers, the utility arithmetic, and a masked earliest-max blend —
/// with per-lane trees unchanged (vector lanes are independent scalars;
/// the kernel TUs compile with -ffp-contract=off so no FMA contraction can
/// reassociate them). Requires count >= 1. No allocations.
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
/// fails the chain, routing the batch to the generic per-own kernels.
inline bool IsNonIncreasing(const double* owns, size_t count) {
  for (size_t j = 1; j < count; ++j) {
    if (!(owns[j] <= owns[j - 1])) return false;
  }
  return true;
}

/// Scalar reference path: one std::lower_bound per own.
void CountLessBatchScalar(const double* values, size_t n, const double* owns,
                          size_t count, uint32_t* out_counts);

/// Scalar merge path for non-increasing owns: walks owns in reverse
/// (ascending) advancing one shared pointer.
void CountLessBatchSortedDescScalar(const double* values, size_t n,
                                    const double* owns, size_t count,
                                    uint32_t* out_counts);

#ifdef FTA_SIMD_AVX2
/// AVX2 path, compiled only in the sanctioned -mavx2 TU
/// (iau_kernels_avx2.cc): 4 own lanes stream the value array once with
/// _CMP_LT_OQ compares accumulated as 64-bit mask subtractions.
void CountLessBatchAvx2(const double* values, size_t n, const double* owns,
                        size_t count, uint32_t* out_counts);

/// AVX2 merge path for non-increasing owns: the shared pointer advances
/// four values per _CMP_LT_OQ compare + movemask, stepping by the
/// popcount of the mask's all-true prefix.
void CountLessBatchSortedDescAvx2(const double* values, size_t n,
                                  const double* owns, size_t count,
                                  uint32_t* out_counts);

/// AVX2 fused argmax over one rank chunk: four utility lanes per step
/// (prefix gathers + the scalar-identical expression tree) with a masked
/// earliest-max blend; positions are chunk-relative. Requires c >= 1.
size_t SortedIauChunkArgmaxAvx2(const double* prefix, double total,
                                double m, double alpha_m, double beta_m,
                                const double* owns, const uint32_t* counts,
                                size_t c, double* best_utility);
#endif

}  // namespace iau_internal
}  // namespace fta

#endif  // FTA_GAME_IAU_KERNELS_H_

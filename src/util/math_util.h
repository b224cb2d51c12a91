#ifndef FTA_UTIL_MATH_UTIL_H_
#define FTA_UTIL_MATH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace fta {

/// Sentinel for "unreachable / infeasible" travel and arrival times.
inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Tolerance used for payoff / utility comparisons throughout the library.
inline constexpr double kEps = 1e-9;

/// a ~ b under the library-wide tolerance.
inline bool ApproxEq(double a, double b, double eps = kEps) {
  return std::fabs(a - b) <= eps * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// a is strictly greater than b beyond tolerance.
inline bool DefinitelyGreater(double a, double b, double eps = kEps) {
  return a > b + eps * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Arithmetic mean; 0 for an empty range.
double Mean(const std::vector<double>& v);

/// Population standard deviation; 0 for fewer than 2 elements.
double StdDev(const std::vector<double>& v);

/// Smallest / largest element; +/-infinity for empty input.
double Min(const std::vector<double>& v);
double Max(const std::vector<double>& v);

/// Mean absolute pairwise difference: sum_{i != j} |v_i - v_j| / (n(n-1)).
/// This is exactly the paper's P_dif (Equation 2) applied to payoffs.
/// Computed in O(n log n) via sorting. Returns 0 for n < 2.
double MeanAbsolutePairwiseDifference(const std::vector<double>& v);

/// Sorted-input variant: `sorted` must already be ascending. Performs
/// exactly the canonical blocked accumulation (PairwiseDiffTotalSorted) the
/// sorting variant performs after its sort, so on the same multiset the
/// result is bit-identical — this is what lets the game solvers serve
/// per-round P_dif from the incrementally sorted payoff ledger without
/// re-sorting (DESIGN.md §9, §11).
double MeanAbsolutePairwiseDifferenceSorted(const std::vector<double>& sorted);

/// Blocked-canonical prefix sums: writes prefix[0] = 0 and prefix[i + 1] =
/// sum of values[0..i] under the library's canonical accumulation order —
/// full blocks of 4 fold as
///
///   prefix[i+1] = carry + a            ab = a + b
///   prefix[i+2] = carry + ab           bc = b + c
///   prefix[i+3] = carry + (bc + a)     cd = c + d
///   prefix[i+4] = carry + (cd + ab)    carry' = prefix[i+4]
///
/// and the (n mod 4) tail continues serially; for n < 4 it is the plain
/// serial left-to-right pass. Every exclude-one view (OthersView,
/// PayoffLedger::Exclude) and the potential build their prefix sums here,
/// so their IAU values agree bit for bit, and SortedIauMonotoneBand's error
/// proof bounds this tree's depth (DESIGN.md §11). `prefix` must have
/// n + 1 slots.
void BlockedPrefixSum(const double* values, size_t n, double* prefix);

/// Σ_{i<j} (values[j] - values[i]) over an ascending sequence — the raw
/// total MeanAbsolutePairwiseDifferenceSorted scales into P_dif — under the
/// canonical order: four block-striped lane accumulators fed by the same
/// blocked exclusive prefixes as BlockedPrefixSum, folded as
/// (acc0 + acc1) + (acc2 + acc3), then the serial tail.
double PairwiseDiffTotalSorted(const double* values, size_t n);

/// Gini coefficient of a non-negative vector (auxiliary fairness metric).
/// Returns 0 for n < 2 or an all-zero vector.
double Gini(const std::vector<double>& v);

/// Sorted-input variant of Gini. The mean accumulates over the ascending
/// sequence, so relative to Gini() on an unsorted vector the result can
/// differ in the last ulp; it is bit-identical when the input was already
/// ascending.
double GiniSorted(const std::vector<double>& sorted);

/// Jain's fairness index: (Σx)² / (n · Σx²), in (0, 1]; 1 means perfectly
/// equal, 1/n means one participant takes everything. Returns 1 for empty
/// or all-zero input (vacuously fair).
double JainFairnessIndex(const std::vector<double>& v);

/// min(v) / max(v) for non-negative input; 1 for empty input, 0 when the
/// maximum is 0.
double MinMaxRatio(const std::vector<double>& v);

}  // namespace fta

#endif  // FTA_UTIL_MATH_UTIL_H_

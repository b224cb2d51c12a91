#ifndef FTA_TESTS_SUPPORT_HUNGARIAN_H_
#define FTA_TESTS_SUPPORT_HUNGARIAN_H_

#include <cstdint>
#include <vector>

#include "model/assignment.h"
#include "model/instance.h"
#include "vdps/catalog.h"

namespace fta {

/// Result of a rectangular assignment problem.
struct MatchingResult {
  /// match[row] = chosen column, or -1 if the row is unmatched.
  std::vector<int32_t> match;
  /// Total weight of the matching.
  double weight = 0.0;
};

/// Maximum-weight bipartite matching (Kuhn-Munkres / Hungarian algorithm,
/// O(n^2 m) shortest-augmenting-path formulation) on a dense weight
/// matrix: weights[r][c] >= 0 is the gain of matching row r to column c;
/// entries < 0 mark forbidden pairs. Rows may stay unmatched when every
/// compatible column is taken or forbidden (matching more never helps
/// since weights are non-negative, but unmatched rows are allowed).
MatchingResult MaxWeightBipartiteMatching(
    const std::vector<std::vector<double>>& weights);

/// Exact maximal-total-payoff assignment for the singleton special case of
/// FTA: when every worker takes at most ONE delivery point (maxDP = 1, or
/// by simply restricting attention to singleton VDPSs), the conflict
/// structure is a bipartite worker/delivery-point matching, which the
/// Hungarian algorithm solves optimally in polynomial time — unlike the
/// general NP-hard FTA. A useful exact reference for MPTA and the games on
/// maxDP = 1 instances.
Assignment SolveSingletonOptimal(const Instance& instance,
                                 const VdpsCatalog& catalog);

}  // namespace fta

#endif  // FTA_TESTS_SUPPORT_HUNGARIAN_H_

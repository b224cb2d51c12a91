#include "game/potential.h"

#include <numeric>

#include "util/math_util.h"

namespace fta {

double ExactPotential(const std::vector<double>& payoffs, double alpha) {
  // The generic entry point for unsorted input; sorted-view holders (the
  // payoff ledger, the priority snapshots) call the P_dif overload below.
  // This *is* the sanctioned copy-and-sort fallback, hence the escape:
  // NOLINTNEXTLINE(fta-det)
  const double p_dif = MeanAbsolutePairwiseDifference(payoffs);
  return ExactPotential(payoffs, alpha, p_dif);
}

double ExactPotential(const std::vector<double>& payoffs, double alpha,
                      double payoff_difference) {
  const double total =
      std::accumulate(payoffs.begin(), payoffs.end(), 0.0);
  const size_t n = payoffs.size();
  if (n < 2) return total;
  // Σ_{k<l} |P_k − P_l| = P_dif · n(n−1)/2.
  const double pairwise_sum = payoff_difference * static_cast<double>(n) *
                              static_cast<double>(n - 1) / 2.0;
  return total - alpha / static_cast<double>(n - 1) * pairwise_sum;
}

}  // namespace fta

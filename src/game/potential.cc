#include "game/potential.h"

#include <algorithm>
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

double PaperPotential(const std::vector<double>& payoffs,
                      const IauParams& params) {
  const size_t n = payoffs.size();
  if (n == 0) return 0.0;
  if (n == 1) return payoffs[0];
  // One sort + one canonical prefix pass instead of the legacy per-worker
  // O(n) others-vector rebuild (n² total): worker i's own slot in the full
  // sorted array contributes |own − own| = 0 to both envy sums, so the
  // rank arithmetic over all n values equals the exclude-one Mp/Lp with
  // the divisor m = n − 1 written out explicitly.
  std::vector<double> sorted = payoffs;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> prefix(n + 1, 0.0);
  BlockedPrefixSum(sorted.data(), n, prefix.data());
  const double total = prefix[n];
  const double m = static_cast<double>(n - 1);
  const double alpha_m = params.alpha / m;
  const double beta_m = params.beta / m;
  double phi = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double own = payoffs[i];
    const size_t k = static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), own) -
        sorted.begin());
    const double above = static_cast<double>(n - k);
    const double mp = (total - prefix[k]) - above * own;
    const double lp = static_cast<double>(k) * own - prefix[k];
    phi += own - alpha_m * mp - beta_m * lp;
  }
  return phi;
}

}  // namespace fta

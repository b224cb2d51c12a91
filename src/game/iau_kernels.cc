#include "game/iau_kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fta {

void CountLessBatch(const double* values, size_t n, const double* owns,
                    size_t count, uint32_t* out_counts) {
  for (size_t j = 0; j < count; ++j) {
    const double* it = std::lower_bound(values, values + n, owns[j]);
    out_counts[j] = static_cast<uint32_t>(it - values);
  }
}

void CountLessBatchSortedDesc(const double* values, size_t n,
                              const double* owns, size_t count,
                              uint32_t* out_counts) {
  // Owns descending => walking them in reverse is ascending, and each
  // own's rank continues where the previous one stopped: the advance halts
  // at the first !(value < own), which is exactly the lower_bound index.
  size_t p = 0;
  for (size_t j = count; j-- > 0;) {
    const double own = owns[j];
    while (p < n && values[p] < own) ++p;
    out_counts[j] = static_cast<uint32_t>(p);
  }
}

size_t SortedIauBatchArgmax(const double* values, size_t n,
                            const double* prefix, const IauParams& params,
                            const double* owns, size_t count,
                            double* best_utility) {
  if (n == 0) {
    // Each utility is its own payoff exactly; earliest strict maximum.
    size_t best = 0;
    for (size_t j = 1; j < count; ++j) {
      if (owns[j] > owns[best]) best = j;
    }
    *best_utility = owns[best];
    return best;
  }
  // The engine's batches arrive in the catalog's payoff-descending order,
  // which unlocks the O(n + count) merge ranks; a NaN anywhere fails the
  // `<=` chain and falls back to the per-own kernel (both produce the
  // identical exact counts — this is purely a cost choice).
  const bool descending = iau_internal::IsNonIncreasing(owns, count);
  const double m = static_cast<double>(n);
  const double alpha_m = params.alpha / m;
  const double beta_m = params.beta / m;
  const double total = prefix[n];
  // Fixed-size rank scratch keeps the batch allocation-free at any count.
  constexpr size_t kChunk = 128;
  uint32_t counts[kChunk];
  double best_u = 0.0;
  size_t best_pos = 0;
  for (size_t base = 0; base < count; base += kChunk) {
    const size_t c = std::min(kChunk, count - base);
    if (descending) {
      CountLessBatchSortedDesc(values, n, owns + base, c, counts);
    } else {
      CountLessBatch(values, n, owns + base, c, counts);
    }
    for (size_t j = 0; j < c; ++j) {
      // The exact expression tree of SortedMp/SortedLp/SortedIau
      // (game/iau.cc), per lane — same ranks, same arithmetic, same bits.
      const double own = owns[base + j];
      const size_t k = counts[j];
      const double above = static_cast<double>(n - k);
      const double mp = (total - prefix[k]) - above * own;
      const double lp = static_cast<double>(k) * own - prefix[k];
      const double u = own - alpha_m * mp - beta_m * lp;
      // Strictly greater only: equal utilities keep the earlier position,
      // the sequential fold's winner.
      if ((base == 0 && j == 0) || u > best_u) {
        best_u = u;
        best_pos = base + j;
      }
    }
  }
  *best_utility = best_u;
  return best_pos;
}

// Proof of the band. u = 2^-53 is the unit roundoff, eps = 2u, and
// gamma_k = k*u / (1 - k*u) <= k*eps while k*u <= 1/2. For own payoff x
// with exact rank k = #{v_i < x} (both rank kernels return it), the kernel
// computes U(x) = (x - a*mp) - b*lp with mp = (T - P[k]) - (n - k)*x,
// lp = k*x - P[k], T = P[n], a = fl(alpha/n), b = fl(beta/n), P the
// stored prefix sums.
//
// 1. Slope. With exact prefix sums P* the same formula is
//    F(x) = x - a*sum max(v_i - x, 0) - b*sum max(x - v_i, 0): continuous,
//    piecewise linear, slope 1 + a*(n - k) - b*k on rank segment k. Its
//    minimum over k in [0, n] is s = min(1 + a*n, 1 - b*n), and
//    a*n = alpha*(1 + t), |t| <= u (likewise b), so
//    s >= min(fl(1 + alpha), fl(1 - beta)) - 2u*(1 + |alpha| + |beta|).
//    For x2 > x1: F(x2) - F(x1) >= s*(x2 - x1).
// 2. Stored prefix sums. With e_k = P[k] - P*[k], the kernel's exact value
//    on P is F(x) - a*e_n + (a + b)*e_k: the jumps at every rank boundary
//    crossed between x1 and x2 telescope to (a + b)*(e_k2 - e_k1), at most
//    A*(|e_k1| + |e_k2|) with A = |a| + |b|. BlockedPrefixSum is a
//    summation tree of depth <= k + 2, so |e_k| <= gamma_(n+2)*n*V with
//    V = max(|v_0|, |v_(n-1)|) (values ascending), and every |P[k]| is at
//    most Pmax = n*V*(1 + gamma_(n+2)).
// 3. Rounding of the tree. Each leaf passes at most five roundings (T and
//    P[k] in mp: -, -, *a, -, -; (n-k)*x: *, -, *a, -, -; the rest fewer;
//    integer-to-double conversions are exact), so
//    |fl(U(x)) - exact| <= gamma_5*M(x),
//    M(x) <= |x|*(1 + L) + 2*A*Pmax with L = A*n. Underflow in the four
//    products adds at most four half-denormals, below eta = DBL_MIN.
// 4. Combine, for the reference r and x = r - d, d > 0, |x| <= |r| + d:
//    fl(U(r)) - fl(U(x)) >= s*d - 2*A*gamma_(n+2)*n*V
//                           - gamma_5*((2|r| + d)*(1 + L) + 4*A*Pmax) - eta
//                         = d*(s - g) - (2*g*|r| + C),
//    g = gamma_5*(1 + L), C = A*(2*gamma_(n+2)*n*V + 4*gamma_5*Pmax) + eta.
//    So d > (2*g*|r| + C) / (s - g) forces a strict decrease whenever
//    s - g > 0. The code over-estimates gamma_5 by 3*eps and
//    gamma_(n+2) by (n + 4)*eps, widens step 1's margin to 4*eps, and
//    doubles the quotient; the doubling absorbs the rounding of this
//    evaluation and of the caller's reference - δ (the quotient is at
//    least 10u*|r|).
double SortedIauMonotoneBand(const double* values, size_t n,
                             const double* prefix, const IauParams& params,
                             double reference) {
  constexpr double kNoBand = std::numeric_limits<double>::infinity();
  constexpr double kEpsilon = std::numeric_limits<double>::epsilon();
  const double alpha = params.alpha;
  const double beta = params.beta;
  if (!std::isfinite(alpha) || !std::isfinite(beta) ||
      !std::isfinite(reference)) {
    return kNoBand;
  }
  if (n == 0) return 0.0;  // SortedIau(x) == x exactly
  const double v = std::max(std::fabs(values[0]), std::fabs(values[n - 1]));
  if (!std::isfinite(v) || !std::isfinite(prefix[n])) return kNoBand;
  const double m = static_cast<double>(n);
  const double coeff = std::fabs(alpha / m) + std::fabs(beta / m);
  const double slope =
      std::min(1.0 + alpha, 1.0 - beta) -
      4.0 * kEpsilon * (1.0 + std::fabs(alpha) + std::fabs(beta));
  const double gamma5 = 3.0 * kEpsilon;
  const double gamma_sum = (m + 4.0) * kEpsilon;
  const double g = gamma5 * (1.0 + coeff * m);
  const double pmax = m * v * (1.0 + gamma_sum);
  const double c = coeff * (2.0 * gamma_sum * m * v + 4.0 * gamma5 * pmax) +
                   std::numeric_limits<double>::min();
  const double gap = slope - g;
  if (!(gap > 0.0)) return kNoBand;
  const double band = 2.0 * ((2.0 * g * std::fabs(reference) + c) / gap);
  return std::isfinite(band) ? band : kNoBand;
}

}  // namespace fta

#include "game/iau.h"

#include <algorithm>

#include "util/math_util.h"

namespace fta {

double Iau(double own, const std::vector<double>& others,
           const IauParams& params) {
  if (others.empty()) return own;
  double mp = 0.0;
  double lp = 0.0;
  for (double p : others) {
    if (p > own) mp += p - own;
    if (p < own) lp += own - p;
  }
  const double m = static_cast<double>(others.size());
  return own - (params.alpha / m) * mp - (params.beta / m) * lp;
}

double SortedMp(const double* values, size_t n, const double* prefix,
                double own) {
  // Elements strictly above `own` (ties contribute 0 either way).
  const double* it = std::lower_bound(values, values + n, own);
  const size_t k = static_cast<size_t>(it - values);
  const size_t above = n - k;
  return (prefix[n] - prefix[k]) - static_cast<double>(above) * own;
}

double SortedLp(const double* values, size_t n, const double* prefix,
                double own) {
  const double* it = std::lower_bound(values, values + n, own);
  const size_t k = static_cast<size_t>(it - values);
  return static_cast<double>(k) * own - prefix[k];
}

double SortedIau(const double* values, size_t n, const double* prefix,
                 double own, const IauParams& params) {
  if (n == 0) return own;
  const double m = static_cast<double>(n);
  return own - (params.alpha / m) * SortedMp(values, n, prefix, own) -
         (params.beta / m) * SortedLp(values, n, prefix, own);
}

OthersView::OthersView(std::vector<double> others)
    : sorted_(std::move(others)) {
  std::sort(sorted_.begin(), sorted_.end());
  prefix_.resize(sorted_.size() + 1, 0.0);
  // Canonical blocked accumulation (util/math_util.h) — the same order
  // PayoffLedger::Exclude uses, so ledger and rebuild views stay
  // bit-identical.
  BlockedPrefixSum(sorted_.data(), sorted_.size(), prefix_.data());
}

double OthersView::Mp(double own) const {
  return SortedMp(sorted_.data(), sorted_.size(), prefix_.data(), own);
}

double OthersView::Lp(double own) const {
  return SortedLp(sorted_.data(), sorted_.size(), prefix_.data(), own);
}

double OthersView::Iau(double own, const IauParams& params) const {
  return SortedIau(sorted_.data(), sorted_.size(), prefix_.data(), own,
                   params);
}

}  // namespace fta

#include "util/math_util.h"

#include <algorithm>
#include <numeric>

namespace fta {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(v.size()));
}

double Min(const std::vector<double>& v) {
  if (v.empty()) return kInfinity;
  return *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  if (v.empty()) return -kInfinity;
  return *std::max_element(v.begin(), v.end());
}

double MeanAbsolutePairwiseDifference(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  return MeanAbsolutePairwiseDifferenceSorted(sorted);
}

double MeanAbsolutePairwiseDifferenceSorted(
    const std::vector<double>& sorted) {
  const size_t n = sorted.size();
  if (n < 2) return 0.0;
  // For sorted x: sum_{i<j} (x_j - x_i) = sum_j x_j * j - prefix_sum_j,
  // accumulated under the library's canonical blocked order.
  const double total = PairwiseDiffTotalSorted(sorted.data(), n);
  // Equation 2 sums over ordered pairs (i, j), i != j — i.e. each unordered
  // pair twice — and divides by n(n-1).
  return 2.0 * total / (static_cast<double>(n) * static_cast<double>(n - 1));
}

void BlockedPrefixSum(const double* values, size_t n, double* prefix) {
  prefix[0] = 0.0;
  double carry = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double a = values[i];
    const double b = values[i + 1];
    const double c = values[i + 2];
    const double d = values[i + 3];
    const double ab = a + b;
    const double bc = b + c;
    const double cd = c + d;
    prefix[i + 1] = carry + a;
    prefix[i + 2] = carry + ab;
    prefix[i + 3] = carry + (bc + a);
    prefix[i + 4] = carry + (cd + ab);
    carry = prefix[i + 4];
  }
  for (; i < n; ++i) {
    carry = carry + values[i];
    prefix[i + 1] = carry;
  }
}

double PairwiseDiffTotalSorted(const double* values, size_t n) {
  double acc0 = 0.0;
  double acc1 = 0.0;
  double acc2 = 0.0;
  double acc3 = 0.0;
  double carry = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double a = values[i];
    const double b = values[i + 1];
    const double c = values[i + 2];
    const double d = values[i + 3];
    const double ab = a + b;
    const double bc = b + c;
    const double cd = c + d;
    // Exclusive blocked prefixes. Lane 0's carry + 0.0 is part of the
    // canonical expression tree every recorded P_dif and digest was
    // computed under (DESIGN.md §11); keep it as written.
    const double p0 = carry + 0.0;
    const double p1 = carry + a;
    const double p2 = carry + ab;
    const double p3 = carry + (bc + a);
    acc0 = acc0 + (a * static_cast<double>(i) - p0);
    acc1 = acc1 + (b * static_cast<double>(i + 1) - p1);
    acc2 = acc2 + (c * static_cast<double>(i + 2) - p2);
    acc3 = acc3 + (d * static_cast<double>(i + 3) - p3);
    carry = carry + (cd + ab);
  }
  double total = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) {
    total = total + (values[i] * static_cast<double>(i) - carry);
    carry = carry + values[i];
  }
  return total;
}

double Gini(const std::vector<double>& v) {
  const size_t n = v.size();
  if (n < 2) return 0.0;
  const double m = Mean(v);
  if (m <= 0.0) return 0.0;
  return MeanAbsolutePairwiseDifference(v) / (2.0 * m);
}

double GiniSorted(const std::vector<double>& sorted) {
  const size_t n = sorted.size();
  if (n < 2) return 0.0;
  const double m = Mean(sorted);
  if (m <= 0.0) return 0.0;
  return MeanAbsolutePairwiseDifferenceSorted(sorted) / (2.0 * m);
}

double JainFairnessIndex(const std::vector<double>& v) {
  if (v.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : v) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(v.size()) * sum_sq);
}

double MinMaxRatio(const std::vector<double>& v) {
  if (v.empty()) return 1.0;
  const double hi = Max(v);
  if (hi <= 0.0) return 0.0;
  return Min(v) / hi;
}

}  // namespace fta

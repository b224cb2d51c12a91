#include "support/hungarian.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace fta {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

MatchingResult MaxWeightBipartiteMatching(
    const std::vector<std::vector<double>>& weights) {
  MatchingResult result;
  const size_t rows = weights.size();
  if (rows == 0) return result;
  const size_t cols = weights[0].size();
  for (const auto& row : weights) {
    FTA_CHECK_MSG(row.size() == cols, "ragged weight matrix");
  }

  // Min-cost rectangular assignment with R dummy columns so every row can
  // stay "unmatched" at cost 0; real pairs cost -w (so min-cost == max
  // weight); forbidden pairs cost a finite big-M that no optimal solution
  // touches while keeping the potentials numerically tame.
  double max_w = 0.0;
  for (const auto& row : weights) {
    for (double w : row) max_w = std::max(max_w, w);
  }
  const double kForbidden = (max_w + 1.0) * 1e6;
  const size_t m = cols + rows;  // total columns incl. dummies

  const auto cost = [&](size_t r, size_t c) -> double {
    if (c >= cols) return c - cols == r ? 0.0 : kForbidden;  // own dummy
    const double w = weights[r][c];
    return w < 0.0 ? kForbidden : -w;
  };

  // Hungarian algorithm, shortest-augmenting-path formulation with
  // potentials (1-indexed internals).
  std::vector<double> u(rows + 1, 0.0), v(m + 1, 0.0);
  std::vector<size_t> p(m + 1, 0), way(m + 1, 0);
  for (size_t i = 1; i <= rows; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::vector<double> minv(m + 1, kInf);
    std::vector<bool> used(m + 1, false);
    do {
      used[j0] = true;
      const size_t i0 = p[j0];
      double delta = kInf;
      size_t j1 = 0;
      for (size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  result.match.assign(rows, -1);
  for (size_t j = 1; j <= cols; ++j) {
    if (p[j] == 0) continue;
    const size_t r = p[j] - 1;
    const double w = weights[r][j - 1];
    if (w >= 0.0) {
      result.match[r] = static_cast<int32_t>(j - 1);
      result.weight += w;
    }
  }
  return result;
}

Assignment SolveSingletonOptimal(const Instance& instance,
                                 const VdpsCatalog& catalog) {
  const size_t rows = instance.num_workers();
  const size_t cols = instance.num_delivery_points();
  std::vector<std::vector<double>> weights(rows,
                                           std::vector<double>(cols, -1.0));
  for (size_t w = 0; w < rows; ++w) {
    for (const WorkerStrategy& st : catalog.strategies(w)) {
      const auto& dps = catalog.entry(st.entry_id).dps;
      if (dps.size() != 1) continue;
      weights[w][dps[0]] = std::max(weights[w][dps[0]], st.payoff);
    }
  }
  const MatchingResult matching = MaxWeightBipartiteMatching(weights);
  Assignment assignment(rows);
  for (size_t w = 0; w < rows; ++w) {
    if (matching.match[w] >= 0) {
      assignment.SetRoute(w, {static_cast<uint32_t>(matching.match[w])});
    }
  }
  return assignment;
}

}  // namespace fta

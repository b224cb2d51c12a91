#include "support/mwis_brute_force.h"

#include "util/logging.h"

namespace fta {

MwisResult MwisBruteForce(const Graph& graph,
                          const std::vector<double>& weights) {
  const size_t n = graph.num_vertices();
  FTA_CHECK_MSG(n <= 30, "brute force MWIS limited to 30 vertices");
  std::vector<uint32_t> adj_mask(n, 0);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v : graph.Neighbors(u)) adj_mask[u] |= (1u << v);
  }
  MwisResult best;
  for (uint32_t s = 0; s < (1u << n); ++s) {
    double w = 0.0;
    bool ok = true;
    for (uint32_t u = 0; u < n && ok; ++u) {
      if ((s & (1u << u)) == 0) continue;
      if (adj_mask[u] & s) ok = false;
      w += weights[u];
    }
    if (ok && w > best.weight) {
      best.weight = w;
      best.selected.clear();
      for (uint32_t u = 0; u < n; ++u) {
        if (s & (1u << u)) best.selected.push_back(u);
      }
    }
  }
  return best;
}

}  // namespace fta

#ifndef FTA_TREEDEC_MWIS_H_
#define FTA_TREEDEC_MWIS_H_

#include <cstdint>
#include <vector>

#include "treedec/graph.h"
#include "treedec/tree_decomposition.h"
#include "util/status.h"

namespace fta {

/// A (max-weight) independent set.
struct MwisResult {
  /// Selected vertices, sorted ascending.
  std::vector<uint32_t> selected;
  /// Total weight of the selection.
  double weight = 0.0;
};

/// Exact max-weight independent set via dynamic programming over a tree
/// decomposition. Runs in O(2^(width+1)) per bag; refuses decompositions
/// wider than `max_width` (callers fall back to the greedy).
/// `weights` must have one non-negative entry per vertex.
StatusOr<MwisResult> MwisOverTreeDecomposition(
    const Graph& graph, const std::vector<double>& weights,
    const TreeDecomposition& td, int max_width = 20);

/// Weighted greedy independent set: repeatedly takes the heaviest
/// remaining vertex and discards its neighbors. The fallback used by MPTA
/// when the conflict graph's treewidth is too large.
MwisResult MwisGreedy(const Graph& graph, const std::vector<double>& weights);

}  // namespace fta

#endif  // FTA_TREEDEC_MWIS_H_

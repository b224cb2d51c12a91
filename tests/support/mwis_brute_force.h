#ifndef FTA_TESTS_SUPPORT_MWIS_BRUTE_FORCE_H_
#define FTA_TESTS_SUPPORT_MWIS_BRUTE_FORCE_H_

#include <vector>

#include "treedec/graph.h"
#include "treedec/mwis.h"

namespace fta {

/// Exact max-weight independent set by exhaustive search; requires
/// num_vertices <= 30. Ground truth for tests.
MwisResult MwisBruteForce(const Graph& graph,
                          const std::vector<double>& weights);

}  // namespace fta

#endif  // FTA_TESTS_SUPPORT_MWIS_BRUTE_FORCE_H_

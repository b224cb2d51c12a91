#ifndef FTA_BASELINE_BRANCH_AND_BOUND_H_
#define FTA_BASELINE_BRANCH_AND_BOUND_H_

#include <cstddef>

#include "model/assignment.h"
#include "model/instance.h"
#include "vdps/catalog.h"

namespace fta {

/// Outcome of the exact max-total-payoff search.
struct BnbResult {
  Assignment assignment;
  double total_payoff = 0.0;
  /// True if the search ran to completion (the result is then optimal over
  /// the catalog's strategy space).
  bool complete = false;
  size_t nodes_explored = 0;
};

/// Exact maximal-total-payoff task assignment by depth-first branch and
/// bound over the per-worker strategy space: workers are branched in
/// descending best-payoff order, and a node is pruned when its payoff so
/// far plus the sum of the remaining workers' individual best payoffs (a
/// valid upper bound — it ignores conflicts) cannot beat the incumbent.
///
/// Reaches far larger instances than enumerating every joint strategy
/// while computing the same max-total optimum; used as ground truth for
/// MPTA. `node_limit` caps the search (0 = unlimited);
/// when hit, the incumbent is returned with complete = false.
BnbResult SolveMaxTotalBnB(const Instance& instance,
                           const VdpsCatalog& catalog,
                           size_t node_limit = 0);

}  // namespace fta

#endif  // FTA_BASELINE_BRANCH_AND_BOUND_H_

#ifndef FTA_TESTS_SUPPORT_EQUILIBRIUM_H_
#define FTA_TESTS_SUPPORT_EQUILIBRIUM_H_

#include <cstdint>
#include <vector>

#include "game/best_response.h"
#include "game/iau.h"
#include "game/joint_state.h"
#include "model/assignment.h"
#include "model/instance.h"
#include "vdps/catalog.h"

namespace fta {

/// Per-worker equilibrium diagnostics of an assignment under the FTA game.
struct WorkerRegret {
  /// Current utility U_i (IAU) under the assignment.
  double utility = 0.0;
  /// Utility of the worker's best available unilateral deviation.
  double best_response_utility = 0.0;
  /// regret = best_response_utility − utility; ≈ 0 at a Nash equilibrium.
  double regret = 0.0;
};

/// Equilibrium analysis of one assignment.
struct EquilibriumReport {
  std::vector<WorkerRegret> regrets;
  /// max_i regret — 0 (up to tolerance) iff pure Nash equilibrium.
  double max_regret = 0.0;
  /// Number of workers with a strictly profitable deviation.
  size_t deviating_workers = 0;
  bool is_nash = false;
};

/// Rebuilds the joint state corresponding to `assignment` (routes must come
/// from the catalog's strategies) and measures every worker's best-response
/// regret under the IAU game. Diagnostic companion to SolveFgt: quantifies
/// *how far* a non-equilibrium assignment (e.g. GTA's) is from stability.
EquilibriumReport AnalyzeEquilibrium(
    const Instance& instance, const VdpsCatalog& catalog,
    const Assignment& assignment, const IauParams& params = IauParams(),
    const BestResponseConfig& engine_config = BestResponseConfig());

/// Enumerates every pure Nash equilibrium of the FTA game by exhaustive
/// search over conflict-free joint strategies. Exponential — tiny
/// instances only (tests, analysis). Stops after `max_states` joint
/// strategies; `complete` is false when capped.
struct NashEnumeration {
  std::vector<Assignment> equilibria;
  size_t states_explored = 0;
  bool complete = false;
};
NashEnumeration EnumeratePureNash(
    const Instance& instance, const VdpsCatalog& catalog,
    const IauParams& params = IauParams(), size_t max_states = 2'000'000,
    const BestResponseConfig& engine_config = BestResponseConfig());

}  // namespace fta

#endif  // FTA_TESTS_SUPPORT_EQUILIBRIUM_H_

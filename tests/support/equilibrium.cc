#include "support/equilibrium.h"

#include <algorithm>

#include "game/best_response.h"
#include "game/fgt.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace fta {
namespace {

/// Rebuilds a JointState from an assignment's routes by looking each route
/// up in the catalog. Aborts if a route is not a catalog strategy.
JointState StateFromAssignment(const Instance& instance,
                               const VdpsCatalog& catalog,
                               const Assignment& assignment) {
  JointState state(instance, catalog);
  for (size_t w = 0; w < assignment.num_workers(); ++w) {
    const Route& route = assignment.route(w);
    if (route.empty()) continue;
    int32_t idx = kNullStrategy;
    for (size_t i = 0; i < catalog.strategies(w).size(); ++i) {
      if (catalog.route(catalog.strategies(w)[i]) == route) {
        idx = static_cast<int32_t>(i);
        break;
      }
    }
    FTA_CHECK_MSG(idx != kNullStrategy,
                  "assignment route is not a catalog strategy");
    state.Apply(w, idx);
  }
  return state;
}

}  // namespace

EquilibriumReport AnalyzeEquilibrium(const Instance& instance,
                                     const VdpsCatalog& catalog,
                                     const Assignment& assignment,
                                     const IauParams& params,
                                     const BestResponseConfig& engine_config) {
  JointState state = StateFromAssignment(instance, catalog, assignment);
  BestResponseEngine engine(state, params, engine_config);
  EquilibriumReport report;
  report.regrets.resize(instance.num_workers());
  for (size_t w = 0; w < instance.num_workers(); ++w) {
    const BestResponseOutcome outcome = engine.Evaluate(w);
    WorkerRegret& regret = report.regrets[w];
    regret.utility = outcome.incumbent_utility;
    regret.best_response_utility = outcome.best_utility;
    regret.regret = regret.best_response_utility - regret.utility;
    report.max_regret = std::max(report.max_regret, regret.regret);
    if (DefinitelyGreater(regret.best_response_utility, regret.utility)) {
      ++report.deviating_workers;
    }
  }
  report.is_nash = report.deviating_workers == 0;
  return report;
}

namespace {

struct NashSearch {
  const Instance* instance;
  const VdpsCatalog* catalog;
  JointState state;
  BestResponseEngine engine;
  NashEnumeration result;
  size_t max_states;
  bool capped = false;

  NashSearch(const Instance& inst, const VdpsCatalog& cat,
             const IauParams& p, size_t cap,
             const BestResponseConfig& engine_config)
      : instance(&inst),
        catalog(&cat),
        state(inst, cat),
        engine(state, p, engine_config),
        max_states(cap) {}

  void Recurse(size_t w) {
    if (capped) return;
    if (w == instance->num_workers()) {
      ++result.states_explored;
      if (result.states_explored >= max_states) capped = true;
      if (engine.IsNash()) {
        result.equilibria.push_back(state.ToAssignment());
      }
      return;
    }
    Recurse(w + 1);  // null strategy
    const auto& strategies = catalog->strategies(w);
    for (size_t i = 0; i < strategies.size() && !capped; ++i) {
      const int32_t idx = static_cast<int32_t>(i);
      if (!state.IsAvailable(w, idx)) continue;
      engine.Apply(w, idx);
      Recurse(w + 1);
      engine.Apply(w, kNullStrategy);
    }
  }
};

}  // namespace

NashEnumeration EnumeratePureNash(const Instance& instance,
                                  const VdpsCatalog& catalog,
                                  const IauParams& params, size_t max_states,
                                  const BestResponseConfig& engine_config) {
  NashSearch search(instance, catalog, params, max_states, engine_config);
  search.Recurse(0);
  search.result.complete = !search.capped;
  return search.result;
}

}  // namespace fta

#include "support/exhaustive.h"

#include <vector>

#include "game/joint_state.h"
#include "util/math_util.h"

namespace fta {
namespace {

struct SearchState {
  const Instance* instance;
  const VdpsCatalog* catalog;
  JointState joint;
  ExhaustiveResult result;
  size_t max_states;
  bool capped = false;

  SearchState(const Instance& inst, const VdpsCatalog& cat, size_t cap)
      : instance(&inst), catalog(&cat), joint(inst, cat), max_states(cap) {}

  void Leaf() {
    ++result.states_explored;
    if (result.states_explored >= max_states) capped = true;
    const std::vector<double>& payoffs = joint.payoffs();
    const double pdif = MeanAbsolutePairwiseDifference(payoffs);
    const double avg = Mean(payoffs);
    double total = 0.0;
    for (double p : payoffs) total += p;
    const bool first = result.states_explored == 1;
    if (first || pdif < result.fairest_pdif - kEps ||
        (ApproxEq(pdif, result.fairest_pdif) &&
         avg > result.fairest_avg + kEps)) {
      result.fairest = joint.ToAssignment();
      result.fairest_pdif = pdif;
      result.fairest_avg = avg;
    }
    if (first || total > result.max_total_payoff + kEps) {
      result.max_total = joint.ToAssignment();
      result.max_total_payoff = total;
    }
  }

  void Recurse(size_t w) {
    if (capped) return;
    if (w == instance->num_workers()) {
      Leaf();
      return;
    }
    // Null strategy branch.
    Recurse(w + 1);
    const auto& strategies = catalog->strategies(w);
    for (size_t i = 0; i < strategies.size() && !capped; ++i) {
      const int32_t idx = static_cast<int32_t>(i);
      if (!joint.IsAvailable(w, idx)) continue;
      joint.Apply(w, idx);
      Recurse(w + 1);
      joint.Apply(w, kNullStrategy);
    }
  }
};

}  // namespace

ExhaustiveResult SolveExhaustive(const Instance& instance,
                                 const VdpsCatalog& catalog,
                                 size_t max_states) {
  SearchState search(instance, catalog, max_states);
  search.result.fairest = Assignment(instance.num_workers());
  search.result.max_total = Assignment(instance.num_workers());
  search.Recurse(0);
  search.result.complete = !search.capped;
  return search.result;
}

}  // namespace fta

#include "baseline/branch_and_bound.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "game/joint_state.h"
#include "util/math_util.h"

namespace fta {
namespace {

struct Search {
  const Instance* instance;
  const VdpsCatalog* catalog;
  JointState state;
  /// Worker ids in branching order (descending best payoff).
  std::vector<size_t> order;
  /// suffix_best[i] = sum over order[i..] of each worker's best payoff;
  /// the conflict-ignoring upper bound for the unassigned suffix.
  std::vector<double> suffix_best;

  double best_total = 0.0;
  std::vector<int32_t> best_choice;
  size_t nodes = 0;
  size_t node_limit = 0;
  bool capped = false;

  Search(const Instance& inst, const VdpsCatalog& cat)
      : instance(&inst), catalog(&cat), state(inst, cat) {}

  void Recurse(size_t depth, double total) {
    if (node_limit > 0 && nodes >= node_limit) {
      capped = true;
      return;
    }
    ++nodes;
    if (depth == order.size()) {
      if (total > best_total + kEps) {
        best_total = total;
        best_choice = state.joint_strategy();
      }
      return;
    }
    // Bound: even granting every remaining worker its personal best.
    if (total + suffix_best[depth] <= best_total + kEps) return;
    const size_t w = order[depth];
    // Try strategies best-first so the incumbent tightens early.
    const auto& strategies = catalog->strategies(w);
    for (size_t i = 0; i < strategies.size(); ++i) {
      const int32_t idx = static_cast<int32_t>(i);
      if (!state.IsAvailable(w, idx)) continue;
      state.Apply(w, idx);
      Recurse(depth + 1, total + strategies[i].payoff);
      state.Apply(w, kNullStrategy);
      if (capped) return;
    }
    Recurse(depth + 1, total);  // null branch last
  }
};

}  // namespace

BnbResult SolveMaxTotalBnB(const Instance& instance,
                           const VdpsCatalog& catalog, size_t node_limit) {
  Search search(instance, catalog);
  search.node_limit = node_limit;
  search.order.resize(instance.num_workers());
  std::iota(search.order.begin(), search.order.end(), 0u);
  const auto best_of = [&](size_t w) {
    const auto& s = catalog.strategies(w);
    return s.empty() ? 0.0 : s[0].payoff;  // payoff-sorted
  };
  std::sort(search.order.begin(), search.order.end(),
            [&](size_t a, size_t b) { return best_of(a) > best_of(b); });
  search.suffix_best.assign(search.order.size() + 1, 0.0);
  for (size_t i = search.order.size(); i-- > 0;) {
    search.suffix_best[i] = search.suffix_best[i + 1] +
                            best_of(search.order[i]);
  }
  search.best_choice.assign(instance.num_workers(), kNullStrategy);
  search.Recurse(0, 0.0);

  BnbResult result;
  result.total_payoff = search.best_total;
  result.complete = !search.capped;
  result.nodes_explored = search.nodes;
  result.assignment = Assignment(instance.num_workers());
  for (size_t w = 0; w < instance.num_workers(); ++w) {
    const int32_t idx = search.best_choice[w];
    if (idx != kNullStrategy) {
      result.assignment.SetRoute(
          w, catalog.route(catalog.strategies(w)[static_cast<size_t>(idx)]));
    }
  }
  return result;
}

}  // namespace fta

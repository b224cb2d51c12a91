#ifndef FTA_TESTS_SUPPORT_EXHAUSTIVE_H_
#define FTA_TESTS_SUPPORT_EXHAUSTIVE_H_

#include <cstddef>

#include "model/assignment.h"
#include "model/instance.h"
#include "vdps/catalog.h"

namespace fta {

/// Outcome of an exhaustive search over all joint strategies.
struct ExhaustiveResult {
  /// The FTA optimum: lexicographically (min P_dif, then max average
  /// payoff) over every conflict-free joint strategy.
  Assignment fairest;
  double fairest_pdif = 0.0;
  double fairest_avg = 0.0;
  /// The maximal-total-payoff assignment (MPTA's objective, exactly).
  Assignment max_total;
  double max_total_payoff = 0.0;
  /// False if the state cap stopped the search early (results then cover
  /// only the explored prefix).
  bool complete = false;
  /// Joint strategies examined.
  size_t states_explored = 0;
};

/// Brute-force ground truth for tiny instances: enumerates every
/// conflict-free joint strategy (each worker takes one of its VDPSs or
/// null) up to `max_states` leaves. Exponential — tests only.
ExhaustiveResult SolveExhaustive(const Instance& instance,
                                 const VdpsCatalog& catalog,
                                 size_t max_states = 5'000'000);

}  // namespace fta

#endif  // FTA_TESTS_SUPPORT_EXHAUSTIVE_H_

#ifndef FTA_VDPS_CATALOG_INTERNAL_H_
#define FTA_VDPS_CATALOG_INTERNAL_H_

// Shared internals of full catalog generation (catalog.cc, the enumeration
// engines) and incremental delta application (delta.cc). ApplyDelta's
// bit-identity guarantee against Generate rests on both paths funneling
// through these exact comparators and this exact payoff evaluation — do
// not fork or "locally optimize" either side.

#include <algorithm>
#include <cstdint>

#include "geo/grid_index.h"
#include "vdps/catalog.h"

namespace fta {

class ThreadPool;

namespace vdps_internal {

/// Denominator floor guarding against degenerate zero travel times (worker
/// standing at the center with a delivery point there too).
constexpr double kMinTravelTime = 1e-12;

/// The graph an enumeration run extends sequences along: the ε-adjacency
/// rows (the complete graph when ε = ∞, so every engine walks one loop)
/// and the travel time of each edge. The engines read no other pairwise
/// time: Equation 4's pruning extends a sequence only to ε-neighbours.
struct TravelGraph {
  RadiusAdjacency adj;
  EdgeTravelTimes times;
};

/// Builds the TravelGraph of `instance`'s delivery points under
/// config.epsilon (GridIndex radius queries, fanned out over a non-null
/// `pool`), timed into counters->adjacency_ms with its edge count in
/// counters->adjacency_pairs (the vdps/adjacency phase).
TravelGraph BuildTravelGraph(const Instance& instance,
                             const VdpsConfig& config, ThreadPool* pool,
                             GenerationCounters* counters);

/// Canonical catalog entry order: set size ascending, then lexicographic
/// on the sorted delivery point ids. A strict total order on distinct
/// sets, so any two sorts of the same entry multiset agree — which is what
/// lets ApplyDelta merge-patch a sorted entry list instead of re-sorting.
struct EntryOrder {
  bool operator()(const CVdpsEntry& a, const CVdpsEntry& b) const {
    if (a.dps.size() != b.dps.size()) return a.dps.size() < b.dps.size();
    return a.dps < b.dps;
  }
};

/// Canonical per-worker strategy order: payoff descending, entry id
/// ascending. The entry-id tiebreak makes this a strict total order (a
/// worker holds at most one strategy per entry), with the same
/// merge-instead-of-resort consequence as EntryOrder.
struct StrategyOrder {
  bool operator()(const WorkerStrategy& a, const WorkerStrategy& b) const {
    if (a.payoff != b.payoff) return a.payoff > b.payoff;
    return a.entry_id < b.entry_id;
  }
};

/// Materializes the strategy of a worker (center offset `offset`, maxDP
/// cap `max_dp`) for `entry` stored at catalog slot `entry_id`. Returns
/// false when the entry is not a valid strategy for the worker — too
/// large, or no retained sequence tolerates the offset.
inline bool MakeStrategy(const CVdpsEntry& entry, uint32_t entry_id,
                         double offset, uint32_t max_dp, WorkerStrategy* out) {
  if (entry.dps.size() > max_dp) return false;
  const SequenceOption* opt = entry.BestOptionFor(offset);
  if (opt == nullptr) return false;
  out->entry_id = entry_id;
  out->option = static_cast<uint32_t>(opt - entry.options.data());
  out->total_time = offset + opt->center_time;
  out->total_reward = entry.total_reward;
  out->payoff = entry.total_reward / std::max(out->total_time, kMinTravelTime);
  return true;
}

}  // namespace vdps_internal
}  // namespace fta

#endif  // FTA_VDPS_CATALOG_INTERNAL_H_

#ifndef FTA_VDPS_CATALOG_INTERNAL_H_
#define FTA_VDPS_CATALOG_INTERNAL_H_

// Shared internals of full catalog generation (catalog.cc, the enumeration
// engines) and incremental delta application (delta.cc). ApplyDelta's
// bit-identity guarantee against Generate rests on both paths funneling
// through these exact comparators and this exact payoff evaluation — do
// not fork or "locally optimize" either side.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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
  static bool Less(std::span<const uint32_t> a, std::span<const uint32_t> b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
  bool operator()(const CVdpsEntry& a, const CVdpsEntry& b) const {
    return Less(a.dps, b.dps);
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

/// Sorts the `n` strategies at `list`, which arrive in ascending entry_id
/// order, into StrategyOrder. Lists shorter than kRadixSortMinStrategies
/// go through std::sort; longer ones through a stable LSD radix sort on
/// ~bit_cast<uint64_t>(payoff + 0.0), which for payoffs >= 0 (checked
/// under FTA_VALIDATE; + 0.0 folds -0) ascends as the payoff descends.
/// Its stability keeps equal payoffs in entry order, so both paths give
/// the one StrategyOrder result. `scratch` must hold n records. Returns
/// whichever of `list` and `scratch` holds the sorted list.
WorkerStrategy* SortStrategies(WorkerStrategy* list, WorkerStrategy* scratch,
                               size_t n);

/// The list length from which SortStrategies radix-sorts. Below it, the
/// per-digit histogram work costs more than std::sort's comparisons:
/// timed on random payoffs on a 4-vCPU Xeon host, std::sort won up to
/// 80 strategies and lost from 88 on (EXPERIMENTS.md).
constexpr size_t kRadixSortMinStrategies = 96;

/// Contiguous per-entry arrays that let the strategy phase skip an entry
/// without touching it: MakeStrategy fails exactly when
/// size[e] > max_dp or reach[e] < offset. The admissible options of a
/// frontier form a suffix (CVdpsEntry::BestOptionFor), so an entry admits
/// an offset iff its last, slack-richest option does, and reach[e] is the
/// bound that option's test compares the offset against.
struct StrategyProbe {
  explicit StrategyProbe(const std::vector<CVdpsEntry>& entries);

  bool Skips(uint32_t e, double offset, uint32_t max_dp) const {
    return size[e] > max_dp || reach[e] < offset;
  }

  std::vector<uint32_t> size;
  std::vector<double> reach;
  /// The largest reach: a worker whose offset exceeds it has no strategy.
  double max_reach = -kInfinity;
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

/// Replaces `list` with the strategies of a worker (center offset
/// `offset`, maxDP cap `max_dp`) over every entry, in ascending entry id
/// order (unsorted by payoff). A worker beyond every entry's reach costs
/// no scan.
inline void ProbeEntries(const std::vector<CVdpsEntry>& entries,
                         const StrategyProbe& probe, double offset,
                         uint32_t max_dp, std::vector<WorkerStrategy>& list) {
  list.clear();
  if (probe.max_reach < offset) return;
  WorkerStrategy st;
  for (uint32_t e = 0; e < entries.size(); ++e) {
    if (probe.Skips(e, offset, max_dp)) continue;
    if (MakeStrategy(entries[e], e, offset, max_dp, &st)) list.push_back(st);
  }
}

}  // namespace vdps_internal
}  // namespace fta

#endif  // FTA_VDPS_CATALOG_INTERNAL_H_

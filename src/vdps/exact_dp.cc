#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/stopwatch.h"
#include "vdps/catalog_internal.h"
#include "vdps/generators.h"
#include "vdps/pareto.h"

namespace fta {
namespace {

/// DP state key: subset mask * n + last delivery point.
using StateKey = uint64_t;

StateKey MakeKey(uint32_t mask, uint32_t last, uint32_t n) {
  return static_cast<StateKey>(mask) * n + last;
}

}  // namespace

GenerationResult GenerateCVdpsExact(const Instance& instance,
                                    const VdpsConfig& config) {
  const uint32_t n = static_cast<uint32_t>(instance.num_delivery_points());
  FTA_CHECK_MSG(n <= 24,
                "GenerateCVdpsExact is a bitmask DP; use "
                "GenerateCVdpsSequences beyond 24 delivery points");
  GenerationResult result;
  if (n == 0) return result;
  GenerationCounters& c = result.counters;

  const uint32_t cap =
      config.max_set_size == 0 ? n : std::min(config.max_set_size, n);
  // ε-adjacency rows (ascending, including self) replace the O(n) distance
  // rescan per state expansion — the same precompute, and therefore the
  // exact same neighborhood predicate, as the sequence enumerators.
  vdps_internal::TravelGraph graph =
      vdps_internal::BuildTravelGraph(instance, config, nullptr, &c);
  const RadiusAdjacency& adj = graph.adj;

  Stopwatch enum_sw;
  FTA_SPAN("vdps/enumerate");
  // dp[(mask, last)] -> Pareto frontier of (arrival, slack) with routes.
  std::unordered_map<StateKey, std::vector<SequenceOption>> dp;

  // Base case |Q| = 1 (Equation 3): center -> dp_j.
  std::vector<std::pair<uint32_t, SequenceOption>> roots;
  for (uint32_t j = 0; j < n; ++j) {
    const double arr = graph.times.from_origin[j];
    const double slack = instance.delivery_point(j).earliest_expiry() - arr;
    if (slack < 0.0) continue;  // infeasible even with offset 0
    SequenceOption opt;
    opt.route = {j};
    opt.center_time = arr;
    opt.slack = slack;
    roots.emplace_back(j, std::move(opt));
  }
  // Size the table from the level-1 frontier: each feasible root seeds a
  // state and each deeper level multiplies by a bounded branching factor.
  // (The old 2^min(n,20) reservation allocated a million-bucket table even
  // for a 10-point instance.)
  dp.reserve(roots.size() * (cap > 1 ? 8 : 1));
  for (auto& [j, opt] : roots) {
    dp[MakeKey(1u << j, j, n)].push_back(std::move(opt));
  }
  roots.clear();

  ParetoStats stats;
  std::unordered_map<uint32_t, CVdpsEntry> by_mask;
  // Expand masks in increasing numeric order; every submask precedes its
  // supersets, which realizes Algorithm 1's by-size iteration (Equation 4).
  const uint32_t full = (n >= 32) ? 0xffffffffu : ((1u << n) - 1);
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const int size = __builtin_popcount(mask);
    if (size > static_cast<int>(cap)) continue;
    for (uint32_t last = 0; last < n; ++last) {
      if ((mask & (1u << last)) == 0) continue;
      const auto it = dp.find(MakeKey(mask, last, n));
      // operator[] during expansion default-creates target states that may
      // end up with no feasible option; those are not C-VDPSs.
      if (it == dp.end() || it->second.empty()) continue;
      ++c.states_expanded;

      // Collect this state into its set's entry now: expansions only write
      // strictly larger masks, so (mask, last) is final once the sweep
      // reaches it. Collecting in (mask asc, last asc) order here makes
      // each entry's frontier deterministic, unlike the old post-hoc sweep
      // in unordered_map bucket order.
      CVdpsEntry& entry = by_mask[mask];
      if (entry.dps.empty()) {
        for (uint32_t j = 0; j < n; ++j) {
          if (mask & (1u << j)) {
            entry.dps.push_back(j);
            entry.total_reward += instance.delivery_point(j).total_reward();
          }
        }
      }
      for (const SequenceOption& opt : it->second) {
        InsertParetoOption(entry.options, opt, config.max_pareto, &stats);
      }

      if (size == static_cast<int>(cap)) continue;  // no further expansion
      // Copy the source frontier by value (<= max_pareto short routes):
      // the dp[] target lookups below can rehash the table, which would
      // invalidate `it` — the old code re-found the source after every
      // target access instead.
      const std::vector<SequenceOption> sources = it->second;
      for (uint32_t k = adj.offsets[last]; k < adj.offsets[last + 1]; ++k) {
        const uint32_t next = adj.neighbors[k];
        if (mask & (1u << next)) continue;
        const double hop = graph.times.edge[k];
        const double e_next = instance.delivery_point(next).earliest_expiry();
        auto& target = dp[MakeKey(mask | (1u << next), next, n)];
        for (const SequenceOption& src : sources) {
          const double arr = src.center_time + hop;
          const double slack = std::min(src.slack, e_next - arr);
          if (slack < 0.0) continue;  // delta_ij = 0: next misses deadline
          SequenceOption opt;
          opt.route = src.route;
          opt.route.push_back(next);
          opt.center_time = arr;
          opt.slack = slack;
          ++c.options_recorded;
          InsertParetoOption(target, std::move(opt), config.max_pareto,
                             &stats);
        }
      }
    }
  }
  c.enumerate_ms = enum_sw.ElapsedMillis();

  Stopwatch fin_sw;
  FTA_SPAN("vdps/finalize");
  result.entries.reserve(by_mask.size());
  for (auto& [mask, entry] : by_mask) {
    FTA_DCHECK(ParetoFrontierInvariantHolds(entry.options));
    result.entries.push_back(std::move(entry));
  }
  // Deterministic order: by set size, then lexicographic dps.
  std::sort(result.entries.begin(), result.entries.end(),
            vdps_internal::EntryOrder{});
  if (config.max_entries > 0 && result.entries.size() > config.max_entries) {
    result.entries.resize(config.max_entries);
    result.truncated = true;
  }
  c.finalize_ms = fin_sw.ElapsedMillis();
  c.pareto_inserts = stats.inserts;
  c.pareto_evictions = stats.evictions;
  c.entries = result.entries.size();
  c.shards = 1;
  c.max_shard_states = c.states_expanded;
  if (!std::isinf(config.epsilon)) result.adjacency = std::move(graph.adj);
  return result;
}

}  // namespace fta

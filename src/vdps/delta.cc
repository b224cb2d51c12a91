// Incremental catalog maintenance: VdpsCatalog::ApplyDelta patches a
// generated catalog to a churned instance instead of regenerating it.
//
// The bit-identity argument (pinned by tests/stream_identity_test.cc):
//
//   * A C-VDPS over a set S is intrinsic to S — its feasibility, its
//     sequence set, and every retained (center_time, slack) pair depend
//     only on S's members, the center, and the travel model. Removing
//     other delivery points can therefore never change a surviving entry;
//     removal is a pure filter.
//
//   * Survivor ids renumber through a strictly increasing map (old order
//     preserved, holes closed), which preserves every sorted structure in
//     the catalog: entry.dps stay ascending, the (size asc, lex asc) entry
//     order is untouched, and each worker's (payoff desc, entry asc)
//     strategy order survives because payoffs are unchanged and entry ids
//     remap monotonically.
//
//   * Every C-VDPS containing an added delivery point is realized by a
//     deadline-feasible sequence, i.e. a path in the ε-adjacency graph, so
//     all of its members lie within max_set_size - 1 hops of an added
//     point. Enumerating the BFS ball around the additions as a restricted
//     sub-instance (sorted members, strictly increasing local id map),
//     along the patched ε-adjacency restricted to the ball (exactly the
//     rows a GridIndex over the ball's points would build), replays the
//     exact serial DFS the full generator would run for those sets: same
//     roots in the same relative order, same ascending adjacency-row
//     extensions, same float arithmetic on the same point pairs (the
//     sub-run times the ball's edges with the same TravelTime doubles),
//     hence the same raw-option order into the same Pareto selection.
//
//   * The sub-enumeration is goal-directed (EnumerationFocus in
//     generators.h). The BFS records each point's hop distance h(v) to
//     the nearest added point. While a partial sequence's set holds no
//     added point, the DFS enters v as the set's k-th member only if
//     h(v) <= cap - k, and only sets holding an added point are interned.
//     Take any path v_1 ... v_m (m <= cap) that realizes a set holding an
//     added point, and let v_a be its first added point. For each prefix
//     end v_k with k < a, the path v_k ... v_a has a - k hops, so
//     h(v_k) <= a - k <= cap - k: the prefix passes the test. Prefixes
//     from v_a on hold an added point and are not tested. So every path
//     of every kept set is still walked, in the same relative order, and
//     records the same (center_time, slack) options in the same order;
//     the Pareto selection of each kept set is unchanged. The pruned
//     subtrees and the sets no longer interned hold no added point, and
//     the unfocused run discarded exactly those sets too.
//
//   * Sorted merges under the shared total orders (EntryOrder,
//     StrategyOrder — see catalog_internal.h) equal a full re-sort, so the
//     merged catalog is byte-for-byte the one Generate(new_instance,
//     config()) builds.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geo/grid_index.h"
#include "geo/point.h"
#include "model/instance.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "vdps/catalog.h"
#include "vdps/catalog_internal.h"
#include "vdps/generators.h"

namespace fta {
namespace {

/// Sentinel new-id for a removed element in an old → new id map.
constexpr uint32_t kRemovedId = 0xffffffffu;

/// Sentinel hop distance and local id of a point outside the ε-ball.
constexpr uint32_t kOutsideBall = 0xffffffffu;

/// Mirrors a finished delta application into the process-wide metrics
/// registry (counter adds only; wall time to a sketch).
void PublishDelta(const DeltaCounters& d) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter& deltas = reg.GetCounter("vdps/deltas_applied");
  static obs::Counter& entries_removed =
      reg.GetCounter("vdps/delta_entries_removed");
  static obs::Counter& entries_added =
      reg.GetCounter("vdps/delta_entries_added");
  static obs::Counter& neighborhood =
      reg.GetCounter("vdps/delta_neighborhood_dps");
  static obs::QuantileSketch& wall =
      reg.GetSketch("vdps/delta_wall_ms", 0.01);
  deltas.Increment();
  entries_removed.Add(d.entries_removed);
  entries_added.Add(d.entries_added);
  neighborhood.Add(d.neighborhood_dps);
  wall.Observe(d.wall_ms);
}

/// Old → new id map for a removal list (strictly ascending old indices):
/// survivors keep their relative order and close the holes; removed slots
/// map to kRemovedId.
std::vector<uint32_t> BuildIdMap(size_t old_count,
                                 const std::vector<uint32_t>& removed) {
  std::vector<uint32_t> map(old_count);
  size_t r = 0;
  uint32_t next = 0;
  for (size_t old = 0; old < old_count; ++old) {
    if (r < removed.size() && removed[r] == old) {
      map[old] = kRemovedId;
      ++r;
    } else {
      map[old] = next++;
    }
  }
  return map;
}

Status CheckRemovalList(const std::vector<uint32_t>& removed, size_t count,
                        const char* what) {
  for (size_t i = 0; i < removed.size(); ++i) {
    if (removed[i] >= count) {
      return Status::InvalidArgument(StrFormat(
          "removed %s index %u out of range (count %zu)", what, removed[i],
          count));
    }
    if (i > 0 && removed[i - 1] >= removed[i]) {
      return Status::InvalidArgument(
          StrFormat("removed %s indices not strictly ascending", what));
    }
  }
  return Status::Ok();
}

/// Remaps a sorted-or-route id sequence in place through `map`. Every id
/// must survive (checked by the caller via the intersection test).
void RemapIds(std::vector<uint32_t>& ids, const std::vector<uint32_t>& map) {
  for (uint32_t& id : ids) id = map[id];
}

bool AnyRemoved(const std::vector<uint32_t>& ids,
                const std::vector<uint32_t>& map) {
  for (uint32_t id : ids) {
    if (map[id] == kRemovedId) return true;
  }
  return false;
}

}  // namespace

void DeltaCounters::Merge(const DeltaCounters& o) {
  deltas_applied += o.deltas_applied;
  workers_removed += o.workers_removed;
  workers_added += o.workers_added;
  dps_removed += o.dps_removed;
  dps_added += o.dps_added;
  entries_removed += o.entries_removed;
  entries_added += o.entries_added;
  strategies_removed += o.strategies_removed;
  strategies_added += o.strategies_added;
  neighborhood_dps += o.neighborhood_dps;
  subenum_states += o.subenum_states;
  adjacency_ms += o.adjacency_ms;
  enumerate_ms += o.enumerate_ms;
  strategies_ms += o.strategies_ms;
  wall_ms += o.wall_ms;
}

Status VdpsCatalog::ApplyDelta(const Instance& new_instance,
                               const CatalogDeltaPlan& plan,
                               DeltaCounters* counters) {
  FTA_SPAN("vdps/apply_delta");
  Stopwatch wall;

  // ---- Gates: every check precedes the first mutation, so an error
  // leaves the catalog exactly as it was. ----
  if (config_.beam_width > 0) {
    return Status::FailedPrecondition(
        "ApplyDelta does not support beam-search catalogs: the beam's "
        "global top-k survivor selection is not locally patchable");
  }
  if (truncated_ || config_.max_entries > 0) {
    return Status::FailedPrecondition(
        "ApplyDelta does not support truncated/max_entries catalogs: the "
        "truncation point is enumeration-path-dependent");
  }
  const size_t old_workers = strategies_.size();
  const size_t old_dps = num_dps_;
  if (!std::isinf(config_.epsilon) && old_dps > 0 &&
      adjacency_.num_points() != old_dps) {
    return Status::FailedPrecondition(
        "catalog has no ε-adjacency to patch; was it built by Generate()?");
  }
  if (Status s = CheckRemovalList(plan.removed_workers, old_workers, "worker");
      !s.ok()) {
    return s;
  }
  if (Status s = CheckRemovalList(plan.removed_dps, old_dps, "delivery point");
      !s.ok()) {
    return s;
  }
  const size_t surviving_workers = old_workers - plan.removed_workers.size();
  const size_t surviving_dps = old_dps - plan.removed_dps.size();
  if (new_instance.num_workers() != surviving_workers + plan.added_workers) {
    return Status::InvalidArgument(StrFormat(
        "plan implies %zu workers, new instance has %zu",
        surviving_workers + plan.added_workers, new_instance.num_workers()));
  }
  if (new_instance.num_delivery_points() != surviving_dps + plan.added_dps) {
    return Status::InvalidArgument(
        StrFormat("plan implies %zu delivery points, new instance has %zu",
                  surviving_dps + plan.added_dps,
                  new_instance.num_delivery_points()));
  }

  const std::vector<uint32_t> dp_map = BuildIdMap(old_dps, plan.removed_dps);
  const std::vector<uint32_t> worker_map =
      BuildIdMap(old_workers, plan.removed_workers);

  DeltaCounters scratch;
  DeltaCounters& d = counters != nullptr ? *counters : scratch;
  d = DeltaCounters{};
  d.deltas_applied = 1;
  d.workers_removed = plan.removed_workers.size();
  d.workers_added = plan.added_workers;
  d.dps_removed = plan.removed_dps.size();
  d.dps_added = plan.added_dps;
  uint64_t old_strategies = 0;
  for (const auto& sts : strategies_) old_strategies += sts.size();

  // ---- 1. Entry filter + renumber: drop every entry touching a removed
  // delivery point, remap survivor ids (strictly increasing map, so the
  // (size asc, lex asc) entry order is preserved without re-sorting). ----
  std::vector<uint32_t> entry_map(entries_.size(), kRemovedId);
  {
    size_t out = 0;
    for (size_t e = 0; e < entries_.size(); ++e) {
      if (AnyRemoved(entries_[e].dps, dp_map)) continue;
      entry_map[e] = static_cast<uint32_t>(out);
      if (out != e) entries_[out] = std::move(entries_[e]);
      if (!plan.removed_dps.empty()) {
        RemapIds(entries_[out].dps, dp_map);
        for (SequenceOption& opt : entries_[out].options) {
          RemapIds(opt.route, dp_map);
        }
      }
      ++out;
    }
    d.entries_removed = entries_.size() - out;
    entries_.resize(out);
  }

  // ---- 2. Worker removal + strategy filter under the entry renumber.
  // Payoffs are untouched and entry ids remap monotonically, so each
  // surviving list stays sorted by (payoff desc, entry asc); a strategy
  // names its route by option index, which the entry renumber keeps. ----
  {
    size_t out = 0;
    for (size_t w = 0; w < strategies_.size(); ++w) {
      if (worker_map[w] == kRemovedId) continue;
      if (out != w) strategies_[out] = std::move(strategies_[w]);
      std::vector<WorkerStrategy>& sts = strategies_[out];
      size_t kept = 0;
      for (size_t i = 0; i < sts.size(); ++i) {
        if (entry_map[sts[i].entry_id] == kRemovedId) continue;
        sts[kept] = sts[i];
        sts[kept].entry_id = entry_map[sts[kept].entry_id];
        ++kept;
      }
      sts.resize(kept);
      ++out;
    }
    strategies_.resize(out);
  }
  uint64_t kept_strategies = 0;
  for (const auto& sts : strategies_) kept_strategies += sts.size();
  d.strategies_removed = old_strategies - kept_strategies;

  // ---- 3. ε-adjacency CSR patch: filter + renumber survivor rows, splice
  // the additions in (added ids are all larger than survivor ids, so they
  // append at row tails in ascending order), brute-force rows for the
  // added points with GridIndex::RadiusQuery's exact predicate. Every
  // step after the brute-force rows is linear in the edges. ----
  const size_t new_dps = new_instance.num_delivery_points();
  const bool pruned = !std::isinf(config_.epsilon);
  if (pruned) {
    Stopwatch adj_sw;
    FTA_SPAN("vdps/delta_adjacency");
    const std::vector<Point> points = new_instance.DeliveryPointLocations();
    const double r2 = config_.epsilon * config_.epsilon;
    // added_rows[k]: full neighbor row of added dp (surviving_dps + k).
    std::vector<std::vector<uint32_t>> added_rows(plan.added_dps);
    for (size_t k = 0; k < plan.added_dps; ++k) {
      const Point& center = points[surviving_dps + k];
      for (uint32_t q = 0; q < new_dps; ++q) {
        if (SquaredDistance(points[q], center) <= r2) {
          added_rows[k].push_back(q);
        }
      }
    }
    // Reverse edges into the survivors' rows, from one counting pass over
    // the added rows (symmetric predicate: the squared distance folds
    // (a-b) vs (b-a), whose squares are identical). Survivor v's reverse
    // edges are rev[rev_at[v] .. rev_at[v + 1]), in ascending added id
    // order because the fill walks the added points in order.
    std::vector<uint32_t> rev_at(surviving_dps + 1, 0);
    size_t added_edges = 0;
    for (const std::vector<uint32_t>& row : added_rows) {
      added_edges += row.size();
      for (uint32_t q : row) {
        if (q < surviving_dps) ++rev_at[q + 1];
      }
    }
    for (size_t v = 0; v < surviving_dps; ++v) rev_at[v + 1] += rev_at[v];
    std::vector<uint32_t> rev(rev_at[surviving_dps]);
    {
      std::vector<uint32_t> cursor(rev_at.begin(), rev_at.end() - 1);
      for (size_t k = 0; k < plan.added_dps; ++k) {
        for (uint32_t q : added_rows[k]) {
          if (q < surviving_dps) {
            rev[cursor[q]++] = static_cast<uint32_t>(surviving_dps + k);
          }
        }
      }
    }
    RadiusAdjacency next;
    next.offsets.reserve(new_dps + 1);
    next.offsets.push_back(0);
    next.neighbors.reserve(adjacency_.neighbors.size() + rev.size() +
                           added_edges);
    for (size_t old = 0; old < old_dps; ++old) {
      if (dp_map[old] == kRemovedId) continue;
      for (const uint32_t* p = adjacency_.begin(static_cast<uint32_t>(old));
           p != adjacency_.end(static_cast<uint32_t>(old)); ++p) {
        if (dp_map[*p] != kRemovedId) next.neighbors.push_back(dp_map[*p]);
      }
      const uint32_t me = dp_map[old];
      next.neighbors.insert(next.neighbors.end(), rev.begin() + rev_at[me],
                            rev.begin() + rev_at[me + 1]);
      next.offsets.push_back(static_cast<uint32_t>(next.neighbors.size()));
    }
    for (size_t k = 0; k < plan.added_dps; ++k) {
      next.neighbors.insert(next.neighbors.end(), added_rows[k].begin(),
                            added_rows[k].end());
      next.offsets.push_back(static_cast<uint32_t>(next.neighbors.size()));
    }
    adjacency_ = std::move(next);
    d.adjacency_ms = adj_sw.ElapsedMillis();
  } else {
    adjacency_ = RadiusAdjacency{};
  }

  // ---- 4. Goal-directed sub-enumeration for the added delivery points:
  // every new C-VDPS holds at least one added point, and all of its
  // members lie within cap - 1 ε-hops of one. The BFS ball around the
  // additions, as a restricted sub-instance enumerated along the patched
  // adjacency, finds each such set exactly once; the BFS hop distances
  // focus the DFS on the sets that hold an added point. ----
  std::vector<CVdpsEntry> fresh;
  if (plan.added_dps > 0) {
    Stopwatch enum_sw;
    FTA_SPAN("vdps/delta_enumerate");
    const uint32_t cap =
        config_.max_set_size == 0
            ? static_cast<uint32_t>(new_dps)
            : std::min(config_.max_set_size, static_cast<uint32_t>(new_dps));
    // hops[id]: ε-hop distance to the nearest added point (every point is
    // one hop from every other when ε = ∞).
    std::vector<uint32_t> hops(new_dps, pruned ? kOutsideBall : 1u);
    std::vector<uint32_t> frontier;
    for (size_t k = 0; k < plan.added_dps; ++k) {
      const uint32_t id = static_cast<uint32_t>(surviving_dps + k);
      hops[id] = 0;
      frontier.push_back(id);
    }
    if (pruned) {
      std::vector<uint32_t> next_frontier;
      for (uint32_t depth = 1; depth < cap && !frontier.empty(); ++depth) {
        next_frontier.clear();
        for (uint32_t v : frontier) {
          for (const uint32_t* p = adjacency_.begin(v);
               p != adjacency_.end(v); ++p) {
            if (hops[*p] == kOutsideBall) {
              hops[*p] = depth;
              next_frontier.push_back(*p);
            }
          }
        }
        frontier.swap(next_frontier);
      }
    }
    // The ball (hops < cap) in ascending new id: hood maps local ids to
    // new ids and local_of back, both strictly increasing, so the DFS
    // over the sub-instance replays the full generator's relative order.
    std::vector<uint32_t> hood;
    std::vector<uint32_t> local_of(new_dps, kOutsideBall);
    EnumerationFocus focus;
    for (uint32_t id = 0; id < new_dps; ++id) {
      if (hops[id] >= cap) continue;
      local_of[id] = static_cast<uint32_t>(hood.size());
      hood.push_back(id);
      focus.hops.push_back(hops[id]);
    }
    d.neighborhood_dps = hood.size();
    if (!pruned) {
      focus.adjacency = CompleteAdjacency(hood.size());
    } else {
      RadiusAdjacency& adj = focus.adjacency;
      adj.offsets.reserve(hood.size() + 1);
      adj.offsets.push_back(0);
      for (uint32_t id : hood) {
        for (const uint32_t* p = adjacency_.begin(id); p != adjacency_.end(id);
             ++p) {
          if (local_of[*p] != kOutsideBall) {
            adj.neighbors.push_back(local_of[*p]);
          }
        }
        adj.offsets.push_back(static_cast<uint32_t>(adj.neighbors.size()));
      }
    }

    std::vector<DeliveryPoint> sub_dps;
    sub_dps.reserve(hood.size());
    for (uint32_t id : hood) {
      sub_dps.push_back(new_instance.delivery_point(id));
    }
    const Instance sub_instance(new_instance.center(), std::move(sub_dps),
                                {}, new_instance.travel());
    GenerationResult sub =
        GenerateCVdpsSequences(sub_instance, config_, nullptr, &focus);
    d.subenum_states = sub.counters.states_expanded;

    fresh = std::move(sub.entries);
    for (CVdpsEntry& entry : fresh) {
      for (uint32_t& id : entry.dps) id = hood[id];
      for (SequenceOption& opt : entry.options) {
        for (uint32_t& id : opt.route) id = hood[id];
      }
      // Focused: every set holds an added point (ids past the survivors).
      FTA_DCHECK(entry.dps.back() >= surviving_dps);
    }
    d.entries_added = fresh.size();
    d.enumerate_ms = enum_sw.ElapsedMillis();
  }

  // ---- 5. Merge the fresh entries into the survivor list under the
  // shared EntryOrder (both inputs sorted; ids are disjoint because a
  // fresh set contains an added point no old set could). The merge runs
  // from the back of the grown list, so survivors shift right in place
  // and the merge needs no second entry array. ----
  std::vector<uint32_t> final_of_survivor(entries_.size());
  std::vector<uint32_t> final_of_fresh(fresh.size());
  {
    const vdps_internal::EntryOrder less;
    size_t i = entries_.size();
    size_t j = fresh.size();
    entries_.resize(i + j);
    for (size_t k = entries_.size(); j > 0;) {
      if (i > 0 && less(fresh[j - 1], entries_[i - 1])) {
        final_of_survivor[--i] = static_cast<uint32_t>(--k);
        entries_[k] = std::move(entries_[i]);
      } else {
        final_of_fresh[--j] = static_cast<uint32_t>(--k);
        entries_[k] = std::move(fresh[j]);
      }
    }
    for (size_t r = 0; r < i; ++r) {
      final_of_survivor[r] = static_cast<uint32_t>(r);
    }
  }

  // ---- 6. Strategy patch: remap surviving strategies to final entry ids
  // (monotone again), evaluate only the fresh entries for surviving
  // workers, build added workers from scratch, and merge per worker under
  // the shared StrategyOrder — a strict total order, so the merge equals
  // Generate's sorted list. Strategies are flat records: the patch copies
  // no route, and every per-strategy write goes to the reused `additions`
  // and `sort_buffer`, sized here for the longest list, or to a list
  // grown once per worker. The probe arrays skip entries MakeStrategy
  // would reject, exactly as in Generate. ----
  Stopwatch strat_sw;
  {
    FTA_SPAN("vdps/delta_strategies");
    const vdps_internal::StrategyOrder before;
    const vdps_internal::StrategyProbe probe(entries_);
    double fresh_reach = -kInfinity;
    for (uint32_t final_id : final_of_fresh) {
      fresh_reach = std::max(fresh_reach, probe.reach[final_id]);
    }
    const size_t longest =
        plan.added_workers > 0 ? entries_.size() : final_of_fresh.size();
    std::vector<WorkerStrategy> additions;
    additions.reserve(longest);
    std::vector<WorkerStrategy> sort_buffer(longest);
    WorkerStrategy st;
    // FTA_HOT_BEGIN(delta-strategy-patch)
    for (size_t w = 0; w < strategies_.size(); ++w) {
      std::vector<WorkerStrategy>& sts = strategies_[w];
      for (WorkerStrategy& kept : sts) {
        kept.entry_id = final_of_survivor[kept.entry_id];
      }
      const double offset = new_instance.WorkerToCenterTime(w);
      if (fresh_reach < offset) continue;
      const uint32_t max_dp = new_instance.worker(w).max_delivery_points;
      additions.clear();
      for (uint32_t final_id : final_of_fresh) {
        if (probe.Skips(final_id, offset, max_dp)) continue;
        if (vdps_internal::MakeStrategy(entries_[final_id], final_id, offset,
                                        max_dp, &st)) {
          additions.push_back(st);
        }
      }
      if (additions.empty()) continue;
      const WorkerStrategy* sorted = vdps_internal::SortStrategies(
          additions.data(), sort_buffer.data(), additions.size());
      // Merge from the back into the grown list: the survivors shift right
      // in place, so no temporary is needed.
      size_t i = sts.size();
      size_t j = additions.size();
      sts.resize(i + j);
      for (size_t k = sts.size(); j > 0;) {
        if (i > 0 && before(sorted[j - 1], sts[i - 1])) {
          sts[--k] = sts[--i];
        } else {
          sts[--k] = sorted[--j];
        }
      }
    }
    strategies_.resize(surviving_workers + plan.added_workers);
    for (size_t w = surviving_workers; w < strategies_.size(); ++w) {
      vdps_internal::ProbeEntries(entries_, probe,
                                  new_instance.WorkerToCenterTime(w),
                                  new_instance.worker(w).max_delivery_points,
                                  additions);
      const WorkerStrategy* sorted = vdps_internal::SortStrategies(
          additions.data(), sort_buffer.data(), additions.size());
      strategies_[w].assign(sorted, sorted + additions.size());
    }
    // FTA_HOT_END(delta-strategy-patch)
  }
  d.strategies_ms = strat_sw.ElapsedMillis();
  uint64_t total_strategies = 0;
  for (const auto& sts : strategies_) total_strategies += sts.size();
  d.strategies_added = total_strategies - kept_strategies;

  num_dps_ = new_dps;
  RebuildStrategyPayoffs();

  // Phase-boundary contract, same as Generate: the patched catalog is
  // deep-checked before any solver sees it.
  FTA_DCHECK_OK(ValidateInvariants(new_instance));
  d.wall_ms = wall.ElapsedMillis();
  PublishDelta(d);
  return Status::Ok();
}

}  // namespace fta

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "vdps/catalog_internal.h"
#include "vdps/enumeration_store.h"
#include "vdps/generators.h"
#include "vdps/route_arena.h"

namespace fta {
namespace {

/// Beam items per extension chunk. The chunk partition — and therefore the
/// candidate concatenation order — depends only on the beam size, never on
/// the thread count, so the level's candidate list is byte-identical to a
/// serial scan.
constexpr size_t kBeamChunk = 16;

/// One partial delivery-point sequence surviving the beam. The route lives
/// in the shared arena; `last` caches its final delivery point.
struct BeamItem {
  uint32_t node = RouteArena::kNone;
  uint32_t last = 0;
  double arrival = 0.0;  // center-origin arrival at the last point
  double slack = 0.0;    // max tolerable start offset so far
  double reward = 0.0;
};

/// A candidate extension produced by the level scan. Arena nodes are
/// allocated only for the candidates that survive the shrink, so dropped
/// candidates cost 32 stack-local bytes instead of a heap route copy.
struct PendingChild {
  uint32_t parent = RouteArena::kNone;  // kNone for level-1 roots
  uint32_t dp = 0;
  double arrival = 0.0;
  double slack = 0.0;
  double reward = 0.0;
  /// Beam score: payoff rate of the partial sequence. Higher is more
  /// promising — workers ultimately rank VDPSs by reward / time.
  double Score() const { return reward / std::max(arrival, 1e-12); }
};

}  // namespace

GenerationResult GenerateCVdpsBeam(const Instance& instance,
                                   const VdpsConfig& config, size_t beam_width,
                                   ThreadPool* pool) {
  FTA_CHECK_MSG(beam_width > 0, "beam_width must be positive");
  GenerationResult result;
  const uint32_t n = static_cast<uint32_t>(instance.num_delivery_points());
  if (n == 0) return result;

  vdps_internal::TravelGraph graph =
      vdps_internal::BuildTravelGraph(instance, config, pool, &result.counters);
  const RadiusAdjacency& adj = graph.adj;
  const uint32_t cap =
      config.max_set_size == 0 ? n : std::min(config.max_set_size, n);

  Stopwatch enum_sw;
  // Single shard: the beam itself is the unit of parallelism (per-level
  // extension chunks); set store, arena, and recording stay serial.
  std::vector<vdps_internal::EnumerationShard> shards(1);
  vdps_internal::EnumerationShard& store = shards[0];
  GenerationCounters& c = store.counters;

  Route scratch_route;
  std::vector<uint32_t> scratch_key;
  const auto record = [&](const BeamItem& item) {
    ++c.states_expanded;
    // Reused scratch buffers: copies, but no per-record allocations.
    store.arena.Materialize(item.node, scratch_route);
    scratch_key = scratch_route;
    std::sort(scratch_key.begin(), scratch_key.end());
    const uint32_t set = store.Intern(scratch_key, config.max_entries,
                                      [&] { return item.reward; });
    if (set == vdps_internal::SetTable::kNone) return;  // entry cap hit
    store.log.push_back(vdps_internal::LoggedOption{item.arrival, item.slack,
                                                    item.node, set});
    ++c.options_recorded;
  };

  bool shrink_truncated = false;
  const auto shrink = [&](std::vector<PendingChild>& level) {
    if (level.size() <= beam_width) return;
    std::nth_element(level.begin(),
                     level.begin() + static_cast<ptrdiff_t>(beam_width),
                     level.end(), [](const PendingChild& a,
                                     const PendingChild& b) {
                       return a.Score() > b.Score();
                     });
    level.resize(beam_width);
    shrink_truncated = true;  // some partial sequences were dropped
  };

  /// Allocates arena nodes for the shrink survivors (in candidate order,
  /// so node ids match a serial run), records them, and forms the beam.
  const auto admit = [&](const std::vector<PendingChild>& level,
                         std::vector<BeamItem>& out) {
    out.clear();
    out.reserve(level.size());
    for (const PendingChild& p : level) {
      BeamItem item;
      item.node = store.arena.Push(p.parent, p.dp);
      item.last = p.dp;
      item.arrival = p.arrival;
      item.slack = p.slack;
      item.reward = p.reward;
      record(item);
      out.push_back(item);
    }
  };

  // Level 1: every feasible center -> dp start (the first hop is never
  // ε-pruned, matching the exhaustive enumerator).
  FTA_SPAN("vdps/enumerate");
  std::vector<PendingChild> pending;
  for (uint32_t j = 0; j < n; ++j) {
    const double arr = graph.times.from_origin[j];
    const double slack = instance.delivery_point(j).earliest_expiry() - arr;
    if (slack < 0.0) continue;
    pending.push_back(PendingChild{RouteArena::kNone, j, arr, slack,
                                   instance.delivery_point(j).total_reward()});
  }
  shrink(pending);
  std::vector<BeamItem> beam;
  admit(pending, beam);

  for (uint32_t level = 2; level <= cap && !beam.empty(); ++level) {
    FTA_SPAN("vdps/beam_level");
    // Extension scan. Reads the arena (dedup walks) but never writes it —
    // survivors get their nodes only in admit() — so fixed-order chunks of
    // the beam can scan concurrently.
    const auto extend_item = [&](const BeamItem& item,
                                 std::vector<PendingChild>& out) {
      for (uint32_t k = adj.offsets[item.last]; k < adj.offsets[item.last + 1];
           ++k) {
        const uint32_t j = adj.neighbors[k];
        if (store.arena.Contains(item.node, j)) continue;
        const double arr = item.arrival + graph.times.edge[k];
        const double slk = std::min(
            item.slack, instance.delivery_point(j).earliest_expiry() - arr);
        if (slk < 0.0) continue;
        out.push_back(PendingChild{
            item.node, j, arr, slk,
            item.reward + instance.delivery_point(j).total_reward()});
      }
    };

    pending.clear();
    if (pool != nullptr && pool->num_threads() > 1 && beam.size() > 1) {
      std::vector<std::vector<PendingChild>> chunk_out(
          ThreadPool::NumChunks(beam.size(), kBeamChunk));
      pool->RunChunked(beam.size(), kBeamChunk,
                       [&](size_t chunk, size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           extend_item(beam[i], chunk_out[chunk]);
                         }
                       });
      for (const auto& out : chunk_out) {
        pending.insert(pending.end(), out.begin(), out.end());
      }
    } else {
      for (const BeamItem& item : beam) extend_item(item, pending);
    }
    shrink(pending);
    std::vector<BeamItem> next;
    admit(pending, next);
    beam = std::move(next);
  }
  result.counters.enumerate_ms = enum_sw.ElapsedMillis();

  Stopwatch fin_sw;
  {
    FTA_SPAN("vdps/finalize");
    vdps_internal::FinalizeShards(shards, config, result);
  }
  result.counters.finalize_ms = fin_sw.ElapsedMillis();
  result.truncated = result.truncated || shrink_truncated;
  if (!std::isinf(config.epsilon)) result.adjacency = std::move(graph.adj);
  return result;
}

}  // namespace fta

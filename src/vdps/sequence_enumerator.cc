#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "geo/grid_index.h"
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

/// Roots per enumeration shard. Small enough to keep ~n/8 shards for
/// dynamic load balancing across the pool, large enough that per-shard
/// scratch (an n-bit visited mask) stays negligible. The catalog does not
/// depend on this value: FinalizeShards reproduces the serial recording
/// order for any shard partition of ascending root ranges.
constexpr size_t kRootsPerShard = 8;

/// Read-only inputs shared by every shard.
struct DfsContext {
  const Instance* instance = nullptr;
  const VdpsConfig* config = nullptr;
  /// ε-neighbor rows (the complete graph when ε = ∞) and the travel
  /// times along them.
  const RadiusAdjacency* adj = nullptr;
  const EdgeTravelTimes* times = nullptr;
  /// Goal hop distances of a focused run (EnumerationFocus::hops);
  /// nullptr for a full enumeration.
  const std::vector<uint32_t>* hops = nullptr;
  uint32_t n = 0;
  uint32_t cap = 0;
  /// SoA mirrors of the two per-delivery-point fields the DFS inner loop
  /// reads (the scalar-AoS leftover of ROADMAP item 3): gathered once out
  /// of the ~56-byte-stride DeliveryPoint structs so the hot loop streams
  /// contiguous doubles next to the row's edge times instead of striding
  /// through Point + vector<SpatialTask> payloads per neighbor.
  std::vector<double> earliest_expiry;
  std::vector<double> total_reward;
};

/// Depth-first enumeration over one shard's root range. All mutable state
/// (set store, route arena, counters) lives in the shard, so shards run
/// lock-free on a pool.
class ShardDfs {
 public:
  ShardDfs(const DfsContext& ctx, vdps_internal::EnumerationShard& shard)
      : ctx_(ctx), shard_(shard) {
    in_route_.assign(ctx.n, false);
    key_.reserve(ctx.cap);
    // One gather scratch per DFS depth: the batched neighbor gather at
    // depth d must survive the recursive calls it feeds, which overwrite
    // the scratch of depth d + 1 only.
    scratch_.resize(ctx.cap);
  }

  /// Enumerates every feasible sequence whose first delivery point lies in
  /// [begin, end). The first hop (center -> dp) is not ε-pruned: Equation 4
  /// constrains inter-point hops only.
  void RunRoots(uint32_t begin, uint32_t end) {
    for (uint32_t j = begin; j < end; ++j) {
      // Focus pruning: a root farther than cap - 1 hops from every goal
      // starts no set that could hold one.
      if (ctx_.hops != nullptr && (*ctx_.hops)[j] >= ctx_.cap) continue;
      const double arr = ctx_.times->from_origin[j];
      const double slack = ctx_.earliest_expiry[j] - arr;
      if (slack < 0.0) continue;
      Enter(j);
      Dfs(j, arr, slack, shard_.arena.Push(RouteArena::kNone, j));
      Leave(j);
    }
  }

 private:
  bool IsGoal(uint32_t dp) const {
    return ctx_.hops != nullptr && (*ctx_.hops)[dp] == 0;
  }

  void Enter(uint32_t dp) {
    in_route_[dp] = true;
    key_.insert(std::lower_bound(key_.begin(), key_.end(), dp), dp);
    if (IsGoal(dp)) ++goals_;
  }

  void Leave(uint32_t dp) {
    if (IsGoal(dp)) --goals_;
    key_.erase(std::lower_bound(key_.begin(), key_.end(), dp));
    in_route_[dp] = false;
  }

  /// Logs the current sequence (its set is `key_`, its route is the
  /// arena chain ending at `node`) as a raw option of its set. A focused
  /// run skips sets without a goal point.
  void Record(double arrival, double slack, uint32_t node) {
    if (ctx_.hops != nullptr && goals_ == 0) return;
    const uint32_t set =
        shard_.Intern(key_, ctx_.config->max_entries, [&] {
          double reward = 0.0;
          for (uint32_t dp : key_) reward += ctx_.total_reward[dp];
          return reward;
        });
    if (set == vdps_internal::SetTable::kNone) return;  // entry cap hit
    shard_.log.push_back(
        vdps_internal::LoggedOption{arrival, slack, node, set});
    ++shard_.counters.options_recorded;
  }

  void Dfs(uint32_t last, double arrival, double slack, uint32_t node) {
    ++shard_.counters.states_expanded;
    Record(arrival, slack, node);
    if (key_.size() >= ctx_.cap) return;
    if (shard_.truncated) return;
    // Distance-constrained pruning (Section IV): extend only to delivery
    // points within ε of the current one — one precomputed adjacency row.
    //
    // Batched gather over the SoA mirrors: pass 1 streams the row's
    // neighbor ids and their parallel edge times, plus the expiry mirror,
    // to compute every feasible neighbor's (arrival, slack); pass 2
    // recurses into them. The per-neighbor expression tree is unchanged
    // and in_route_ is restored before each next sibling in the fused loop
    // too, so the candidate set, the visit order, and every double are
    // bit-identical to the fused form (pinned by
    // vdps_catalog_equivalence_test) — the split just keeps the gather
    // loop branch-light and free of the recursion's cache pollution.
    DepthScratch& sc = scratch_[key_.size() - 1];
    sc.next.clear();
    sc.arr.clear();
    sc.slk.clear();
    // Focus pruning: while the set holds no goal point, enter a neighbor
    // only if a goal lies within the hops the size cap leaves after it.
    const uint32_t* hops =
        ctx_.hops != nullptr && goals_ == 0 ? ctx_.hops->data() : nullptr;
    const size_t hops_left = ctx_.cap - key_.size() - 1;
    const uint32_t* nbr = ctx_.adj->neighbors.data();
    const double* time = ctx_.times->edge.data();
    for (uint32_t k = ctx_.adj->offsets[last]; k < ctx_.adj->offsets[last + 1];
         ++k) {
      const uint32_t next = nbr[k];
      if (in_route_[next]) continue;
      if (hops != nullptr && hops[next] > hops_left) continue;
      const double arr = arrival + time[k];
      const double slk = std::min(slack, ctx_.earliest_expiry[next] - arr);
      if (slk < 0.0) continue;  // misses a deadline even with offset 0
      sc.next.push_back(next);
      sc.arr.push_back(arr);
      sc.slk.push_back(slk);
    }
    for (size_t k = 0; k < sc.next.size(); ++k) {
      const uint32_t next = sc.next[k];
      Enter(next);
      Dfs(next, sc.arr[k], sc.slk[k], shard_.arena.Push(node, next));
      Leave(next);
    }
  }

  /// Per-depth gather scratch: parallel (neighbor, arrival, slack) rows
  /// produced by pass 1 of the batched extend.
  struct DepthScratch {
    std::vector<uint32_t> next;
    std::vector<double> arr;
    std::vector<double> slk;
  };

  const DfsContext& ctx_;
  vdps_internal::EnumerationShard& shard_;
  std::vector<DepthScratch> scratch_;
  std::vector<bool> in_route_;
  /// The current set, kept sorted ascending — the enumerators key set
  /// stores by sorted id sequences, and maintaining the key incrementally
  /// (|key| <= max_set_size) replaces the old copy+sort per Record.
  std::vector<uint32_t> key_;
  /// Goal points in key_ (focused runs only).
  uint32_t goals_ = 0;
};

}  // namespace

GenerationResult GenerateCVdpsSequences(const Instance& instance,
                                        const VdpsConfig& config,
                                        ThreadPool* pool,
                                        const EnumerationFocus* focus) {
  GenerationResult result;
  const uint32_t n = static_cast<uint32_t>(instance.num_delivery_points());
  if (n == 0) return result;

  // ε-adjacency precompute: one radius query per delivery point up front
  // instead of one per expanded DFS state, plus the travel time of every
  // edge. A focused run brings its own adjacency and times only its edges.
  vdps_internal::TravelGraph graph;
  if (focus == nullptr) {
    graph = vdps_internal::BuildTravelGraph(instance, config, pool,
                                            &result.counters);
  } else {
    graph.times = EdgeTravelTimes(instance.center(),
                                  instance.DeliveryPointLocations(),
                                  focus->adjacency, instance.travel());
  }

  DfsContext ctx;
  ctx.instance = &instance;
  ctx.config = &config;
  ctx.adj = focus != nullptr ? &focus->adjacency : &graph.adj;
  ctx.times = &graph.times;
  ctx.hops = focus != nullptr ? &focus->hops : nullptr;
  ctx.n = n;
  ctx.cap = config.max_set_size == 0 ? n : std::min(config.max_set_size, n);
  ctx.earliest_expiry.resize(n);
  ctx.total_reward.resize(n);
  for (uint32_t j = 0; j < n; ++j) {
    const DeliveryPoint& dp = instance.delivery_point(j);
    ctx.earliest_expiry[j] = dp.earliest_expiry();
    ctx.total_reward[j] = dp.total_reward();
  }

  // max_entries > 0 forces a single shard: the truncation point is
  // path-dependent, and only the serial path reproduces it exactly.
  const bool parallel = pool != nullptr && pool->num_threads() > 1 &&
                        config.max_entries == 0 && n > 1;
  std::vector<vdps_internal::EnumerationShard> shards;
  Stopwatch enum_sw;
  {
    FTA_SPAN("vdps/enumerate");
    if (parallel) {
      shards.resize(ThreadPool::NumChunks(n, kRootsPerShard));
      pool->RunChunked(n, kRootsPerShard,
                       [&](size_t chunk, size_t begin, size_t end) {
                         FTA_SPAN("vdps/enumerate_shard");
                         ShardDfs dfs(ctx, shards[chunk]);
                         dfs.RunRoots(static_cast<uint32_t>(begin),
                                      static_cast<uint32_t>(end));
                       });
    } else {
      shards.resize(1);
      ShardDfs dfs(ctx, shards[0]);
      dfs.RunRoots(0, n);
    }
  }
  result.counters.enumerate_ms = enum_sw.ElapsedMillis();

  Stopwatch fin_sw;
  {
    FTA_SPAN("vdps/finalize");
    vdps_internal::FinalizeShards(shards, config, result);
  }
  result.counters.finalize_ms = fin_sw.ElapsedMillis();
  if (!std::isinf(config.epsilon)) result.adjacency = std::move(graph.adj);
  if (result.truncated) {
    FTA_LOG(kWarning) << "C-VDPS generation truncated at "
                      << result.entries.size() << " entries";
  }
  return result;
}

}  // namespace fta

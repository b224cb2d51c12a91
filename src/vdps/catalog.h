#ifndef FTA_VDPS_CATALOG_H_
#define FTA_VDPS_CATALOG_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "geo/grid_index.h"
#include "model/instance.h"
#include "model/route.h"
#include "util/math_util.h"
#include "util/status.h"

namespace fta {

/// Observability counters of one catalog generation run. Counts are exact
/// (incremented on the hot paths, summed across shards deterministically).
struct GenerationCounters {
  /// Feasible partial sequences visited (DP states for the exact engine).
  uint64_t states_expanded = 0;
  /// Raw (route, center_time, slack) options recorded into set stores.
  uint64_t options_recorded = 0;
  /// Pareto-frontier acceptances across all sets.
  uint64_t pareto_inserts = 0;
  /// Options removed from a frontier again (dominated later, or cap).
  uint64_t pareto_evictions = 0;
  /// C-VDPS entries produced.
  uint64_t entries = 0;
  /// Route-arena nodes allocated (== states for the sequence engines).
  uint64_t arena_nodes = 0;
  /// Total arena heap footprint in bytes.
  uint64_t arena_bytes = 0;
  /// Total adjacency list length: the ε-adjacency's, n² for the complete
  /// graph an ε = ∞ run extends along.
  uint64_t adjacency_pairs = 0;
  /// Enumeration shards (1 when serial).
  uint64_t shards = 0;
  /// States expanded by the busiest shard — shard-imbalance numerator
  /// (perfect balance has max_shard_states ≈ states_expanded / shards).
  uint64_t max_shard_states = 0;
  /// Worker strategies materialized.
  uint64_t strategies = 0;

  double adjacency_ms = 0.0;
  double enumerate_ms = 0.0;
  double finalize_ms = 0.0;
  double strategies_ms = 0.0;
  /// End-to-end VdpsCatalog::Generate wall time.
  double wall_ms = 0.0;

  /// Accumulates another run's counters (multi-center aggregation): counts
  /// and times add, max_shard_states takes the max.
  void Merge(const GenerationCounters& o);
};

/// One center-origin delivery point sequence retained for a C-VDPS: the
/// route, its final arrival time when starting at the center at time 0, and
/// its slack (the largest start delay that still meets every deadline).
struct SequenceOption {
  Route route;
  /// Arrival at the last delivery point for a start offset of 0.
  double center_time = 0.0;
  /// max o >= 0 such that starting the route at time o still meets every
  /// deadline: o <= min_i (e_i - arrival_i).
  double slack = 0.0;
};

/// A Center-origin Valid Delivery Point Set (C-VDPS, Section IV): a set of
/// delivery points for which at least one deadline-feasible sequence from
/// the distribution center exists. Keeps a small Pareto frontier of
/// sequences over (center_time minimized, slack maximized): the fastest
/// sequence for nearby workers, plus slower but slack-richer orderings that
/// admit farther workers.
struct CVdpsEntry {
  /// The delivery point set, sorted ascending.
  std::vector<uint32_t> dps;
  /// Total reward collected by visiting every point of the set.
  double total_reward = 0.0;
  /// Pareto frontier, sorted by center_time ascending (slack ascending).
  std::vector<SequenceOption> options;

  /// The fastest sequence whose slack admits a start offset of `offset`,
  /// or nullptr if the set is infeasible for that offset.
  ///
  /// The frontier is sorted by center_time ascending AND slack ascending
  /// (see InsertParetoOptionT; the generators assert the invariant after
  /// every merge), so the admissible options form a suffix and the first
  /// one — found by binary search on slack — is the fastest.
  const SequenceOption* BestOptionFor(double offset) const {
    const auto it = std::lower_bound(
        options.begin(), options.end(), offset,
        [](const SequenceOption& o, double off) {
          return o.slack + kEps < off;
        });
    return it == options.end() ? nullptr : &*it;
  }
};

/// Deep self-check of one catalog entry (FTA_VALIDATE contract): `dps`
/// strictly ascending and in range, total_reward consistent with the
/// instance, the Pareto frontier sorted by (center_time asc, slack asc),
/// and every retained sequence a deadline-feasible permutation of `dps`
/// whose recorded center_time/slack match a fresh center-origin
/// evaluation.
Status ValidateCVdpsEntry(const Instance& instance, const CVdpsEntry& entry);

/// Tuning knobs for C-VDPS generation.
struct VdpsConfig {
  /// Distance-constrained pruning threshold ε (Section IV): when extending
  /// a sequence at dp_j, only delivery points within distance ε of dp_j are
  /// considered. kInfinity disables pruning (the paper's "-W" variants).
  double epsilon = kInfinity;
  /// Global cap on |VDPS|; the effective cap also respects each worker's
  /// maxDP when strategies are materialized. 0 means "no cap" (use with the
  /// exact engine on tiny instances only).
  uint32_t max_set_size = 4;
  /// Maximum Pareto options kept per C-VDPS.
  uint32_t max_pareto = 4;
  /// Soft cap on the number of generated C-VDPS entries (0 = unlimited).
  /// Generation stops expanding once reached; a warning is logged.
  size_t max_entries = 0;
  /// Force the exact bitmask dynamic program (Algorithm 1). Requires
  /// |dc.DP| <= 24. The default sequence enumerator produces identical
  /// catalogs for matched (epsilon, max_set_size) and scales much further.
  /// Takes precedence over beam_width.
  bool use_exact_dp = false;
  /// When > 0 (and use_exact_dp is off), generate with the approximate
  /// level-wise beam search instead of the exhaustive enumerator — the
  /// scalable choice for large max_set_size. See GenerateCVdpsBeam.
  size_t beam_width = 0;
  /// Threads for catalog construction: sharded sequence enumeration, beam
  /// level extension, ε-adjacency precompute, and per-worker strategy
  /// materialization. Catalogs are bit-identical at any thread count —
  /// shard results merge in a fixed root/chunk order that scheduling
  /// cannot disturb. <= 1 keeps everything on the calling thread. When
  /// max_entries > 0 the sequence enumerator runs single-sharded so the
  /// truncation point stays exactly the serial one.
  size_t num_threads = 1;
  /// Non-owning external pool for catalog construction. When set it
  /// overrides `num_threads` (an injected 1-thread pool keeps generation
  /// serial) and must outlive the Generate() call — long-lived callers
  /// reuse one pool instead of spawning workers per generation. Catalogs
  /// are bit-identical either way. Generate() does not retain the
  /// pointer: the config stored in the catalog has it scrubbed to null.
  ThreadPool* pool = nullptr;
};

/// One tick of instance churn, described against the catalog's OLD
/// indexing: the removed old indices, with every added worker / delivery
/// point appended at the TAIL of the new instance (so new-index order is
/// "old survivors first, in old relative order, then the additions in
/// new-instance order"). This is exactly the dense-compaction layout the
/// streaming dispatcher maintains, and it is what keeps the incremental
/// patch order-preserving: survivor ids stay monotone, so every sorted
/// structure in the catalog can be remapped without re-sorting.
struct CatalogDeltaPlan {
  /// Old worker indices removed, strictly ascending.
  std::vector<uint32_t> removed_workers;
  /// Old delivery point indices removed, strictly ascending.
  std::vector<uint32_t> removed_dps;
  /// Workers appended at the tail of the new instance.
  size_t added_workers = 0;
  /// Delivery points appended at the tail of the new instance.
  size_t added_dps = 0;

  bool empty() const {
    return removed_workers.empty() && removed_dps.empty() &&
           added_workers == 0 && added_dps == 0;
  }
};

/// Observability counters of catalog delta application — the incremental
/// counterpart of GenerationCounters, reported per ApplyDelta call and
/// summed over a stream run so benches can compare delta-apply cost against
/// full regeneration directly.
struct DeltaCounters {
  uint64_t deltas_applied = 0;
  uint64_t workers_removed = 0;
  uint64_t workers_added = 0;
  uint64_t dps_removed = 0;
  uint64_t dps_added = 0;
  uint64_t entries_removed = 0;
  uint64_t entries_added = 0;
  uint64_t strategies_removed = 0;
  uint64_t strategies_added = 0;
  /// Delivery points in the ε-ball neighborhood sub-instance enumerated
  /// for the added points (0 when a delta adds no delivery point) — the
  /// incremental work set, versus |DP| for a full regeneration.
  uint64_t neighborhood_dps = 0;
  /// DFS states expanded by the neighborhood sub-enumeration.
  uint64_t subenum_states = 0;

  double adjacency_ms = 0.0;
  double enumerate_ms = 0.0;
  double strategies_ms = 0.0;
  /// End-to-end ApplyDelta wall time.
  double wall_ms = 0.0;

  /// Accumulates another delta's counters (stream aggregation).
  void Merge(const DeltaCounters& o);
};

/// One strategy of a worker in the FTA game: a VDPS (catalog entry) plus
/// the sequence and payoff for that worker. A flat 32-byte record: the
/// sequence is named by its index into the entry's Pareto frontier and
/// read through VdpsCatalog::route(), so building, filtering, remapping
/// and merging strategies never touches a route. The null strategy is
/// represented implicitly (see StrategySpace).
struct WorkerStrategy {
  /// Index into VdpsCatalog::entries().
  uint32_t entry_id = 0;
  /// Index into the entry's `options` of the sequence the worker would
  /// follow: the fastest one admitting the worker's offset (BestOptionFor).
  uint32_t option = 0;
  /// Worker travel time from its location through the full route.
  double total_time = 0.0;
  double total_reward = 0.0;
  /// P(w, VDPS(w)) (Definition 7).
  double payoff = 0.0;
};
static_assert(std::is_trivially_copyable_v<WorkerStrategy>);
static_assert(sizeof(WorkerStrategy) == 32);

/// The set of C-VDPSs of one instance plus per-worker strategy
/// materialization. Generated once and shared by every solver.
class VdpsCatalog {
 public:
  /// Runs C-VDPS generation (sequence enumerator by default, Algorithm 1's
  /// exact DP when config.use_exact_dp) and builds per-worker strategies.
  static VdpsCatalog Generate(const Instance& instance,
                              const VdpsConfig& config);

  /// Incrementally patches this catalog from the instance it was generated
  /// against to `new_instance`, described by `plan` (removals by old index,
  /// additions appended at the tail — see CatalogDeltaPlan). The result is
  /// bit-identical to `Generate(new_instance, config())`, entry for entry,
  /// strategy for strategy (pinned by tests/stream_identity_test.cc), at a
  /// fraction of the cost:
  ///
  ///   - removals are pure filters + monotone renumbering (no enumeration,
  ///     no route evaluation);
  ///   - added delivery points enumerate only their ε-ball neighborhood
  ///     (every C-VDPS containing an added point is a path in the
  ///     ε-adjacency graph, so its members lie within max_set_size - 1
  ///     hops), with the ε-adjacency CSR patched in place, and the ball's
  ///     DFS only follows paths that can still reach an added point;
  ///   - added workers materialize only their own strategies; existing
  ///     workers evaluate only the new entries.
  ///
  /// Unsupported configurations return an error and leave the catalog
  /// untouched: beam-search catalogs (the beam's global top-k selection is
  /// not locally patchable) and truncated/max_entries catalogs (the
  /// truncation point is path-dependent). With ε = ∞ the "neighborhood" is
  /// every delivery point — correct, but with no enumeration savings.
  ///
  /// `counters`, when non-null, receives this call's DeltaCounters.
  Status ApplyDelta(const Instance& new_instance,
                    const CatalogDeltaPlan& plan,
                    DeltaCounters* counters = nullptr);

  const std::vector<CVdpsEntry>& entries() const { return entries_; }
  const CVdpsEntry& entry(size_t i) const { return entries_[i]; }
  size_t num_entries() const { return entries_.size(); }

  /// Strategies available to worker w (VDPS(w) of Section V-B, minus the
  /// null strategy which every worker implicitly has). Sorted by payoff
  /// descending.
  const std::vector<WorkerStrategy>& strategies(size_t worker_id) const {
    return strategies_[worker_id];
  }
  size_t num_workers() const { return strategies_.size(); }

  /// The sequence strategy `st` follows: option `st.option` of entry
  /// `st.entry_id`. The one way to read a strategy's route.
  const Route& route(const WorkerStrategy& st) const {
    return entries_[st.entry_id].options[st.option].route;
  }

  /// Contiguous copy of strategies(worker_id)[i].payoff (same order, same
  /// bits) — the SoA array the BestResponseEngine's candidate scan streams
  /// instead of striding through WorkerStrategy structs. Rebuilt whenever
  /// strategies change (Generate, ApplyDelta); ValidateInvariants pins the
  /// bitwise agreement.
  const std::vector<double>& strategy_payoffs(size_t worker_id) const {
    return strategy_payoffs_[worker_id];
  }

  /// max_w |VDPS(w)| — the |maxVDPS| factor in the paper's complexity
  /// bounds.
  size_t MaxStrategiesPerWorker() const;

  /// True if generation hit the max_entries cap (results may be partial).
  bool truncated() const { return truncated_; }

  /// The configuration this catalog was generated with. ApplyDelta reuses
  /// it so the patched catalog answers for Generate(new_instance, config()).
  const VdpsConfig& config() const { return config_; }

  /// The ε-adjacency CSR the generation engine enumerated with, patched in
  /// place by ApplyDelta. Empty when ε = ∞ disabled pruning (check
  /// has_adjacency()).
  const RadiusAdjacency& adjacency() const { return adjacency_; }
  bool has_adjacency() const { return adjacency_.num_points() > 0; }

  /// Index of the entry whose delivery point set equals `dps` (sorted
  /// ascending), or -1. Binary search over the canonical (size asc, lex
  /// asc) entry order.
  int32_t FindEntry(std::span<const uint32_t> dps) const;

  /// Index into strategies(worker) of the strategy referencing `entry_id`,
  /// or -1. Linear scan of the worker's payoff-sorted list (a worker holds
  /// at most one strategy per entry).
  int32_t FindStrategy(size_t worker, uint32_t entry_id) const;

  /// Counters of the generation run that built this catalog.
  const GenerationCounters& generation() const { return gen_; }

  /// Deep self-check (FTA_VALIDATE contract, run once at the end of
  /// Generate): every entry passes ValidateCVdpsEntry, per-worker
  /// strategies are payoff-sorted, reference existing entries, respect
  /// maxDP, and carry the option/total_time/payoff that BestOptionFor would
  /// materialize today.
  Status ValidateInvariants(const Instance& instance) const;

  /// Summary line for logs: entry/strategy counts.
  std::string Summary() const;

 private:
  /// Recomputes strategy_payoffs_ from strategies_ (O(total strategies));
  /// called by Generate and ApplyDelta after strategies settle.
  void RebuildStrategyPayoffs();

  std::vector<CVdpsEntry> entries_;
  std::vector<std::vector<WorkerStrategy>> strategies_;
  /// strategy_payoffs_[w][i] == strategies_[w][i].payoff, bit for bit.
  std::vector<std::vector<double>> strategy_payoffs_;
  /// |DP| of the instance this catalog answers for (ApplyDelta's old size).
  size_t num_dps_ = 0;
  GenerationCounters gen_;
  VdpsConfig config_;
  RadiusAdjacency adjacency_;
  bool truncated_ = false;
};

}  // namespace fta

#endif  // FTA_VDPS_CATALOG_H_

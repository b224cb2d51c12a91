#ifndef FTA_VDPS_GENERATORS_H_
#define FTA_VDPS_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "geo/grid_index.h"
#include "model/instance.h"
#include "vdps/catalog.h"

namespace fta {

class ThreadPool;

/// Result of a raw C-VDPS generation pass (before per-worker strategy
/// materialization).
struct GenerationResult {
  std::vector<CVdpsEntry> entries;
  /// True if the max_entries cap stopped the search early.
  bool truncated = false;
  /// The ε-adjacency CSR the engine enumerated with (empty when ε = ∞:
  /// the complete graph is not kept). Handed to the catalog so ApplyDelta
  /// can patch it in place instead of re-running every radius query.
  RadiusAdjacency adjacency;
  /// Generation observability (states, Pareto traffic, arena footprint,
  /// shard balance, phase timings).
  GenerationCounters counters;
};

/// Exact C-VDPS generation following Algorithm 1: a dynamic program over
/// (subset, last delivery point) states with deadline checks, optionally
/// restricted by the ε-pruning predicate of Section IV and capped at
/// config.max_set_size. Requires |dc.DP| <= 24 (checked). Always serial —
/// this is the small-instance reference engine.
GenerationResult GenerateCVdpsExact(const Instance& instance,
                                    const VdpsConfig& config);

/// Goal-directed restriction of GenerateCVdpsSequences, passed only by
/// VdpsCatalog::ApplyDelta for its ε-ball sub-enumeration: only the sets
/// that hold a goal point (a delivery point the delta added) are wanted.
/// The DFS expands a partial sequence only while its set holds a goal or
/// the goal nearest to its last point is within the remaining hops, and
/// interns a set only once it holds a goal. Every path of a wanted set
/// passes both tests at every prefix, so such a set gets the same raw
/// options in the same order as an unfocused run (delta.cc states the
/// full argument).
struct EnumerationFocus {
  /// Per delivery point of the instance: ε-hop distance to the nearest
  /// goal point (0 for a goal point itself).
  std::vector<uint32_t> hops;
  /// The instance's ε-adjacency (the complete graph when ε = ∞),
  /// enumerated along instead of building a GridIndex.
  RadiusAdjacency adjacency;
};

/// Scalable C-VDPS generation: depth-first enumeration of deadline-feasible
/// delivery point sequences from the center, extending only along the
/// precomputed ε-adjacency of the current point and at most max_set_size
/// deep. Sequences are merged per set into Pareto frontiers. Produces the
/// same catalog as GenerateCVdpsExact for matched parameters.
///
/// A non-null `pool` shards the enumeration over the level-1 frontier (one
/// shard per feasible first delivery point, each with a private route
/// arena and set store) and merges the shard stores in root order — the
/// catalog is bit-identical to the serial run at any thread count. When
/// config.max_entries > 0 the run stays single-sharded so the truncation
/// point matches the serial enumeration exactly.
///
/// A non-null `focus` restricts the run to the sets holding a goal point
/// (see EnumerationFocus).
GenerationResult GenerateCVdpsSequences(
    const Instance& instance, const VdpsConfig& config,
    ThreadPool* pool = nullptr, const EnumerationFocus* focus = nullptr);

/// Approximate C-VDPS generation for large max_set_size, where exhaustive
/// sequence enumeration explodes combinatorially: a level-wise beam search
/// that keeps only the `beam_width` most promising partial sequences per
/// length (scored by payoff rate, reward / travel time). Sound — every
/// produced entry is a genuine C-VDPS with a feasible sequence — but not
/// complete: low-scoring sets may be missed. With beam_width >= the number
/// of feasible partial sequences at every level it matches
/// GenerateCVdpsSequences.
///
/// A non-null `pool` parallelizes each level's extension scan in fixed
/// chunk order (recording and beam shrinking stay serial), so the result
/// is bit-identical at any thread count.
GenerationResult GenerateCVdpsBeam(const Instance& instance,
                                   const VdpsConfig& config,
                                   size_t beam_width,
                                   ThreadPool* pool = nullptr);

}  // namespace fta

#endif  // FTA_VDPS_GENERATORS_H_

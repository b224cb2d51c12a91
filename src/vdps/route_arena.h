#ifndef FTA_VDPS_ROUTE_ARENA_H_
#define FTA_VDPS_ROUTE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/route.h"

namespace fta {

/// Prefix-sharing storage for center-origin delivery point sequences.
///
/// The sequence enumerators extend a partial route one delivery point at a
/// time, so the set of explored routes forms a tree rooted at the center.
/// Instead of copying the whole `Route` vector on every extension (an O(k)
/// copy plus a heap allocation per feasible state), each state stores one
/// 8-byte node `(parent, dp)`; the full route materializes on demand by
/// walking the parent chain — only for the options that actually survive
/// Pareto selection.
///
/// Nodes are append-only and identified by dense `uint32_t` handles, so an
/// arena is trivially shareable read-only across threads once its writer
/// is done appending. Each enumeration shard owns a private arena.
class RouteArena {
 public:
  /// Parent handle of a root node (a route of length 1).
  static constexpr uint32_t kNone = 0xffffffffu;

  /// Appends the route `parent route + dp` and returns its handle.
  uint32_t Push(uint32_t parent, uint32_t dp) {
    nodes_.push_back(Node{parent, dp});
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  uint32_t parent(uint32_t node) const { return nodes_[node].parent; }
  uint32_t dp(uint32_t node) const { return nodes_[node].dp; }

  size_t num_nodes() const { return nodes_.size(); }
  /// Heap footprint of the node storage.
  size_t bytes() const { return nodes_.capacity() * sizeof(Node); }

  void Reserve(size_t nodes) { nodes_.reserve(nodes); }

  /// Number of delivery points on the route ending at `node`.
  uint32_t Depth(uint32_t node) const;

  /// True if `dp` appears on the route ending at `node`. O(depth).
  bool Contains(uint32_t node, uint32_t dp) const;

  /// Writes the route ending at `node` into `out` in visit order
  /// (center-origin first hop at index 0). Replaces `out`'s contents; an
  /// empty `out` is allocated once, at the route's exact length.
  void Materialize(uint32_t node, Route& out) const;

  /// Convenience allocation-per-call variant of Materialize.
  Route Materialize(uint32_t node) const;

 private:
  struct Node {
    uint32_t parent;
    uint32_t dp;
  };
  std::vector<Node> nodes_;
};

}  // namespace fta

#endif  // FTA_VDPS_ROUTE_ARENA_H_

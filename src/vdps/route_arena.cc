#include "vdps/route_arena.h"

namespace fta {

uint32_t RouteArena::Depth(uint32_t node) const {
  uint32_t depth = 0;
  for (uint32_t at = node; at != kNone; at = nodes_[at].parent) ++depth;
  return depth;
}

bool RouteArena::Contains(uint32_t node, uint32_t dp) const {
  for (uint32_t at = node; at != kNone; at = nodes_[at].parent) {
    if (nodes_[at].dp == dp) return true;
  }
  return false;
}

void RouteArena::Materialize(uint32_t node, Route& out) const {
  out.resize(Depth(node));
  size_t i = out.size();
  for (uint32_t at = node; at != kNone; at = nodes_[at].parent) {
    out[--i] = nodes_[at].dp;
  }
}

Route RouteArena::Materialize(uint32_t node) const {
  Route out;
  Materialize(node, out);
  return out;
}

}  // namespace fta

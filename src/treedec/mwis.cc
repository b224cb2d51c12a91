#include "treedec/mwis.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "util/logging.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace fta {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Per-bag DP table: value of the best selection in the subtree rooted at
/// the bag, for each independent subset (bitmask over the bag's vertices).
struct BagTable {
  std::vector<double> value;  // 2^|bag| entries; -inf for dependent subsets
};

/// Bit positions of `verts` (a sorted subset of `bag`) within `bag`.
uint32_t ProjectMask(const std::vector<uint32_t>& bag, uint32_t mask,
                     const std::vector<uint32_t>& subset) {
  // Returns the bits of `mask` (over bag) restricted to the positions of
  // `subset`'s vertices, re-packed in subset order.
  uint32_t out = 0;
  for (size_t s = 0; s < subset.size(); ++s) {
    const auto it = std::lower_bound(bag.begin(), bag.end(), subset[s]);
    const size_t pos = static_cast<size_t>(it - bag.begin());
    if (mask & (1u << pos)) out |= (1u << s);
  }
  return out;
}

/// Independence marks for all subsets of `bag`: valid[S] iff no edge of
/// `graph` joins two selected members.
std::vector<bool> IndependentSubsets(const Graph& graph,
                                     const std::vector<uint32_t>& bag) {
  const size_t k = bag.size();
  // adj_mask[i] = bag positions adjacent to bag[i].
  std::vector<uint32_t> adj_mask(k, 0);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      if (i != j && graph.HasEdge(bag[i], bag[j])) {
        adj_mask[i] |= (1u << j);
      }
    }
  }
  std::vector<bool> valid(1u << k, false);
  valid[0] = true;
  for (uint32_t s = 1; s < (1u << k); ++s) {
    const uint32_t low = static_cast<uint32_t>(__builtin_ctz(s));
    const uint32_t rest = s & (s - 1);
    valid[s] = valid[rest] && (adj_mask[low] & rest) == 0;
  }
  return valid;
}

double SubsetWeight(const std::vector<uint32_t>& bag, uint32_t mask,
                    const std::vector<double>& weights) {
  double w = 0.0;
  for (size_t i = 0; i < bag.size(); ++i) {
    if (mask & (1u << i)) w += weights[bag[i]];
  }
  return w;
}

}  // namespace

StatusOr<MwisResult> MwisOverTreeDecomposition(
    const Graph& graph, const std::vector<double>& weights,
    const TreeDecomposition& td, int max_width) {
  FTA_CHECK(weights.size() == graph.num_vertices());
  if (td.width() > max_width) {
    return Status::FailedPrecondition(
        StrFormat("tree decomposition width %d exceeds cap %d", td.width(),
                  max_width));
  }
  const size_t num_bags = td.num_bags();
  if (num_bags == 0) return MwisResult{};

  std::vector<BagTable> tables(num_bags);
  std::vector<std::vector<bool>> valid(num_bags);

  // Bags are indexed in elimination order: children precede parents, so a
  // single ascending pass is a bottom-up traversal.
  for (size_t b = 0; b < num_bags; ++b) {
    const std::vector<uint32_t>& bag = td.bag(b);
    const size_t k = bag.size();
    valid[b] = IndependentSubsets(graph, bag);
    tables[b].value.assign(1u << k, kNegInf);
    // Local weight of each independent subset.
    for (uint32_t s = 0; s < (1u << k); ++s) {
      if (valid[b][s]) tables[b].value[s] = SubsetWeight(bag, s, weights);
    }
    // Fold children in: for child c with intersection I = bag(c) ∩ bag(b),
    // g_c(P) = max over child subsets agreeing with P on I of
    // (child value - w(P)); then value[b][S] += g_c(S ∩ I).
    for (uint32_t c : td.children(b)) {
      const std::vector<uint32_t>& cbag = td.bag(c);
      std::vector<uint32_t> inter;
      std::set_intersection(bag.begin(), bag.end(), cbag.begin(), cbag.end(),
                            std::back_inserter(inter));
      std::unordered_map<uint32_t, double> g;
      for (uint32_t sc = 0; sc < tables[c].value.size(); ++sc) {
        if (tables[c].value[sc] == kNegInf) continue;
        const uint32_t p = ProjectMask(cbag, sc, inter);
        const double v =
            tables[c].value[sc] - SubsetWeight(inter, p, weights);
        auto [it, inserted] = g.emplace(p, v);
        if (!inserted && v > it->second) it->second = v;
      }
      for (uint32_t s = 0; s < (1u << k); ++s) {
        if (tables[b].value[s] == kNegInf) continue;
        const uint32_t p = ProjectMask(bag, s, inter);
        const auto it = g.find(p);
        if (it == g.end()) {
          tables[b].value[s] = kNegInf;  // no compatible child selection
        } else {
          tables[b].value[s] += it->second;
        }
      }
    }
  }

  // Extract: choose the best subset at each root, then walk down re-deriving
  // each child's argmax under its parent's interface constraint.
  MwisResult result;
  std::vector<std::pair<uint32_t, uint32_t>> stack;  // (bag, chosen mask)
  for (uint32_t r : td.roots()) {
    uint32_t best_mask = 0;
    double best = kNegInf;
    for (uint32_t s = 0; s < tables[r].value.size(); ++s) {
      if (tables[r].value[s] > best) {
        best = tables[r].value[s];
        best_mask = s;
      }
    }
    if (best == kNegInf) continue;
    result.weight += best;
    stack.emplace_back(r, best_mask);
  }
  std::vector<bool> chosen(graph.num_vertices(), false);
  while (!stack.empty()) {
    const auto [b, mask] = stack.back();
    stack.pop_back();
    const std::vector<uint32_t>& bag = td.bag(b);
    for (size_t i = 0; i < bag.size(); ++i) {
      if (mask & (1u << i)) chosen[bag[i]] = true;
    }
    for (uint32_t c : td.children(b)) {
      const std::vector<uint32_t>& cbag = td.bag(c);
      std::vector<uint32_t> inter;
      std::set_intersection(bag.begin(), bag.end(), cbag.begin(), cbag.end(),
                            std::back_inserter(inter));
      const uint32_t parent_p = ProjectMask(bag, mask, inter);
      uint32_t best_mask = 0;
      double best = kNegInf;
      for (uint32_t sc = 0; sc < tables[c].value.size(); ++sc) {
        if (tables[c].value[sc] == kNegInf) continue;
        if (ProjectMask(cbag, sc, inter) != parent_p) continue;
        const double v = tables[c].value[sc] -
                         SubsetWeight(inter, parent_p, weights);
        if (v > best) {
          best = v;
          best_mask = sc;
        }
      }
      FTA_CHECK_MSG(best != kNegInf, "inconsistent MWIS reconstruction");
      stack.emplace_back(c, best_mask);
    }
  }
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    if (chosen[v]) result.selected.push_back(v);
  }
  return result;
}

MwisResult MwisGreedy(const Graph& graph, const std::vector<double>& weights) {
  const size_t n = graph.num_vertices();
  std::vector<uint32_t> order(n);
  for (uint32_t v = 0; v < n; ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    return a < b;
  });
  std::vector<bool> blocked(n, false);
  MwisResult result;
  for (uint32_t v : order) {
    if (blocked[v] || weights[v] <= 0.0) continue;
    result.selected.push_back(v);
    result.weight += weights[v];
    blocked[v] = true;
    for (uint32_t u : graph.Neighbors(v)) blocked[u] = true;
  }
  std::sort(result.selected.begin(), result.selected.end());
  return result;
}

}  // namespace fta

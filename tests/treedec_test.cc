#include <gtest/gtest.h>

#include <vector>

#include "support/mwis_brute_force.h"
#include "treedec/graph.h"
#include "treedec/mwis.h"
#include "treedec/tree_decomposition.h"
#include "util/rng.h"

namespace fta {
namespace {

Graph RandomGraph(size_t n, double edge_prob, Rng& rng) {
  Graph g(n);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(edge_prob)) g.AddEdge(u, v);
    }
  }
  return g;
}

std::vector<double> RandomWeights(size_t n, Rng& rng) {
  std::vector<double> w(n);
  for (double& x : w) x = rng.Uniform(0.1, 10.0);
  return w;
}

// ----------------------------------------------------------------- Graph --

TEST(GraphTest, AddAndQueryEdges) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Degree(0), 1u);
}

TEST(GraphTest, IgnoresSelfLoopsAndDuplicates) {
  Graph g(3);
  g.AddEdge(1, 1);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphTest, NeighborsSorted) {
  Graph g(5);
  g.AddEdge(2, 4);
  g.AddEdge(2, 0);
  g.AddEdge(2, 3);
  EXPECT_EQ(g.Neighbors(2), (std::vector<uint32_t>{0, 3, 4}));
}

// ----------------------------------------------------- TreeDecomposition --

TEST(TreeDecompositionTest, PathGraphHasWidthOne) {
  Graph g(5);
  for (uint32_t i = 0; i + 1 < 5; ++i) g.AddEdge(i, i + 1);
  const TreeDecomposition td = TreeDecomposition::Build(g);
  EXPECT_EQ(td.width(), 1);
  EXPECT_TRUE(td.Validate(g).ok());
}

TEST(TreeDecompositionTest, CliqueHasFullWidth) {
  Graph g(5);
  for (uint32_t u = 0; u < 5; ++u) {
    for (uint32_t v = u + 1; v < 5; ++v) g.AddEdge(u, v);
  }
  const TreeDecomposition td = TreeDecomposition::Build(g);
  EXPECT_EQ(td.width(), 4);
  EXPECT_TRUE(td.Validate(g).ok());
}

TEST(TreeDecompositionTest, EmptyAndIsolatedVertices) {
  Graph g(3);  // no edges
  const TreeDecomposition td = TreeDecomposition::Build(g);
  EXPECT_EQ(td.width(), 0);
  EXPECT_EQ(td.roots().size(), 3u);
  EXPECT_TRUE(td.Validate(g).ok());
}

class TreeDecompositionPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TreeDecompositionPropertyTest, RandomGraphsValidate) {
  Rng rng(GetParam());
  for (double p : {0.05, 0.15, 0.35}) {
    const Graph g = RandomGraph(5 + rng.Index(20), p, rng);
    for (auto heuristic : {EliminationHeuristic::kMinDegree,
                           EliminationHeuristic::kMinFill}) {
      const TreeDecomposition td = TreeDecomposition::Build(g, heuristic);
      EXPECT_TRUE(td.Validate(g).ok());
      EXPECT_EQ(td.num_bags(), g.num_vertices());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeDecompositionPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(TreeDecompositionTest, MinFillNoWorseOnGrid) {
  // 3x4 grid graph: treewidth 3; both heuristics should find small widths.
  const int rows = 3, cols = 4;
  Graph g(rows * cols);
  const auto id = [&](int r, int c) {
    return static_cast<uint32_t>(r * cols + c);
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.AddEdge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.AddEdge(id(r, c), id(r + 1, c));
    }
  }
  const int w_deg =
      TreeDecomposition::Build(g, EliminationHeuristic::kMinDegree).width();
  const int w_fill =
      TreeDecomposition::Build(g, EliminationHeuristic::kMinFill).width();
  EXPECT_GE(w_deg, 3);
  EXPECT_LE(w_fill, w_deg);
  EXPECT_LE(w_fill, 4);
}

TEST(TreeDecompositionTest, CycleHasWidthTwo) {
  Graph g(6);
  for (uint32_t i = 0; i < 6; ++i) g.AddEdge(i, (i + 1) % 6);
  const TreeDecomposition td = TreeDecomposition::Build(g);
  EXPECT_EQ(td.width(), 2);
  EXPECT_TRUE(td.Validate(g).ok());
}

TEST(TreeDecompositionTest, StarHasWidthOne) {
  Graph g(8);
  for (uint32_t i = 1; i < 8; ++i) g.AddEdge(0, i);
  const TreeDecomposition td = TreeDecomposition::Build(g);
  EXPECT_EQ(td.width(), 1);
  EXPECT_TRUE(td.Validate(g).ok());
}

TEST(TreeDecompositionTest, CompleteBipartiteK33) {
  // treewidth(K_{3,3}) = 3.
  Graph g(6);
  for (uint32_t u = 0; u < 3; ++u) {
    for (uint32_t v = 3; v < 6; ++v) g.AddEdge(u, v);
  }
  const TreeDecomposition td =
      TreeDecomposition::Build(g, EliminationHeuristic::kMinFill);
  EXPECT_GE(td.width(), 3);
  EXPECT_LE(td.width(), 4);  // heuristic may be off by a little
  EXPECT_TRUE(td.Validate(g).ok());
}

TEST(TreeDecompositionTest, ForestHasRootPerComponent) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);  // two edges + two isolated vertices = 4 components
  const TreeDecomposition td = TreeDecomposition::Build(g);
  EXPECT_EQ(td.roots().size(), 4u);
  EXPECT_TRUE(td.Validate(g).ok());
}

// ------------------------------------------------------------------ MWIS --

TEST(MwisTest, BruteForceSimple) {
  // Triangle with weights 1, 2, 3: best independent set is {2} alone.
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  const MwisResult r = MwisBruteForce(g, {1.0, 2.0, 3.0});
  EXPECT_EQ(r.selected, (std::vector<uint32_t>{2}));
  EXPECT_DOUBLE_EQ(r.weight, 3.0);
}

TEST(MwisTest, BruteForcePath) {
  // Path 0-1-2 with weights 2, 3, 2: {0, 2} beats {1}.
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const MwisResult r = MwisBruteForce(g, {2.0, 3.0, 2.0});
  EXPECT_EQ(r.selected, (std::vector<uint32_t>{0, 2}));
  EXPECT_DOUBLE_EQ(r.weight, 4.0);
}

class MwisPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MwisPropertyTest, TreeDpMatchesBruteForce) {
  Rng rng(GetParam() * 31 + 7);
  for (double p : {0.1, 0.25, 0.5}) {
    const size_t n = 4 + rng.Index(12);
    const Graph g = RandomGraph(n, p, rng);
    const std::vector<double> w = RandomWeights(n, rng);
    const TreeDecomposition td = TreeDecomposition::Build(g);
    const auto dp = MwisOverTreeDecomposition(g, w, td, 20);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    const MwisResult brute = MwisBruteForce(g, w);
    EXPECT_NEAR(dp->weight, brute.weight, 1e-9);
    // Verify the DP's selection is genuinely independent and sums right.
    double sum = 0.0;
    for (uint32_t v : dp->selected) sum += w[v];
    EXPECT_NEAR(sum, dp->weight, 1e-9);
    for (size_t i = 0; i < dp->selected.size(); ++i) {
      for (size_t j = i + 1; j < dp->selected.size(); ++j) {
        EXPECT_FALSE(g.HasEdge(dp->selected[i], dp->selected[j]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MwisPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(MwisTest, WidthCapRefuses) {
  Rng rng(99);
  const Graph g = RandomGraph(12, 0.8, rng);  // dense => wide
  const std::vector<double> w = RandomWeights(12, rng);
  const TreeDecomposition td = TreeDecomposition::Build(g);
  const auto r = MwisOverTreeDecomposition(g, w, td, 2);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MwisTest, GreedyIsIndependentAndNoWorseThanHalfOnPaths) {
  Rng rng(100);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 5 + rng.Index(15);
    const Graph g = RandomGraph(n, 0.2, rng);
    const std::vector<double> w = RandomWeights(n, rng);
    const MwisResult greedy = MwisGreedy(g, w);
    for (size_t i = 0; i < greedy.selected.size(); ++i) {
      for (size_t j = i + 1; j < greedy.selected.size(); ++j) {
        EXPECT_FALSE(g.HasEdge(greedy.selected[i], greedy.selected[j]));
      }
    }
    const MwisResult brute = MwisBruteForce(g, w);
    EXPECT_LE(greedy.weight, brute.weight + 1e-9);
    EXPECT_GT(greedy.weight, 0.0);
  }
}

TEST(MwisTest, EmptyGraph) {
  Graph g(0);
  const TreeDecomposition td = TreeDecomposition::Build(g);
  const auto r = MwisOverTreeDecomposition(g, {}, td);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->selected.empty());
  EXPECT_DOUBLE_EQ(r->weight, 0.0);
}

TEST(MwisTest, DisconnectedComponentsSummed) {
  // Two disjoint edges: take the heavier endpoint of each.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  const TreeDecomposition td = TreeDecomposition::Build(g);
  const auto r = MwisOverTreeDecomposition(g, {1.0, 5.0, 7.0, 2.0}, td);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->weight, 12.0);
  EXPECT_EQ(r->selected, (std::vector<uint32_t>{1, 2}));
}

}  // namespace
}  // namespace fta

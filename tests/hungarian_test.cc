#include "support/hungarian.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "baseline/gta.h"
#include "support/exhaustive.h"
#include "util/rng.h"
#include "vdps/catalog.h"

namespace fta {
namespace {

/// Brute-force max-weight matching for cross-checking (rows <= ~10).
double BruteForceMatching(const std::vector<std::vector<double>>& weights) {
  const size_t rows = weights.size();
  const size_t cols = rows == 0 ? 0 : weights[0].size();
  double best = 0.0;
  std::vector<int32_t> match(rows, -1);
  std::vector<bool> used(cols, false);
  const std::function<void(size_t, double)> rec = [&](size_t r, double acc) {
    if (r == rows) {
      best = std::max(best, acc);
      return;
    }
    rec(r + 1, acc);  // leave row r unmatched
    for (size_t c = 0; c < cols; ++c) {
      if (used[c] || weights[r][c] < 0.0) continue;
      used[c] = true;
      rec(r + 1, acc + weights[r][c]);
      used[c] = false;
    }
  };
  rec(0, 0.0);
  return best;
}

TEST(HungarianTest, EmptyMatrix) {
  const MatchingResult r = MaxWeightBipartiteMatching({});
  EXPECT_TRUE(r.match.empty());
  EXPECT_DOUBLE_EQ(r.weight, 0.0);
}

TEST(HungarianTest, SimpleDiagonalOptimum) {
  const MatchingResult r = MaxWeightBipartiteMatching({{5.0, 1.0},
                                                       {1.0, 5.0}});
  EXPECT_EQ(r.match, (std::vector<int32_t>{0, 1}));
  EXPECT_DOUBLE_EQ(r.weight, 10.0);
}

TEST(HungarianTest, CrossAssignmentWhenBetter) {
  const MatchingResult r = MaxWeightBipartiteMatching({{1.0, 5.0},
                                                       {5.0, 1.0}});
  EXPECT_EQ(r.match, (std::vector<int32_t>{1, 0}));
  EXPECT_DOUBLE_EQ(r.weight, 10.0);
}

TEST(HungarianTest, ForbiddenPairsRespected) {
  // Each row has exactly one allowed column (anti-diagonal).
  const MatchingResult r = MaxWeightBipartiteMatching({{-1.0, 3.0},
                                                       {4.0, -1.0}});
  EXPECT_EQ(r.match, (std::vector<int32_t>{1, 0}));
  EXPECT_DOUBLE_EQ(r.weight, 7.0);
}

TEST(HungarianTest, UnmatchedBeatsForcedCheapPair) {
  // Taking the 9 leaves row 1 with nothing: 9 beats 1 + 2.
  const MatchingResult r = MaxWeightBipartiteMatching({{1.0, 9.0},
                                                       {-1.0, 2.0}});
  EXPECT_EQ(r.match, (std::vector<int32_t>{1, -1}));
  EXPECT_DOUBLE_EQ(r.weight, 9.0);
}

TEST(HungarianTest, RowsCanStayUnmatched) {
  // One column, two rows: only the better row matches.
  const MatchingResult r = MaxWeightBipartiteMatching({{2.0}, {7.0}});
  EXPECT_EQ(r.match[0], -1);
  EXPECT_EQ(r.match[1], 0);
  EXPECT_DOUBLE_EQ(r.weight, 7.0);
}

TEST(HungarianTest, AllForbiddenGivesEmptyMatching) {
  const MatchingResult r = MaxWeightBipartiteMatching({{-1.0, -1.0},
                                                       {-1.0, -1.0}});
  EXPECT_EQ(r.match, (std::vector<int32_t>{-1, -1}));
  EXPECT_DOUBLE_EQ(r.weight, 0.0);
}

TEST(HungarianTest, MatchingIsInjective) {
  Rng rng(8);
  std::vector<std::vector<double>> w(6, std::vector<double>(4));
  for (auto& row : w) {
    for (double& x : row) x = rng.Uniform(0, 10);
  }
  const MatchingResult r = MaxWeightBipartiteMatching(w);
  std::vector<bool> used(4, false);
  for (int32_t c : r.match) {
    if (c < 0) continue;
    EXPECT_FALSE(used[static_cast<size_t>(c)]);
    used[static_cast<size_t>(c)] = true;
  }
}

class HungarianPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HungarianPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam() * 17 + 3);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t rows = 1 + rng.Index(6);
    const size_t cols = 1 + rng.Index(6);
    std::vector<std::vector<double>> w(rows, std::vector<double>(cols));
    for (auto& row : w) {
      for (double& x : row) {
        x = rng.Bernoulli(0.2) ? -1.0 : rng.Uniform(0, 10);  // some forbidden
      }
    }
    const MatchingResult r = MaxWeightBipartiteMatching(w);
    EXPECT_NEAR(r.weight, BruteForceMatching(w), 1e-6);
    // Reported weight equals the sum over the match vector.
    double sum = 0.0;
    for (size_t i = 0; i < rows; ++i) {
      if (r.match[i] >= 0) sum += w[i][static_cast<size_t>(r.match[i])];
    }
    EXPECT_NEAR(sum, r.weight, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HungarianPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------------ Singleton-optimal FTA --

Instance SingletonInstance(uint64_t seed, size_t num_dps,
                           size_t num_workers) {
  Rng rng(seed);
  std::vector<DeliveryPoint> dps;
  for (uint32_t d = 0; d < num_dps; ++d) {
    std::vector<SpatialTask> tasks(1 + rng.Index(4),
                                   SpatialTask{d, rng.Uniform(1.0, 4.0), 1.0});
    dps.emplace_back(Point{rng.Uniform(0, 8), rng.Uniform(0, 8)},
                     std::move(tasks));
  }
  std::vector<Worker> workers;
  for (size_t w = 0; w < num_workers; ++w) {
    workers.push_back(Worker{{rng.Uniform(0, 8), rng.Uniform(0, 8)}, 1});
  }
  return Instance(Point{4, 4}, std::move(dps), std::move(workers),
                  TravelModel(5.0));
}

class SingletonOptimalTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SingletonOptimalTest, MatchesExhaustiveMaxTotal) {
  const Instance inst = SingletonInstance(GetParam(), 6, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const Assignment hungarian = SolveSingletonOptimal(inst, catalog);
  EXPECT_TRUE(hungarian.Validate(inst).ok());
  const ExhaustiveResult truth = SolveExhaustive(inst, catalog);
  ASSERT_TRUE(truth.complete);
  EXPECT_NEAR(hungarian.TotalPayoff(inst), truth.max_total_payoff, 1e-9);
}

TEST_P(SingletonOptimalTest, AtLeastGreedy) {
  const Instance inst = SingletonInstance(GetParam() + 30, 10, 6);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const Assignment hungarian = SolveSingletonOptimal(inst, catalog);
  const Assignment gta = SolveGta(inst, catalog);
  EXPECT_GE(hungarian.TotalPayoff(inst), gta.TotalPayoff(inst) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingletonOptimalTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(SingletonOptimalTest, RoutesAreSingletons) {
  const Instance inst = SingletonInstance(9, 8, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const Assignment a = SolveSingletonOptimal(inst, catalog);
  for (size_t w = 0; w < a.num_workers(); ++w) {
    EXPECT_LE(a.route(w).size(), 1u);
  }
}

}  // namespace
}  // namespace fta

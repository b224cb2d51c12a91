#include <gtest/gtest.h>

#include <vector>

#include "baseline/gta.h"
#include "baseline/mpta.h"
#include "baseline/random_assignment.h"
#include "support/exhaustive.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "vdps/catalog.h"

namespace fta {
namespace {

Instance RandomInstance(uint64_t seed, size_t num_dps, size_t num_workers,
                        double area = 8.0) {
  Rng rng(seed);
  std::vector<DeliveryPoint> dps;
  for (uint32_t d = 0; d < num_dps; ++d) {
    std::vector<SpatialTask> tasks;
    const size_t n = 1 + rng.Index(4);
    for (size_t t = 0; t < n; ++t) {
      tasks.push_back(SpatialTask{d, rng.Uniform(1.0, 4.0), 1.0});
    }
    dps.emplace_back(Point{rng.Uniform(0, area), rng.Uniform(0, area)},
                     std::move(tasks));
  }
  std::vector<Worker> workers;
  for (size_t w = 0; w < num_workers; ++w) {
    workers.push_back(
        Worker{{rng.Uniform(0, area), rng.Uniform(0, area)}, 3});
  }
  return Instance(Point{area / 2, area / 2}, std::move(dps),
                  std::move(workers), TravelModel(5.0));
}

// ------------------------------------------------------------------- GTA --

TEST(GtaTest, ProducesValidAssignment) {
  const Instance inst = RandomInstance(1, 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const Assignment a = SolveGta(inst, catalog);
  EXPECT_TRUE(a.Validate(inst).ok());
}

TEST(GtaTest, FirstPickIsGlobalMaxPayoff) {
  const Instance inst = RandomInstance(2, 10, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  double global_best = 0.0;
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    if (!catalog.strategies(w).empty()) {
      global_best = std::max(global_best, catalog.strategies(w)[0].payoff);
    }
  }
  const Assignment a = SolveGta(inst, catalog);
  const std::vector<double> payoffs = a.Payoffs(inst);
  EXPECT_NEAR(Max(payoffs), global_best, 1e-9);
}

TEST(GtaTest, AssignsEveryWorkerWithDisjointOptions) {
  // Plenty of delivery points: greedily everyone should get something.
  const Instance inst = RandomInstance(3, 20, 3);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  bool all_have = true;
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    all_have = all_have && !catalog.strategies(w).empty();
  }
  ASSERT_TRUE(all_have);
  const Assignment a = SolveGta(inst, catalog);
  EXPECT_EQ(a.num_assigned_workers(), inst.num_workers());
}

TEST(GtaTest, EmptyCatalogGivesNullAssignment) {
  Instance inst(Point{0, 0}, {}, {Worker{{1, 1}, 3}});
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const Assignment a = SolveGta(inst, catalog);
  EXPECT_EQ(a.num_assigned_workers(), 0u);
}

// ------------------------------------------------------------------ MPTA --

class MptaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MptaPropertyTest, ValidAndBeatsGta) {
  const Instance inst = RandomInstance(GetParam() + 10, 9, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const MptaResult mpta = SolveMpta(inst, catalog);
  EXPECT_TRUE(mpta.assignment.Validate(inst).ok());
  const Assignment gta = SolveGta(inst, catalog);
  // MPTA maximizes total payoff over a candidate superset of the greedy's
  // reachable outcomes when exact; allow equality.
  if (mpta.exact) {
    EXPECT_GE(mpta.assignment.TotalPayoff(inst),
              gta.TotalPayoff(inst) - 1e-9);
  }
}

TEST_P(MptaPropertyTest, MatchesExhaustiveTotalOnTinyInstances) {
  // Tiny on purpose: with all candidates retained, the same-worker cliques
  // alone give treewidth ~(#strategies per worker), so keep catalogs small
  // enough for the exact DP to accept.
  const Instance inst = RandomInstance(GetParam() + 40, 4, 2);
  VdpsConfig vdps;
  vdps.max_set_size = 2;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);
  MptaConfig config;
  config.candidates_per_worker = 0;  // keep all candidates: exact search
  config.max_width = 20;  // worst case: all 2x10 candidates in one clique
  const MptaResult mpta = SolveMpta(inst, catalog, config);
  ASSERT_TRUE(mpta.exact);
  const ExhaustiveResult truth = SolveExhaustive(inst, catalog);
  ASSERT_TRUE(truth.complete);
  EXPECT_NEAR(mpta.assignment.TotalPayoff(inst), truth.max_total_payoff,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MptaPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(MptaTest, CandidateCapBoundsGraph) {
  const Instance inst = RandomInstance(60, 10, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  MptaConfig config;
  config.candidates_per_worker = 2;
  const MptaResult r = SolveMpta(inst, catalog, config);
  EXPECT_LE(r.num_candidates, 2u * inst.num_workers());
  EXPECT_TRUE(r.assignment.Validate(inst).ok());
}

TEST(MptaTest, GreedyFallbackOnTinyWidthCap) {
  const Instance inst = RandomInstance(61, 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  MptaConfig config;
  config.max_width = 0;  // force fallback
  const MptaResult r = SolveMpta(inst, catalog, config);
  EXPECT_FALSE(r.exact);
  EXPECT_TRUE(r.assignment.Validate(inst).ok());
}

TEST(MptaTest, EmptyInstance) {
  Instance inst(Point{0, 0}, {}, {});
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const MptaResult r = SolveMpta(inst, catalog);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.num_candidates, 0u);
}

// ---------------------------------------------------------------- Random --

TEST(RandomAssignmentTest, ValidAndDeterministicPerSeed) {
  const Instance inst = RandomInstance(70, 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  Rng rng1(5), rng2(5), rng3(6);
  const Assignment a = SolveRandom(inst, catalog, rng1);
  const Assignment b = SolveRandom(inst, catalog, rng2);
  const Assignment c = SolveRandom(inst, catalog, rng3);
  EXPECT_TRUE(a.Validate(inst).ok());
  EXPECT_EQ(a.routes(), b.routes());
  (void)c;  // different seed may or may not differ; validity is what counts
  EXPECT_TRUE(c.Validate(inst).ok());
}

// ------------------------------------------------------------ Exhaustive --

TEST(ExhaustiveTest, FindsFairestOnHandBuiltInstance) {
  // Two symmetric workers, two symmetric singleton delivery points: the
  // fairest complete assignment gives one to each (P_dif = 0).
  std::vector<DeliveryPoint> dps;
  dps.emplace_back(Point{1, 0},
                   std::vector<SpatialTask>{SpatialTask{0, 10.0, 1.0}});
  dps.emplace_back(Point{-1, 0},
                   std::vector<SpatialTask>{SpatialTask{1, 10.0, 1.0}});
  std::vector<Worker> workers{{{0, 1}, 1}, {{0, -1}, 1}};
  Instance inst(Point{0, 0}, std::move(dps), std::move(workers),
                TravelModel(1.0));
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const ExhaustiveResult r = SolveExhaustive(inst, catalog);
  ASSERT_TRUE(r.complete);
  EXPECT_NEAR(r.fairest_pdif, 0.0, 1e-9);
  EXPECT_GT(r.fairest_avg, 0.0);
  EXPECT_EQ(r.fairest.num_assigned_workers(), 2u);
}

TEST(ExhaustiveTest, SecondaryObjectiveBreaksTies) {
  // All-null is perfectly fair (P_dif = 0) but the symmetric full
  // assignment is also fair with a higher average payoff; the lexicographic
  // objective must pick the latter.
  std::vector<DeliveryPoint> dps;
  dps.emplace_back(Point{2, 0},
                   std::vector<SpatialTask>{SpatialTask{0, 10.0, 1.0}});
  dps.emplace_back(Point{-2, 0},
                   std::vector<SpatialTask>{SpatialTask{1, 10.0, 1.0}});
  std::vector<Worker> workers{{{0, 0}, 1}, {{0, 0}, 1}};
  Instance inst(Point{0, 0}, std::move(dps), std::move(workers),
                TravelModel(1.0));
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const ExhaustiveResult r = SolveExhaustive(inst, catalog);
  ASSERT_TRUE(r.complete);
  EXPECT_NEAR(r.fairest_pdif, 0.0, 1e-9);
  EXPECT_EQ(r.fairest.num_assigned_workers(), 2u);
}

TEST(ExhaustiveTest, StateCapMarksIncomplete) {
  const Instance inst = RandomInstance(80, 8, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const ExhaustiveResult r = SolveExhaustive(inst, catalog, 10);
  EXPECT_FALSE(r.complete);
  EXPECT_GE(r.states_explored, 10u);
}

TEST(ExhaustiveTest, ResultsAreValidAssignments) {
  const Instance inst = RandomInstance(81, 6, 3);
  VdpsConfig vdps;
  vdps.max_set_size = 2;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);
  const ExhaustiveResult r = SolveExhaustive(inst, catalog);
  ASSERT_TRUE(r.complete);
  EXPECT_TRUE(r.fairest.Validate(inst).ok());
  EXPECT_TRUE(r.max_total.Validate(inst).ok());
  EXPECT_GE(r.max_total_payoff,
            r.fairest_avg * static_cast<double>(inst.num_workers()) - 1e-9);
}

}  // namespace
}  // namespace fta

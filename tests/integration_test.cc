#include <gtest/gtest.h>

#include <vector>

#include "baseline/gta.h"
#include "baseline/mpta.h"
#include "baseline/random_assignment.h"
#include "datagen/gmission.h"
#include "datagen/synthetic.h"
#include "exp/runner.h"
#include "game/fgt.h"
#include "game/iegt.h"
#include "io/dataset_io.h"
#include "support/exhaustive.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "vdps/catalog.h"

namespace fta {
namespace {

/// End-to-end pipeline checks across datasets, algorithms and seeds: the
/// cross-module invariants that the paper's evaluation relies on.

Instance GmInstance(uint64_t seed) {
  GMissionConfig config;
  config.num_tasks = 150;
  config.num_workers = 12;
  config.seed = seed;
  GMissionPrepConfig prep;
  prep.num_delivery_points = 30;
  prep.seed = seed + 1;
  return GenerateGMissionLike(config, prep);
}

VdpsConfig GmVdps() {
  VdpsConfig config;
  config.epsilon = 2.5;
  config.max_set_size = 3;
  return config;
}

class PipelineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineTest, AllAlgorithmsProduceValidAssignments) {
  const Instance inst = GmInstance(GetParam());
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, GmVdps());
  Rng rng(GetParam());

  const Assignment gta = SolveGta(inst, catalog);
  const MptaResult mpta = SolveMpta(inst, catalog);
  const GameResult fgt = SolveFgt(inst, catalog);
  const GameResult iegt = SolveIegt(inst, catalog);
  const Assignment random = SolveRandom(inst, catalog, rng);

  EXPECT_TRUE(gta.Validate(inst).ok());
  EXPECT_TRUE(mpta.assignment.Validate(inst).ok());
  EXPECT_TRUE(fgt.assignment.Validate(inst).ok());
  EXPECT_TRUE(iegt.assignment.Validate(inst).ok());
  EXPECT_TRUE(random.Validate(inst).ok());
  EXPECT_TRUE(fgt.converged);
  EXPECT_TRUE(iegt.converged);
}

TEST_P(PipelineTest, MptaTotalPayoffAtLeastGreedyAndRandom) {
  const Instance inst = GmInstance(GetParam() + 50);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, GmVdps());
  MptaConfig config;
  config.candidates_per_worker = 0;
  config.max_width = 18;
  const MptaResult mpta = SolveMpta(inst, catalog, config);
  if (!mpta.exact) GTEST_SKIP() << "width fallback; no optimality claim";
  const Assignment gta = SolveGta(inst, catalog);
  Rng rng(GetParam());
  const Assignment random = SolveRandom(inst, catalog, rng);
  EXPECT_GE(mpta.assignment.TotalPayoff(inst),
            gta.TotalPayoff(inst) - 1e-9);
  EXPECT_GE(mpta.assignment.TotalPayoff(inst),
            random.TotalPayoff(inst) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineTest, ::testing::Values(1, 2, 3, 4));

/// The paper's headline effectiveness ordering, averaged over seeds: IEGT
/// achieves the lowest payoff difference, and the game-theoretic methods
/// are fairer than the fairness-oblivious baselines (Figures 4-9).
TEST(HeadlineTest, IegtIsFairestOnAverage) {
  double pdif_gta = 0.0, pdif_mpta = 0.0, pdif_fgt = 0.0, pdif_iegt = 0.0;
  const int kSeeds = 6;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const Instance inst = GmInstance(static_cast<uint64_t>(seed) * 113);
    const VdpsCatalog catalog = VdpsCatalog::Generate(inst, GmVdps());
    pdif_gta += SolveGta(inst, catalog).PayoffDifference(inst);
    pdif_mpta += SolveMpta(inst, catalog).assignment.PayoffDifference(inst);
    FgtConfig fgt_config;
    fgt_config.seed = static_cast<uint64_t>(seed);
    pdif_fgt +=
        SolveFgt(inst, catalog, fgt_config).assignment.PayoffDifference(inst);
    IegtConfig iegt_config;
    iegt_config.seed = static_cast<uint64_t>(seed);
    pdif_iegt += SolveIegt(inst, catalog, iegt_config)
                     .assignment.PayoffDifference(inst);
  }
  EXPECT_LT(pdif_iegt, pdif_gta);
  EXPECT_LT(pdif_iegt, pdif_mpta);
  EXPECT_LT(pdif_iegt, pdif_fgt);
  EXPECT_LT(pdif_fgt, pdif_mpta);
}

/// MPTA has the highest average payoff of the four (it optimizes for it).
TEST(HeadlineTest, MptaHasHighestAveragePayoffOnAverage) {
  double avg_mpta = 0.0, avg_fgt = 0.0, avg_iegt = 0.0;
  const int kSeeds = 5;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const Instance inst = GmInstance(static_cast<uint64_t>(seed) * 211);
    const VdpsCatalog catalog = VdpsCatalog::Generate(inst, GmVdps());
    avg_mpta += SolveMpta(inst, catalog).assignment.AveragePayoff(inst);
    avg_fgt += SolveFgt(inst, catalog).assignment.AveragePayoff(inst);
    avg_iegt += SolveIegt(inst, catalog).assignment.AveragePayoff(inst);
  }
  EXPECT_GE(avg_mpta, avg_fgt - 1e-9);
  EXPECT_GE(avg_mpta, avg_iegt - 1e-9);
}

/// The games optimize (inequity-penalized) payoffs, so their average
/// payoff must beat blind random assignment on average. (Note: random can
/// look *fair* — everyone equally poor — so fairness-vs-random is not a
/// sound invariant; payoff-vs-random is.)
TEST(HeadlineTest, GamesBeatRandomOnAveragePayoff) {
  double avg_fgt = 0.0, avg_iegt = 0.0, avg_rand = 0.0;
  const int kSeeds = 6;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const Instance inst = GmInstance(static_cast<uint64_t>(seed) * 307);
    const VdpsCatalog catalog = VdpsCatalog::Generate(inst, GmVdps());
    Rng rng(static_cast<uint64_t>(seed));
    avg_rand += SolveRandom(inst, catalog, rng).AveragePayoff(inst);
    avg_fgt += SolveFgt(inst, catalog).assignment.AveragePayoff(inst);
    avg_iegt += SolveIegt(inst, catalog).assignment.AveragePayoff(inst);
  }
  EXPECT_GT(avg_fgt, avg_rand);
  EXPECT_GT(avg_iegt, avg_rand);
}

/// Serialization round-trip composed with solving: identical results.
TEST(IntegrationTest, SolveAfterRoundTripMatches) {
  SynConfig config;
  config.num_centers = 2;
  config.num_workers = 8;
  config.num_delivery_points = 14;
  config.num_tasks = 70;
  config.area = 10.0;
  config.seed = 17;
  const MultiCenterInstance multi = GenerateSyn(config);
  const auto back = DeserializeInstances(SerializeInstances(multi));
  ASSERT_TRUE(back.ok());

  SolverOptions options;
  options.vdps.epsilon = 3.0;
  for (Algorithm a : PaperAlgorithms()) {
    const RunMetrics m1 = RunOnMulti(a, multi, options);
    const RunMetrics m2 = RunOnMulti(a, *back, options);
    EXPECT_NEAR(m1.payoff_difference, m2.payoff_difference, 1e-9)
        << AlgorithmName(a);
    EXPECT_NEAR(m1.average_payoff, m2.average_payoff, 1e-9)
        << AlgorithmName(a);
  }
}

/// ε-pruning at a generous threshold reproduces the unpruned effectiveness
/// (the knee behavior of Figures 2-3) on a small GM-style instance.
TEST(IntegrationTest, GenerousEpsilonMatchesUnprunedEffectiveness) {
  const Instance inst = GmInstance(999);
  VdpsConfig pruned = GmVdps();
  pruned.epsilon = 6.0;  // generous: beyond the knee
  VdpsConfig unpruned = GmVdps();
  unpruned.epsilon = kInfinity;
  const VdpsCatalog cat_pruned = VdpsCatalog::Generate(inst, pruned);
  const VdpsCatalog cat_unpruned = VdpsCatalog::Generate(inst, unpruned);
  FgtConfig config;
  const GameResult a = SolveFgt(inst, cat_pruned, config);
  const GameResult b = SolveFgt(inst, cat_unpruned, config);
  EXPECT_NEAR(a.assignment.PayoffDifference(inst),
              b.assignment.PayoffDifference(inst), 0.05);
}

/// Workers with maxDP = 1 can only ever hold singleton sets, end to end.
TEST(IntegrationTest, MaxDpOneLimitsRoutesEverywhere) {
  GMissionConfig config;
  config.num_tasks = 100;
  config.num_workers = 10;
  config.seed = 5;
  GMissionPrepConfig prep;
  prep.num_delivery_points = 20;
  prep.max_dp = 1;
  const Instance inst = GenerateGMissionLike(config, prep);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, GmVdps());
  for (Algorithm a : PaperAlgorithms()) {
    SolverOptions options;
    const RunMetrics m = RunWithCatalog(a, inst, catalog, options);
    (void)m;
  }
  const Assignment gta = SolveGta(inst, catalog);
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    EXPECT_LE(gta.route(w).size(), 1u);
  }
}

}  // namespace
}  // namespace fta

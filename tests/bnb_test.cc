#include "baseline/branch_and_bound.h"

#include <gtest/gtest.h>

#include "baseline/gta.h"
#include "baseline/mpta.h"
#include "model/builder.h"
#include "support/exhaustive.h"
#include "util/rng.h"
#include "vdps/catalog.h"

namespace fta {
namespace {

Instance RandomInstance(uint64_t seed, size_t num_dps, size_t num_workers) {
  Rng rng(seed);
  InstanceBuilder builder(Point{4, 4});
  builder.Speed(5.0);
  for (size_t d = 0; d < num_dps; ++d) {
    builder.DeliveryPoint({rng.Uniform(0, 8), rng.Uniform(0, 8)},
                          1 + rng.Index(4), rng.Uniform(1.0, 4.0));
  }
  for (size_t w = 0; w < num_workers; ++w) {
    builder.Worker({rng.Uniform(0, 8), rng.Uniform(0, 8)});
  }
  return builder.Build();
}

class BnbPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BnbPropertyTest, MatchesExhaustiveOptimum) {
  const Instance inst = RandomInstance(GetParam(), 6, 3);
  VdpsConfig vdps;
  vdps.max_set_size = 2;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);
  const BnbResult bnb = SolveMaxTotalBnB(inst, catalog);
  ASSERT_TRUE(bnb.complete);
  EXPECT_TRUE(bnb.assignment.Validate(inst).ok());
  const ExhaustiveResult truth = SolveExhaustive(inst, catalog);
  ASSERT_TRUE(truth.complete);
  EXPECT_NEAR(bnb.total_payoff, truth.max_total_payoff, 1e-9);
  EXPECT_NEAR(bnb.assignment.TotalPayoff(inst), bnb.total_payoff, 1e-9);
}

TEST_P(BnbPropertyTest, PrunesAgainstExhaustive) {
  const Instance inst = RandomInstance(GetParam() + 20, 7, 3);
  VdpsConfig vdps;
  vdps.max_set_size = 2;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);
  const BnbResult bnb = SolveMaxTotalBnB(inst, catalog);
  const ExhaustiveResult truth = SolveExhaustive(inst, catalog);
  ASSERT_TRUE(bnb.complete);
  ASSERT_TRUE(truth.complete);
  EXPECT_LT(bnb.nodes_explored, truth.states_explored);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(BnbTest, DominatesGreedyAndMpta) {
  const Instance inst = RandomInstance(50, 10, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const BnbResult bnb = SolveMaxTotalBnB(inst, catalog);
  ASSERT_TRUE(bnb.complete);
  EXPECT_GE(bnb.total_payoff,
            SolveGta(inst, catalog).TotalPayoff(inst) - 1e-9);
  EXPECT_GE(bnb.total_payoff,
            SolveMpta(inst, catalog).assignment.TotalPayoff(inst) - 1e-9);
}

TEST(BnbTest, NodeLimitReturnsIncumbent) {
  const Instance inst = RandomInstance(51, 12, 6);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const BnbResult bnb = SolveMaxTotalBnB(inst, catalog, 100);
  EXPECT_FALSE(bnb.complete);
  EXPECT_LE(bnb.nodes_explored, 100u);
  EXPECT_TRUE(bnb.assignment.Validate(inst).ok());
}

TEST(BnbTest, EmptyInstance) {
  const Instance inst = InstanceBuilder(Point{0, 0}).Build();
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const BnbResult bnb = SolveMaxTotalBnB(inst, catalog);
  EXPECT_TRUE(bnb.complete);
  EXPECT_DOUBLE_EQ(bnb.total_payoff, 0.0);
}

TEST(BnbTest, SingleWorkerPicksBestStrategy) {
  const Instance inst = RandomInstance(52, 8, 1);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  ASSERT_FALSE(catalog.strategies(0).empty());
  const BnbResult bnb = SolveMaxTotalBnB(inst, catalog);
  EXPECT_NEAR(bnb.total_payoff, catalog.strategies(0)[0].payoff, 1e-9);
}

}  // namespace
}  // namespace fta

#include "support/equilibrium.h"

#include <gtest/gtest.h>

#include "baseline/gta.h"
#include "game/fgt.h"
#include "model/builder.h"
#include "util/math_util.h"
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

class EquilibriumSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquilibriumSeeds, FgtOutputHasZeroRegret) {
  const Instance inst = RandomInstance(GetParam(), 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const GameResult fgt = SolveFgt(inst, catalog);
  ASSERT_TRUE(fgt.converged);
  const EquilibriumReport report =
      AnalyzeEquilibrium(inst, catalog, fgt.assignment);
  EXPECT_TRUE(report.is_nash);
  EXPECT_NEAR(report.max_regret, 0.0, 1e-6);
  EXPECT_EQ(report.deviating_workers, 0u);
}

TEST_P(EquilibriumSeeds, FgtEquilibriumIsInEnumeratedSet) {
  // Tiny instance: enumerate all pure NE, verify FGT lands on one.
  const Instance inst = RandomInstance(GetParam() + 10, 4, 2);
  VdpsConfig vdps;
  vdps.max_set_size = 2;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);
  const NashEnumeration nash = EnumeratePureNash(inst, catalog);
  ASSERT_TRUE(nash.complete);
  ASSERT_FALSE(nash.equilibria.empty());  // EPG: at least one pure NE
  const GameResult fgt = SolveFgt(inst, catalog);
  bool found = false;
  for (const Assignment& eq : nash.equilibria) {
    found = found || eq.routes() == fgt.assignment.routes();
  }
  EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquilibriumSeeds,
                         ::testing::Values(1, 2, 3, 4));

TEST(EquilibriumTest, RegretsNonNegative) {
  const Instance inst = RandomInstance(50, 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const Assignment gta = SolveGta(inst, catalog);
  const EquilibriumReport report = AnalyzeEquilibrium(inst, catalog, gta);
  for (const WorkerRegret& r : report.regrets) {
    EXPECT_GE(r.regret, -1e-9);
    EXPECT_GE(r.best_response_utility, r.utility - 1e-9);
  }
}

TEST(EquilibriumTest, AllNullAssignmentRegretIsBestStrategyUtility) {
  const Instance inst = RandomInstance(51, 8, 2);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const Assignment null_assignment(inst.num_workers());
  const EquilibriumReport report =
      AnalyzeEquilibrium(inst, catalog, null_assignment);
  // With everyone idle, any worker with strategies has positive regret.
  bool any_strategy = false;
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    any_strategy = any_strategy || !catalog.strategies(w).empty();
  }
  if (any_strategy) {
    EXPECT_FALSE(report.is_nash);
    EXPECT_GT(report.max_regret, 0.0);
  }
}

TEST(EquilibriumTest, EnumerationCapMarksIncomplete) {
  const Instance inst = RandomInstance(52, 8, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const NashEnumeration nash =
      EnumeratePureNash(inst, catalog, IauParams(), 5);
  EXPECT_FALSE(nash.complete);
}

}  // namespace
}  // namespace fta

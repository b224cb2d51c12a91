#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "game/best_response.h"
#include "game/fgt.h"
#include "game/iau.h"
#include "game/iegt.h"
#include "game/init.h"
#include "game/joint_state.h"
#include "game/potential.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "vdps/catalog.h"

namespace fta {
namespace {

Instance RandomInstance(uint64_t seed, size_t num_dps, size_t num_workers,
                        double area = 10.0) {
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

// ------------------------------------------------------------------- IAU --

TEST(IauTest, NoOthersIsOwnPayoff) {
  EXPECT_DOUBLE_EQ(Iau(3.0, {}, IauParams{}), 3.0);
}

TEST(IauTest, ClosedFormSmallExample) {
  // own=2, others={1, 4}; MP = (4-2) = 2, LP = (2-1) = 1, m = 2.
  // IAU = 2 - 0.5/2*2 - 0.5/2*1 = 2 - 0.5 - 0.25 = 1.25.
  EXPECT_NEAR(Iau(2.0, {1.0, 4.0}, IauParams{0.5, 0.5}), 1.25, 1e-12);
}

TEST(IauTest, AsymmetricWeights) {
  // alpha penalizes others-above; beta penalizes own-above.
  const double only_mp = Iau(1.0, {5.0}, IauParams{1.0, 0.0});
  EXPECT_NEAR(only_mp, 1.0 - 4.0, 1e-12);
  const double only_lp = Iau(5.0, {1.0}, IauParams{0.0, 1.0});
  EXPECT_NEAR(only_lp, 5.0 - 4.0, 1e-12);
}

TEST(IauTest, EqualPayoffsNoPenalty) {
  EXPECT_DOUBLE_EQ(Iau(2.0, {2.0, 2.0, 2.0}, IauParams{}), 2.0);
}

TEST(OthersViewTest, MatchesNaiveIau) {
  Rng rng(61);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> others(1 + rng.Index(20));
    for (double& p : others) p = rng.Uniform(0, 5);
    OthersView view(others);
    for (int probe = 0; probe < 10; ++probe) {
      const double own = rng.Uniform(-1, 6);
      const IauParams params{rng.Uniform(0, 1), rng.Uniform(0, 1)};
      EXPECT_NEAR(view.Iau(own, params), Iau(own, others, params), 1e-9);
    }
  }
}

TEST(OthersViewTest, MpLpDecomposition) {
  OthersView view({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(view.Mp(2.0), 1.0);
  EXPECT_DOUBLE_EQ(view.Lp(2.0), 1.0);
  EXPECT_DOUBLE_EQ(view.Mp(0.0), 6.0);
  EXPECT_DOUBLE_EQ(view.Lp(0.0), 0.0);
  EXPECT_DOUBLE_EQ(view.Mp(5.0), 0.0);
  EXPECT_DOUBLE_EQ(view.Lp(5.0), 9.0);
}

TEST(OthersViewTest, TiesContributeNothing) {
  OthersView view({2.0, 2.0});
  EXPECT_DOUBLE_EQ(view.Mp(2.0), 0.0);
  EXPECT_DOUBLE_EQ(view.Lp(2.0), 0.0);
}

// ------------------------------------------------------------- Potential --

TEST(PotentialTest, ExactPotentialClosedForm) {
  // Φ = ΣP − a/(n−1) Σ_{k<l}|P_k−P_l| with a=0.5, n=2:
  // {1, 3}: 4 − 0.5·2 = 3.
  EXPECT_NEAR(ExactPotential({1.0, 3.0}, 0.5), 3.0, 1e-12);
  EXPECT_NEAR(ExactPotential({2.0}, 0.5), 2.0, 1e-12);
  EXPECT_NEAR(ExactPotential({}, 0.5), 0.0, 1e-12);
}

/// The exact-potential property (refined Lemma 2): a unilateral payoff
/// change shifts Φ by exactly the deviator's IAU change when alpha == beta.
TEST(PotentialTest, UnilateralDeviationProperty) {
  Rng rng(62);
  const double alpha = 0.5;
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 2 + rng.Index(10);
    std::vector<double> payoffs(n);
    for (double& p : payoffs) p = rng.Uniform(0, 5);
    const size_t i = rng.Index(n);
    const double new_payoff = rng.Uniform(0, 5);

    std::vector<double> others;
    for (size_t j = 0; j < n; ++j) {
      if (j != i) others.push_back(payoffs[j]);
    }
    const IauParams params{alpha, alpha};
    const double u_before = Iau(payoffs[i], others, params);
    const double u_after = Iau(new_payoff, others, params);
    const double phi_before = ExactPotential(payoffs, alpha);
    std::vector<double> payoffs_after = payoffs;
    payoffs_after[i] = new_payoff;
    const double phi_after = ExactPotential(payoffs_after, alpha);
    EXPECT_NEAR(phi_after - phi_before, u_after - u_before, 1e-9);
  }
}

// ------------------------------------------------------------ JointState --

TEST(JointStateTest, StartsAllNull) {
  const Instance inst = RandomInstance(63, 6, 3);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  JointState state(inst, catalog);
  for (size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(state.strategy_of(w), kNullStrategy);
    EXPECT_DOUBLE_EQ(state.payoff_of(w), 0.0);
  }
  for (uint32_t d = 0; d < inst.num_delivery_points(); ++d) {
    EXPECT_EQ(state.owner_of(d), -1);
  }
}

TEST(JointStateTest, ApplyClaimsAndReleases) {
  const Instance inst = RandomInstance(64, 8, 2);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  ASSERT_GT(catalog.strategies(0).size(), 1u);
  JointState state(inst, catalog);
  state.Apply(0, 0);
  const auto& dps0 = catalog.entry(catalog.strategies(0)[0].entry_id).dps;
  for (uint32_t d : dps0) EXPECT_EQ(state.owner_of(d), 0);
  EXPECT_GT(state.payoff_of(0), 0.0);
  state.Apply(0, kNullStrategy);
  for (uint32_t d : dps0) EXPECT_EQ(state.owner_of(d), -1);
  EXPECT_DOUBLE_EQ(state.payoff_of(0), 0.0);
}

TEST(JointStateTest, AvailabilityBlocksOverlap) {
  const Instance inst = RandomInstance(65, 8, 2);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  JointState state(inst, catalog);
  ASSERT_FALSE(catalog.strategies(0).empty());
  state.Apply(0, 0);
  const auto& held = catalog.entry(catalog.strategies(0)[0].entry_id).dps;
  // Any of worker 1's strategies overlapping `held` must be unavailable.
  for (size_t i = 0; i < catalog.strategies(1).size(); ++i) {
    const auto& dps =
        catalog.entry(catalog.strategies(1)[i].entry_id).dps;
    bool overlaps = false;
    for (uint32_t d : dps) {
      for (uint32_t h : held) overlaps = overlaps || d == h;
    }
    EXPECT_EQ(state.IsAvailable(1, static_cast<int32_t>(i)), !overlaps);
  }
}

TEST(JointStateTest, OwnStrategyOverlapAllowed) {
  const Instance inst = RandomInstance(66, 8, 1);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  JointState state(inst, catalog);
  // Every strategy is available to the holder itself even when it overlaps
  // what the holder already owns.
  ASSERT_FALSE(catalog.strategies(0).empty());
  state.Apply(0, 0);
  for (size_t i = 0; i < catalog.strategies(0).size(); ++i) {
    EXPECT_TRUE(state.IsAvailable(0, static_cast<int32_t>(i)));
  }
}

TEST(JointStateTest, ToAssignmentIsValid) {
  const Instance inst = RandomInstance(67, 10, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  JointState state(inst, catalog);
  Rng rng(5);
  RandomSingletonInit(state, rng);
  EXPECT_TRUE(state.ToAssignment().Validate(inst).ok());
}

TEST(RandomSingletonInitTest, OnlySingletons) {
  const Instance inst = RandomInstance(68, 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  JointState state(inst, catalog);
  Rng rng(6);
  RandomSingletonInit(state, rng);
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    if (state.strategy_of(w) == kNullStrategy) continue;
    const auto& st =
        catalog.strategies(w)[static_cast<size_t>(state.strategy_of(w))];
    EXPECT_EQ(catalog.entry(st.entry_id).dps.size(), 1u);
  }
}

// ------------------------------------------------------------------- FGT --

class FgtPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FgtPropertyTest, ConvergesToVerifiedNash) {
  const Instance inst = RandomInstance(GetParam(), 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  FgtConfig config;
  config.seed = GetParam() * 7 + 1;
  const GameResult result = SolveFgt(inst, catalog, config);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.assignment.Validate(inst).ok());

  // Rebuild the final joint state and verify the Nash property directly.
  JointState state(inst, catalog);
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    const Route& route = result.assignment.route(w);
    if (route.empty()) continue;
    int32_t idx = kNullStrategy;
    for (size_t i = 0; i < catalog.strategies(w).size(); ++i) {
      if (catalog.route(catalog.strategies(w)[i]) == route) {
        idx = static_cast<int32_t>(i);
        break;
      }
    }
    ASSERT_NE(idx, kNullStrategy) << "assignment route not in catalog";
    state.Apply(w, idx);
  }
  EXPECT_TRUE(BestResponseEngine(state, config.iau).IsNash());
}

TEST_P(FgtPropertyTest, PotentialIsMonotoneAlongTrace) {
  const Instance inst = RandomInstance(GetParam() + 100, 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  FgtConfig config;
  config.record_trace = true;
  const GameResult result = SolveFgt(inst, catalog, config);
  ASSERT_GE(result.trace.size(), 2u);
  for (size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].potential,
              result.trace[i - 1].potential - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FgtPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(FgtTest, EmptyInstance) {
  Instance inst(Point{0, 0}, {}, {});
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const GameResult result = SolveFgt(inst, catalog);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.assignment.num_workers(), 0u);
}

TEST(FgtTest, WorkerWithNoStrategiesStaysNull) {
  std::vector<DeliveryPoint> dps;
  dps.emplace_back(Point{100, 100},
                   std::vector<SpatialTask>{SpatialTask{0, 0.1, 1.0}});
  Instance inst(Point{0, 0}, std::move(dps), {Worker{{0, 0}, 3}},
                TravelModel(1.0));
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const GameResult result = SolveFgt(inst, catalog);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.assignment.route(0).empty());
}

TEST(FgtTest, SingleWorkerTakesBestStrategy) {
  const Instance inst = RandomInstance(70, 8, 1);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  ASSERT_FALSE(catalog.strategies(0).empty());
  const GameResult result = SolveFgt(inst, catalog);
  // With |W| = 1 there is no inequity penalty: IAU = payoff, so the best
  // response is the max-payoff strategy.
  const RouteEvaluation eval =
      EvaluateRoute(inst, 0, result.assignment.route(0));
  EXPECT_NEAR(eval.payoff, catalog.strategies(0)[0].payoff, 1e-9);
}

TEST(FgtTest, TraceRecordsInitialAndFinal) {
  const Instance inst = RandomInstance(71, 8, 3);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  FgtConfig config;
  config.record_trace = true;
  const GameResult result = SolveFgt(inst, catalog, config);
  ASSERT_FALSE(result.trace.empty());
  EXPECT_EQ(result.trace.front().iteration, 0);
  EXPECT_EQ(result.trace.back().num_changes, 0u);  // converged round
}

TEST(FgtTest, DeterministicGivenSeed) {
  const Instance inst = RandomInstance(72, 9, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  FgtConfig config;
  config.seed = 99;
  const GameResult a = SolveFgt(inst, catalog, config);
  const GameResult b = SolveFgt(inst, catalog, config);
  EXPECT_EQ(a.assignment.routes(), b.assignment.routes());
}

// ------------------------------------------------------------------ IEGT --

TEST(ReplicatorDynamicsTest, SignMatchesPayoffVsAverage) {
  const Instance inst = RandomInstance(73, 10, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  JointState state(inst, catalog);
  Rng rng(8);
  RandomSingletonInit(state, rng);
  const std::vector<double> dyn = ReplicatorDynamics(state);
  const double avg = Mean(state.payoffs());
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    if (state.strategy_of(w) == kNullStrategy) {
      EXPECT_DOUBLE_EQ(dyn[w], 0.0);
    } else if (state.payoff_of(w) > avg) {
      EXPECT_GT(dyn[w], 0.0);
    } else if (state.payoff_of(w) < avg) {
      EXPECT_LT(dyn[w], 0.0);
    }
  }
}

TEST(ReplicatorDynamicsTest, SumIsNonNegativeMeanDeviation) {
  // Σ σ(U−Ū) over in-use strategies equals -(share)·Σ_null (0−Ū) ≥ 0 when
  // some workers are null; with all workers in use it is exactly 0.
  const Instance inst = RandomInstance(74, 12, 3);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  JointState state(inst, catalog);
  Rng rng(9);
  RandomSingletonInit(state, rng);
  bool all_assigned = true;
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    all_assigned = all_assigned && state.strategy_of(w) != kNullStrategy;
  }
  const std::vector<double> dyn = ReplicatorDynamics(state);
  double sum = 0.0;
  for (double d : dyn) sum += d;
  if (all_assigned) {
    EXPECT_NEAR(sum, 0.0, 1e-9);
  } else {
    EXPECT_GE(sum, -1e-9);
  }
}

class IegtPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IegtPropertyTest, ConvergesToValidAssignment) {
  const Instance inst = RandomInstance(GetParam() + 200, 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  IegtConfig config;
  config.seed = GetParam();
  const GameResult result = SolveIegt(inst, catalog, config);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.assignment.Validate(inst).ok());
}

TEST_P(IegtPropertyTest, AveragePayoffNeverDecreases) {
  // Every IEGT move strictly raises the mover's payoff and leaves others
  // unchanged, so the population average is monotone along the trace.
  const Instance inst = RandomInstance(GetParam() + 300, 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  IegtConfig config;
  config.record_trace = true;
  config.seed = GetParam();
  const GameResult result = SolveIegt(inst, catalog, config);
  for (size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].average_payoff,
              result.trace[i - 1].average_payoff - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IegtPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(IegtTest, EmptyInstance) {
  Instance inst(Point{0, 0}, {}, {});
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const GameResult result = SolveIegt(inst, catalog);
  EXPECT_TRUE(result.converged);
}

TEST(IegtTest, DeterministicGivenSeed) {
  const Instance inst = RandomInstance(75, 9, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  IegtConfig config;
  config.seed = 123;
  const GameResult a = SolveIegt(inst, catalog, config);
  const GameResult b = SolveIegt(inst, catalog, config);
  EXPECT_EQ(a.assignment.routes(), b.assignment.routes());
}

// ---------------------------------------------------------- Update orders --

class UpdateOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UpdateOrderTest, AllOrdersReachVerifiedNash) {
  const Instance inst = RandomInstance(GetParam() + 400, 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  for (UpdateOrder order : {UpdateOrder::kSequential,
                            UpdateOrder::kRandomPermutation,
                            UpdateOrder::kLowestPayoffFirst}) {
    FgtConfig config;
    config.order = order;
    config.seed = GetParam();
    const GameResult result = SolveFgt(inst, catalog, config);
    EXPECT_TRUE(result.converged);
    EXPECT_TRUE(result.assignment.Validate(inst).ok());
    // Verify Nash directly by rebuilding the state.
    JointState state(inst, catalog);
    for (size_t w = 0; w < inst.num_workers(); ++w) {
      const Route& route = result.assignment.route(w);
      if (route.empty()) continue;
      for (size_t i = 0; i < catalog.strategies(w).size(); ++i) {
        if (catalog.route(catalog.strategies(w)[i]) == route) {
          state.Apply(w, static_cast<int32_t>(i));
          break;
        }
      }
    }
    EXPECT_TRUE(BestResponseEngine(state, config.iau).IsNash())
        << "order " << static_cast<int>(order);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateOrderTest, ::testing::Values(1, 2, 3));

TEST(UpdateOrderTest, RandomOrderIsSeedDeterministic) {
  const Instance inst = RandomInstance(410, 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  FgtConfig config;
  config.order = UpdateOrder::kRandomPermutation;
  config.seed = 77;
  const GameResult a = SolveFgt(inst, catalog, config);
  const GameResult b = SolveFgt(inst, catalog, config);
  EXPECT_EQ(a.assignment.routes(), b.assignment.routes());
}

// --------------------------------------------------------- Early stopping --

TEST(EarlyStopMonitorTest, DisabledNeverStops) {
  EarlyStopMonitor monitor(EarlyStopRule{});  // patience 0
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(monitor.ShouldStop(1.0));
}

TEST(EarlyStopMonitorTest, StopsAfterPatienceStaleRounds) {
  EarlyStopMonitor monitor(EarlyStopRule{0.01, 3});
  EXPECT_FALSE(monitor.ShouldStop(1.0));   // first value: improvement
  EXPECT_FALSE(monitor.ShouldStop(0.999)); // < tolerance: stale 1
  EXPECT_FALSE(monitor.ShouldStop(1.0));   // stale 2
  EXPECT_TRUE(monitor.ShouldStop(1.0));    // stale 3 -> stop
}

TEST(EarlyStopMonitorTest, RealImprovementResetsPatience) {
  EarlyStopMonitor monitor(EarlyStopRule{0.01, 2});
  EXPECT_FALSE(monitor.ShouldStop(1.0));
  EXPECT_FALSE(monitor.ShouldStop(1.0));  // stale 1
  EXPECT_FALSE(monitor.ShouldStop(0.5));  // big improvement: reset
  EXPECT_FALSE(monitor.ShouldStop(0.5));  // stale 1
  EXPECT_TRUE(monitor.ShouldStop(0.5));   // stale 2 -> stop
}

TEST(EarlyStopTest, AggressiveRuleCutsFgtShort) {
  const Instance inst = RandomInstance(95, 12, 6);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  FgtConfig full;
  const GameResult reference = SolveFgt(inst, catalog, full);
  FgtConfig eager = full;
  eager.early_stop = EarlyStopRule{1e9, 1};  // everything counts as stale
  const GameResult stopped = SolveFgt(inst, catalog, eager);
  if (!stopped.converged) {
    EXPECT_TRUE(stopped.early_stopped);
    EXPECT_LE(stopped.rounds, reference.rounds);
  }
  EXPECT_TRUE(stopped.assignment.Validate(inst).ok());
}

TEST(EarlyStopTest, AggressiveRuleCutsIegtShort) {
  const Instance inst = RandomInstance(96, 12, 6);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  IegtConfig eager;
  eager.early_stop = EarlyStopRule{1e9, 1};
  const GameResult stopped = SolveIegt(inst, catalog, eager);
  EXPECT_TRUE(stopped.converged || stopped.early_stopped);
  EXPECT_TRUE(stopped.assignment.Validate(inst).ok());
}

TEST(EarlyStopTest, LooseRuleDoesNotChangeConvergedResult) {
  const Instance inst = RandomInstance(97, 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  FgtConfig plain;
  FgtConfig patient = plain;
  patient.early_stop = EarlyStopRule{1e-12, 1000};  // never triggers
  const GameResult a = SolveFgt(inst, catalog, plain);
  const GameResult b = SolveFgt(inst, catalog, patient);
  EXPECT_EQ(a.assignment.routes(), b.assignment.routes());
  EXPECT_FALSE(b.early_stopped);
}

TEST(IegtTest, TerminalStateHasNoPressuredImprover) {
  // At the improved evolutionary equilibrium, no below-average worker has
  // an available strictly better strategy.
  const Instance inst = RandomInstance(76, 12, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  IegtConfig config;
  config.seed = 4;
  const GameResult result = SolveIegt(inst, catalog, config);
  ASSERT_TRUE(result.converged);

  JointState state(inst, catalog);
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    const Route& route = result.assignment.route(w);
    if (route.empty()) continue;
    for (size_t i = 0; i < catalog.strategies(w).size(); ++i) {
      if (catalog.route(catalog.strategies(w)[i]) == route) {
        state.Apply(w, static_cast<int32_t>(i));
        break;
      }
    }
  }
  const double avg = Mean(state.payoffs());
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    if (state.payoff_of(w) >= avg - kEps) continue;
    for (size_t i = 0; i < catalog.strategies(w).size(); ++i) {
      const int32_t idx = static_cast<int32_t>(i);
      if (idx == state.strategy_of(w)) continue;
      if (catalog.strategies(w)[i].payoff > state.payoff_of(w) + kEps) {
        EXPECT_FALSE(state.IsAvailable(w, idx))
            << "worker " << w << " still has a better available strategy";
      }
    }
  }
}

}  // namespace
}  // namespace fta

// Cross-module property tests: randomized invariants that tie the pieces
// together (metric identities, scale/translation laws, global optimality
// sanity, index equivalences).

#include <gtest/gtest.h>

#include <vector>

#include "baseline/gta.h"
#include "baseline/mpta.h"
#include "game/fgt.h"
#include "game/iau.h"
#include "game/iegt.h"
#include "geo/grid_index.h"
#include "model/builder.h"
#include "model/route.h"
#include "support/equilibrium.h"
#include "support/exhaustive.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "vdps/catalog.h"

namespace fta {
namespace {

Instance RandomInstance(uint64_t seed, size_t num_dps, size_t num_workers,
                        double speed = 5.0) {
  Rng rng(seed);
  InstanceBuilder builder(Point{4, 4});
  builder.Speed(speed);
  for (size_t d = 0; d < num_dps; ++d) {
    builder.DeliveryPoint({rng.Uniform(0, 8), rng.Uniform(0, 8)},
                          1 + rng.Index(4), rng.Uniform(1.0, 4.0));
  }
  for (size_t w = 0; w < num_workers; ++w) {
    builder.Worker({rng.Uniform(0, 8), rng.Uniform(0, 8)});
  }
  return builder.Build();
}

class PropertySeeds : public ::testing::TestWithParam<uint64_t> {};

/// Arrival times are equivariant under start offsets: starting o later
/// shifts every arrival by exactly o.
TEST_P(PropertySeeds, RouteOffsetShiftEquivariance) {
  Rng rng(GetParam());
  const Instance inst = RandomInstance(GetParam(), 8, 0);
  for (int trial = 0; trial < 20; ++trial) {
    // Random route over distinct delivery points.
    std::vector<uint32_t> ids(inst.num_delivery_points());
    for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
    rng.Shuffle(ids);
    const Route route(ids.begin(),
                      ids.begin() + 1 + static_cast<ptrdiff_t>(rng.Index(4)));
    const double offset = rng.Uniform(0.0, 2.0);
    const RouteEvaluation base = EvaluateRouteFromCenter(inst, route, 0.0);
    const RouteEvaluation shifted =
        EvaluateRouteFromCenter(inst, route, offset);
    ASSERT_EQ(base.arrivals.size(), shifted.arrivals.size());
    for (size_t i = 0; i < base.arrivals.size(); ++i) {
      EXPECT_NEAR(shifted.arrivals[i], base.arrivals[i] + offset, 1e-9);
    }
    EXPECT_NEAR(shifted.slack, base.slack - offset, 1e-9);
  }
}

/// Doubling the speed halves travel times and doubles payoffs.
TEST_P(PropertySeeds, PayoffScalesWithSpeed) {
  const Instance slow = RandomInstance(GetParam(), 8, 3, 5.0);
  const Instance fast = RandomInstance(GetParam(), 8, 3, 10.0);
  const Route route{0, 3, 5};
  const RouteEvaluation a = EvaluateRoute(slow, 0, route);
  const RouteEvaluation b = EvaluateRoute(fast, 0, route);
  EXPECT_NEAR(b.total_time, a.total_time / 2.0, 1e-9);
  EXPECT_NEAR(b.payoff, a.payoff * 2.0, 1e-9);
}

/// P_dif is translation-invariant and positively homogeneous; Gini and
/// Jain are scale-invariant.
TEST_P(PropertySeeds, FairnessMetricLaws) {
  Rng rng(GetParam() * 7 + 1);
  std::vector<double> v(3 + rng.Index(20));
  for (double& x : v) x = rng.Uniform(0.1, 10.0);
  std::vector<double> shifted = v, scaled = v;
  const double c = rng.Uniform(0.5, 5.0);
  for (double& x : shifted) x += c;
  for (double& x : scaled) x *= c;
  EXPECT_NEAR(MeanAbsolutePairwiseDifference(shifted),
              MeanAbsolutePairwiseDifference(v), 1e-9);
  EXPECT_NEAR(MeanAbsolutePairwiseDifference(scaled),
              c * MeanAbsolutePairwiseDifference(v), 1e-9);
  EXPECT_NEAR(Gini(scaled), Gini(v), 1e-9);
  EXPECT_NEAR(JainFairnessIndex(scaled), JainFairnessIndex(v), 1e-9);
  EXPECT_NEAR(MinMaxRatio(scaled), MinMaxRatio(v), 1e-9);
}

/// IAU is translation-equivariant: shifting everyone's payoff by c shifts
/// every utility by exactly c (inequity terms depend on differences only).
TEST_P(PropertySeeds, IauTranslationEquivariance) {
  Rng rng(GetParam() * 13 + 5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> others(1 + rng.Index(10));
    for (double& p : others) p = rng.Uniform(0, 5);
    const double own = rng.Uniform(0, 5);
    const double c = rng.Uniform(-2, 2);
    const IauParams params{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    std::vector<double> shifted = others;
    for (double& p : shifted) p += c;
    EXPECT_NEAR(Iau(own + c, shifted, params), Iau(own, others, params) + c,
                1e-9);
  }
}

/// Global sanity: no algorithm beats the exhaustive fairest P_dif, and
/// none beats the exhaustive max-total total payoff (tiny instances).
TEST_P(PropertySeeds, ExhaustiveBoundsEveryAlgorithm) {
  const Instance inst = RandomInstance(GetParam() + 60, 5, 3);
  VdpsConfig vdps;
  vdps.max_set_size = 2;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);
  const ExhaustiveResult truth = SolveExhaustive(inst, catalog);
  ASSERT_TRUE(truth.complete);

  std::vector<Assignment> outcomes;
  outcomes.push_back(SolveGta(inst, catalog));
  outcomes.push_back(SolveMpta(inst, catalog).assignment);
  outcomes.push_back(SolveFgt(inst, catalog).assignment);
  outcomes.push_back(SolveIegt(inst, catalog).assignment);
  for (const Assignment& a : outcomes) {
    EXPECT_GE(a.PayoffDifference(inst), truth.fairest_pdif - 1e-9);
    EXPECT_LE(a.TotalPayoff(inst), truth.max_total_payoff + 1e-9);
  }
}

/// Every converged FGT run is a measurable equilibrium: the analysis built
/// on the shared best-response engine reports (near-)zero max regret and
/// certifies the Nash property. The regret tolerance is the engine's
/// strict-improvement tolerance (kEps, relative — see DefinitelyGreater):
/// a deviation inside that window is by definition not an improvement.
TEST_P(PropertySeeds, ConvergedFgtHasZeroRegretAndIsNash) {
  const Instance inst = RandomInstance(GetParam() + 40, 10, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  FgtConfig config;
  config.seed = GetParam() * 3 + 11;
  const GameResult fgt = SolveFgt(inst, catalog, config);
  ASSERT_TRUE(fgt.converged);
  const EquilibriumReport report =
      AnalyzeEquilibrium(inst, catalog, fgt.assignment, config.iau);
  EXPECT_TRUE(report.is_nash);
  EXPECT_EQ(report.deviating_workers, 0u);
  double scale = 1.0;
  for (const WorkerRegret& r : report.regrets) {
    scale = std::max({scale, std::fabs(r.utility),
                      std::fabs(r.best_response_utility)});
  }
  EXPECT_LE(report.max_regret, 1e-9 * scale);
}

/// On tiny instances the exhaustive pure-NE enumeration must contain the
/// FGT fixed point — the solvers and the enumerator share one engine, so
/// they cannot disagree about what an equilibrium is.
TEST_P(PropertySeeds, EnumeratedPureNashContainsFgtFixedPoint) {
  const Instance inst = RandomInstance(GetParam() + 50, 4, 2);
  VdpsConfig vdps;
  vdps.max_set_size = 2;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);
  const NashEnumeration nash = EnumeratePureNash(inst, catalog);
  ASSERT_TRUE(nash.complete);
  ASSERT_FALSE(nash.equilibria.empty());  // EPG: a pure NE always exists
  const GameResult fgt = SolveFgt(inst, catalog);
  ASSERT_TRUE(fgt.converged);
  bool found = false;
  for (const Assignment& eq : nash.equilibria) {
    found = found || eq.routes() == fgt.assignment.routes();
  }
  EXPECT_TRUE(found);
}

/// Collected reward equals the summed reward of covered delivery points.
TEST_P(PropertySeeds, RewardConservation) {
  const Instance inst = RandomInstance(GetParam() + 70, 10, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const Assignment a = SolveGta(inst, catalog);
  double covered_reward = 0.0;
  for (size_t w = 0; w < a.num_workers(); ++w) {
    for (uint32_t dp : a.route(w)) {
      covered_reward += inst.delivery_point(dp).total_reward();
    }
  }
  double earned = 0.0;
  for (size_t w = 0; w < a.num_workers(); ++w) {
    if (!a.route(w).empty()) {
      earned += EvaluateRoute(inst, w, a.route(w)).total_reward;
    }
  }
  EXPECT_NEAR(covered_reward, earned, 1e-9);
}

/// Stricter VDPS configs (smaller ε, smaller set cap) can only shrink each
/// worker's strategy set.
TEST_P(PropertySeeds, StrategySetsMonotoneInConfig) {
  const Instance inst = RandomInstance(GetParam() + 80, 10, 4);
  VdpsConfig loose;
  loose.epsilon = 6.0;
  loose.max_set_size = 3;
  VdpsConfig tight = loose;
  tight.epsilon = 2.0;
  VdpsConfig tighter = tight;
  tighter.max_set_size = 2;
  const VdpsCatalog a = VdpsCatalog::Generate(inst, loose);
  const VdpsCatalog b = VdpsCatalog::Generate(inst, tight);
  const VdpsCatalog c = VdpsCatalog::Generate(inst, tighter);
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    EXPECT_GE(a.strategies(w).size(), b.strategies(w).size());
    EXPECT_GE(b.strategies(w).size(), c.strategies(w).size());
  }
}

/// The pairwise travel-time matrix — the edge times of the complete graph
/// an ε = ∞ enumeration walks — is symmetric with zero diagonal and obeys
/// the triangle inequality (Euclidean travel times).
TEST_P(PropertySeeds, DistanceMatrixMetricAxioms) {
  const Instance inst = RandomInstance(GetParam() + 90, 12, 0);
  const size_t n = inst.num_delivery_points();
  const RadiusAdjacency complete = CompleteAdjacency(n);
  const EdgeTravelTimes times(inst.center(), inst.DeliveryPointLocations(),
                              complete, inst.travel());
  const auto between = [&](size_t i, size_t j) {
    return times.edge[complete.offsets[i] + j];
  };
  for (size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(between(i, i), 0.0);
    for (size_t j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(between(i, j), between(j, i));
      for (size_t k = 0; k < n; ++k) {
        EXPECT_LE(between(i, j), between(i, k) + between(k, j) + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace fta

// Correctness battery for the shared BestResponseEngine: bit-identical
// solver output at any thread count, with ledger or rebuilt views, on both
// Evaluate paths (the monotone early exit at beta < 1, the full scan at
// beta >= 1); every Evaluate field equal, bit for bit, to an independent
// full scan under random churn on near-tie catalogs; availability answers
// equal to a from-scratch check under churn; counter accounting; and
// agreement with the one-shot BestResponse wrapper.

#include "game/best_response.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "game/fgt.h"
#include "game/iau_kernels.h"
#include "game/iegt.h"
#include "game/init.h"
#include "model/builder.h"
#include "support/equilibrium.h"
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

/// The solver-visible dynamics of a run: everything except the engine's
/// observational work counters (which legitimately differ between engine
/// configurations) must be bit-identical.
void ExpectSameDynamics(const GameResult& a, const GameResult& b) {
  EXPECT_EQ(a.assignment.routes(), b.assignment.routes());
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].iteration, b.trace[i].iteration);
    // Bit-identical, not approximately equal: the parallel reduce must
    // reproduce the serial path exactly.
    EXPECT_EQ(a.trace[i].payoff_difference, b.trace[i].payoff_difference);
    EXPECT_EQ(a.trace[i].average_payoff, b.trace[i].average_payoff);
    EXPECT_EQ(a.trace[i].potential, b.trace[i].potential);
    EXPECT_EQ(a.trace[i].num_changes, b.trace[i].num_changes);
  }
}

/// Near-tie catalog: twelve single-task delivery points exactly 5 from the
/// center (3-4-5 lattice points, so every distance is exact) with rewards a
/// few ulps apart, and workers sharing three locations. Strategy payoffs
/// then tie or sit ulps apart within a worker's list and across workers
/// (rank boundaries of the exclude-one view).
Instance NearTieInstance(uint64_t seed) {
  Rng rng(seed);
  InstanceBuilder builder(Point{0, 0});
  builder.Speed(5.0);
  const Point lattice[] = {{5, 0},  {-5, 0}, {0, 5},   {0, -5},
                           {3, 4},  {-3, 4}, {3, -4},  {-3, -4},
                           {4, 3},  {-4, 3}, {4, -3},  {-4, -3}};
  const double bases[] = {1.0, 1.5, 2.0};
  for (const Point& at : lattice) {
    double reward = bases[rng.Index(3)];
    for (size_t k = rng.Index(4); k > 0; --k) {
      reward = std::nextafter(reward, 10.0);
    }
    builder.DeliveryPointWithTasks(at, {SpatialTask{0, 100.0, reward}});
  }
  const Point spots[] = {{0, 0}, {3, 4}, {-4, -3}};
  for (size_t w = 0; w < 8; ++w) {
    builder.Worker(spots[rng.Index(3)],
                   1 + static_cast<uint32_t>(rng.Index(3)));
  }
  return builder.Build();
}

/// The exclude-one view of worker w, rebuilt from scratch.
OthersView ViewWithout(const JointState& state, size_t w) {
  std::vector<double> others;
  for (size_t j = 0; j < state.payoffs().size(); ++j) {
    if (j != w) others.push_back(state.payoff_of(j));
  }
  return OthersView(std::move(others));
}

/// Independent full scan: SortedIau (through OthersView) over the null
/// strategy and every available strategy in index order, with Equation
/// 10's tie-breaking — no batch kernel, no early exit.
BestResponseOutcome FullScan(const JointState& state, size_t w,
                             const IauParams& params) {
  const OthersView view = ViewWithout(state, w);
  const int32_t current = state.strategy_of(w);
  const double incumbent_u = view.Iau(state.payoff_of(w), params);
  bool valid = false;
  double best_u = 0.0;
  int32_t best = kNullStrategy;
  if (current != kNullStrategy) {
    valid = true;
    best_u = view.Iau(0.0, params);
  }
  const auto& strategies = state.catalog().strategies(w);
  for (size_t i = 0; i < strategies.size(); ++i) {
    const int32_t idx = static_cast<int32_t>(i);
    if (idx == current || !state.IsAvailable(w, idx)) continue;
    const double u = view.Iau(strategies[i].payoff, params);
    if (!valid || u > best_u) {
      valid = true;
      best_u = u;
      best = idx;
    }
  }
  BestResponseOutcome out;
  out.incumbent_utility = incumbent_u;
  out.best_utility = valid ? std::max(incumbent_u, best_u) : incumbent_u;
  if (valid && DefinitelyGreater(best_u, incumbent_u)) {
    out.strategy = best;
    out.utility = best_u;
  } else {
    out.strategy = current;
    out.utility = incumbent_u;
  }
  return out;
}

void ExpectSameOutcome(const BestResponseOutcome& got,
                       const BestResponseOutcome& want) {
  EXPECT_EQ(got.strategy, want.strategy);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.utility),
            std::bit_cast<uint64_t>(want.utility));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.incumbent_utility),
            std::bit_cast<uint64_t>(want.incumbent_utility));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.best_utility),
            std::bit_cast<uint64_t>(want.best_utility));
}

/// True when w holds a strategy and another available strategy's payoff
/// lies within the early exit's band of it.
bool IncumbentInBand(const JointState& state, size_t w,
                     const IauParams& params) {
  const int32_t current = state.strategy_of(w);
  if (current == kNullStrategy) return false;
  const OthersView view = ViewWithout(state, w);
  const double own = state.payoff_of(w);
  const double band = SortedIauMonotoneBand(
      view.sorted_values(), view.size(), view.prefix_sums(), params, own);
  if (!std::isfinite(band)) return false;
  const auto& strategies = state.catalog().strategies(w);
  for (size_t i = 0; i < strategies.size(); ++i) {
    const int32_t idx = static_cast<int32_t>(i);
    if (idx == current || !state.IsAvailable(w, idx)) continue;
    if (std::abs(strategies[i].payoff - own) <= band) return true;
  }
  return false;
}

/// Thread counts x index modes: the payoff ledger (the incrementally
/// sorted payoff index Evaluate reads its exclude-one view from) on or off.
std::vector<BestResponseConfig> EngineVariants() {
  std::vector<BestResponseConfig> variants;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (bool ledger : {true, false}) {
      BestResponseConfig config;
      config.num_threads = threads;
      config.use_payoff_ledger = ledger;
      config.min_parallel_candidates = 1;  // force fan-out on tiny catalogs
      variants.push_back(config);
    }
  }
  return variants;
}

/// The paper's alpha = beta = 0.5 (monotone early exit) and the
/// alpha = beta = 1 ablation (full scan with pool fan-out).
const IauParams kPathParams[] = {IauParams{0.5, 0.5}, IauParams{1.0, 1.0}};

class EngineSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineSeeds, FgtDeterministicAcrossThreadsAndIndexModes) {
  const Instance inst = RandomInstance(GetParam(), 12, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  for (const IauParams& params : kPathParams) {
    FgtConfig config;
    config.record_trace = true;
    config.seed = GetParam() * 31 + 7;
    config.iau = params;
    const GameResult reference = SolveFgt(inst, catalog, config);
    for (const BestResponseConfig& engine : EngineVariants()) {
      FgtConfig variant = config;
      variant.engine = engine;
      const GameResult run = SolveFgt(inst, catalog, variant);
      ExpectSameDynamics(reference, run);
      EXPECT_EQ(reference.assignment.PayoffDifference(inst),
                run.assignment.PayoffDifference(inst));
    }
  }
}

TEST_P(EngineSeeds, IegtDeterministicAcrossThreadsAndIndexModes) {
  const Instance inst = RandomInstance(GetParam() + 500, 12, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  IegtConfig config;
  config.record_trace = true;
  config.seed = GetParam() * 17 + 3;
  const GameResult reference = SolveIegt(inst, catalog, config);
  for (const BestResponseConfig& engine : EngineVariants()) {
    IegtConfig variant = config;
    variant.engine = engine;
    const GameResult run = SolveIegt(inst, catalog, variant);
    ExpectSameDynamics(reference, run);
    EXPECT_EQ(reference.assignment.PayoffDifference(inst),
              run.assignment.PayoffDifference(inst));
  }
}

TEST_P(EngineSeeds, EvaluateMatchesFreeFunctionBestResponse) {
  const Instance inst = RandomInstance(GetParam() + 1000, 10, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const IauParams params;
  JointState state(inst, catalog);
  Rng rng(GetParam());
  RandomSingletonInit(state, rng);
  BestResponseConfig config;
  config.num_threads = 2;
  config.min_parallel_candidates = 1;
  BestResponseEngine engine(state, params, config);
  // Interleave random churn with comparisons so the cache sees real dirt.
  for (int step = 0; step < 50; ++step) {
    for (size_t w = 0; w < inst.num_workers(); ++w) {
      EXPECT_EQ(engine.BestResponse(w), BestResponse(state, w, params));
    }
    const size_t w = rng.Index(inst.num_workers());
    const auto& strategies = catalog.strategies(w);
    if (strategies.empty()) continue;
    const int32_t idx = rng.Bernoulli(0.2)
                            ? kNullStrategy
                            : static_cast<int32_t>(rng.Index(strategies.size()));
    if (state.IsAvailable(w, idx)) engine.Apply(w, idx);
  }
}

TEST_P(EngineSeeds, EvaluateMatchesIndependentFullScanUnderChurn) {
  const Instance inst = NearTieInstance(GetParam());
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  // The early exit, the full scan with fan-out, and the full scan one ulp
  // below beta = 1 (where the band's slope bound is gone).
  const IauParams param_sets[] = {IauParams{0.5, 0.5}, IauParams{1.0, 1.0},
                                  IauParams{0.5, std::nextafter(1.0, 0.0)}};
  size_t incumbents_in_band = 0;
  for (const IauParams& params : param_sets) {
    JointState state(inst, catalog);
    BestResponseConfig config;
    config.num_threads = 2;
    config.min_parallel_candidates = 1;
    BestResponseEngine engine(state, params, config);
    Rng rng(GetParam() * 7 + 3);
    for (int step = 0; step < 100; ++step) {
      for (size_t w = 0; w < inst.num_workers(); ++w) {
        SCOPED_TRACE(::testing::Message() << "beta " << params.beta
                                          << " step " << step << " worker "
                                          << w);
        ExpectSameOutcome(engine.Evaluate(w), FullScan(state, w, params));
        if (IncumbentInBand(state, w, params)) ++incumbents_in_band;
      }
      const size_t w = rng.Index(inst.num_workers());
      const auto& strategies = catalog.strategies(w);
      if (strategies.empty()) continue;
      const int32_t idx =
          rng.Bernoulli(0.2)
              ? kNullStrategy
              : static_cast<int32_t>(rng.Index(strategies.size()));
      if (state.IsAvailable(w, idx)) engine.Apply(w, idx);
    }
  }
  // The churn must reach the case the band exists for.
  EXPECT_GT(incumbents_in_band, 0u);
}

/// Ground-truth availability, from the joint strategy alone: no other
/// worker's current VDPS shares a delivery point with v's strategy idx.
bool AvailableFromScratch(const JointState& state, size_t v, int32_t idx) {
  if (idx == kNullStrategy) return true;
  const VdpsCatalog& catalog = state.catalog();
  const auto dps_of = [&](size_t worker, int32_t strategy) -> const auto& {
    const size_t i = static_cast<size_t>(strategy);
    return catalog.entry(catalog.strategies(worker)[i].entry_id).dps;
  };
  for (size_t u = 0; u < state.joint_strategy().size(); ++u) {
    const int32_t held = state.strategy_of(u);
    if (u == v || held == kNullStrategy) continue;
    for (uint32_t dp : dps_of(u, held)) {
      for (uint32_t mine : dps_of(v, idx)) {
        if (dp == mine) return false;
      }
    }
  }
  return true;
}

TEST_P(EngineSeeds, AvailabilityCacheMatchesGroundTruthUnderChurn) {
  // The engine reads availability straight from JointState's incrementally
  // kept delivery-point ownership map; under churn through the engine,
  // every answer it gives (IsAvailable, and the candidate list of
  // AvailableAbovePayoff) must agree with a from-scratch check.
  const Instance inst = RandomInstance(GetParam() + 2000, 10, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  JointState state(inst, catalog);
  BestResponseEngine engine(state, IauParams(), BestResponseConfig());
  Rng rng(GetParam() * 3 + 1);
  std::vector<int32_t> listed;
  for (int step = 0; step < 200; ++step) {
    const size_t w = rng.Index(inst.num_workers());
    const auto& strategies = catalog.strategies(w);
    if (!strategies.empty()) {
      const int32_t idx =
          rng.Bernoulli(0.25)
              ? kNullStrategy
              : static_cast<int32_t>(rng.Index(strategies.size()));
      if (state.IsAvailable(w, idx)) engine.Apply(w, idx);
    }
    for (size_t v = 0; v < inst.num_workers(); ++v) {
      std::vector<int32_t> expected;
      for (size_t i = 0; i < catalog.strategies(v).size(); ++i) {
        const int32_t idx = static_cast<int32_t>(i);
        const bool truth = AvailableFromScratch(state, v, idx);
        EXPECT_EQ(state.IsAvailable(v, idx), truth)
            << "worker " << v << " strategy " << i << " step " << step;
        if (truth && idx != state.strategy_of(v)) expected.push_back(idx);
      }
      engine.AvailableAbovePayoff(v, -kInfinity, listed);
      EXPECT_EQ(listed, expected) << "worker " << v << " step " << step;
    }
  }
  EXPECT_EQ(engine.counters().cache_skips, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16, 17, 18, 19,
                                           20));

TEST(BestResponseEngineTest, ParallelBatchCounterTracksFanOuts) {
  // Only the full scan (beta >= 1) fans out.
  const Instance inst = RandomInstance(7, 12, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  FgtConfig serial;
  serial.iau = IauParams{1.0, 1.0};
  FgtConfig parallel = serial;
  parallel.engine.num_threads = 4;
  parallel.engine.min_parallel_candidates = 1;
  const GameResult a = SolveFgt(inst, catalog, serial);
  const GameResult b = SolveFgt(inst, catalog, parallel);
  EXPECT_EQ(a.engine.parallel_batches, 0u);
  EXPECT_GT(b.engine.parallel_batches, 0u);
  EXPECT_EQ(a.assignment.routes(), b.assignment.routes());
  // The set of candidates examined is thread-count invariant.
  EXPECT_EQ(a.engine.strategies_scanned, b.engine.strategies_scanned);
}

TEST(BestResponseEngineTest, EarlyExitWorkCountersAreThreadInvariant) {
  // The early exit walks serially before any fan-out, so at the paper's
  // alpha = beta = 0.5 every work counter is the same at any thread count.
  const Instance inst = RandomInstance(7, 12, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const GameResult serial = SolveFgt(inst, catalog, FgtConfig());
  EXPECT_GT(serial.engine.strategies_scanned, 0u);
  EXPECT_GT(serial.engine.simd_lanes, 0u);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    FgtConfig config;
    config.engine.num_threads = threads;
    config.engine.min_parallel_candidates = 1;
    const GameResult run = SolveFgt(inst, catalog, config);
    EXPECT_EQ(run.assignment.routes(), serial.assignment.routes());
    EXPECT_EQ(run.engine.parallel_batches, 0u);
    EXPECT_EQ(run.engine.strategies_scanned, serial.engine.strategies_scanned);
    EXPECT_EQ(run.engine.simd_batches, serial.engine.simd_batches);
    EXPECT_EQ(run.engine.simd_lanes, serial.engine.simd_lanes);
  }
}

TEST(BestResponseEngineTest, EquilibriumConsumersAgreeAcrossEngineConfigs) {
  const Instance inst = RandomInstance(21, 5, 2);
  VdpsConfig vdps;
  vdps.max_set_size = 2;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);
  const GameResult fgt = SolveFgt(inst, catalog);
  for (const BestResponseConfig& engine : EngineVariants()) {
    const EquilibriumReport report = AnalyzeEquilibrium(
        inst, catalog, fgt.assignment, IauParams(), engine);
    EXPECT_TRUE(report.is_nash);
    const NashEnumeration nash =
        EnumeratePureNash(inst, catalog, IauParams(), 2'000'000, engine);
    ASSERT_TRUE(nash.complete);
    bool found = false;
    for (const Assignment& eq : nash.equilibria) {
      found = found || eq.routes() == fgt.assignment.routes();
    }
    EXPECT_TRUE(found);
  }
}

TEST(BestResponseEngineTest, EmptyCatalogWorkerKeepsNullStrategy) {
  // A worker that cannot reach anything must best-respond with null.
  std::vector<DeliveryPoint> dps;
  dps.emplace_back(Point{100, 100},
                   std::vector<SpatialTask>{SpatialTask{0, 0.1, 1.0}});
  Instance inst(Point{0, 0}, std::move(dps), {Worker{{0, 0}, 3}},
                TravelModel(1.0));
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  JointState state(inst, catalog);
  BestResponseEngine engine(state, IauParams(), BestResponseConfig());
  EXPECT_EQ(engine.BestResponse(0), kNullStrategy);
  EXPECT_FALSE(engine.Step(0));
  EXPECT_TRUE(engine.IsNash());
}

}  // namespace
}  // namespace fta

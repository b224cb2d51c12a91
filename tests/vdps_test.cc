#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "datagen/gmission.h"
#include "model/route.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "vdps/catalog.h"
#include "vdps/catalog_internal.h"
#include "vdps/enumeration_store.h"
#include "vdps/generators.h"
#include "vdps/pareto.h"

namespace fta {
namespace {

/// Small random instance builder for property sweeps.
Instance RandomInstance(uint64_t seed, size_t num_dps, size_t num_workers,
                        double area = 10.0, double expiry_lo = 1.0,
                        double expiry_hi = 4.0) {
  Rng rng(seed);
  std::vector<DeliveryPoint> dps;
  for (uint32_t d = 0; d < num_dps; ++d) {
    std::vector<SpatialTask> tasks;
    const size_t n = 1 + rng.Index(4);
    for (size_t t = 0; t < n; ++t) {
      tasks.push_back(SpatialTask{d, rng.Uniform(expiry_lo, expiry_hi), 1.0});
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

/// Canonical form of a generation result for engine-equivalence checks:
/// set -> (reward, best center_time, best slack).
std::map<std::vector<uint32_t>, std::tuple<double, double, double>>
Canonical(const GenerationResult& gen) {
  std::map<std::vector<uint32_t>, std::tuple<double, double, double>> out;
  for (const CVdpsEntry& e : gen.entries) {
    double best_time = kInfinity, best_slack = -kInfinity;
    for (const SequenceOption& o : e.options) {
      best_time = std::min(best_time, o.center_time);
      best_slack = std::max(best_slack, o.slack);
    }
    out[e.dps] = {e.total_reward, best_time, best_slack};
  }
  return out;
}

// ---------------------------------------------------------------- Pareto --

TEST(ParetoTest, KeepsNonDominated) {
  std::vector<SequenceOption> f;
  EXPECT_TRUE(InsertParetoOption(f, {{0}, 1.0, 1.0}, 4));
  EXPECT_TRUE(InsertParetoOption(f, {{1}, 2.0, 3.0}, 4));  // slower, slackier
  EXPECT_EQ(f.size(), 2u);
  EXPECT_DOUBLE_EQ(f[0].center_time, 1.0);
  EXPECT_DOUBLE_EQ(f[1].center_time, 2.0);
}

TEST(ParetoTest, RejectsDominated) {
  std::vector<SequenceOption> f;
  InsertParetoOption(f, {{0}, 1.0, 2.0}, 4);
  EXPECT_FALSE(InsertParetoOption(f, {{1}, 1.5, 1.5}, 4));  // worse both ways
  EXPECT_EQ(f.size(), 1u);
}

TEST(ParetoTest, RemovesNewlyDominated) {
  std::vector<SequenceOption> f;
  InsertParetoOption(f, {{0}, 2.0, 1.0}, 4);
  EXPECT_TRUE(InsertParetoOption(f, {{1}, 1.0, 2.0}, 4));  // dominates
  EXPECT_EQ(f.size(), 1u);
  EXPECT_DOUBLE_EQ(f[0].center_time, 1.0);
}

TEST(ParetoTest, CapKeepsExtremes) {
  std::vector<SequenceOption> f;
  for (int i = 0; i < 10; ++i) {
    InsertParetoOption(
        f, {{static_cast<uint32_t>(i)}, 1.0 + i, 1.0 + i}, 3);
  }
  EXPECT_LE(f.size(), 3u);
  EXPECT_DOUBLE_EQ(f.front().center_time, 1.0);   // fastest retained
  EXPECT_DOUBLE_EQ(f.back().slack, 10.0);         // slackiest retained
}

// ------------------------------------------------------------ ExactDp ----

TEST(ExactDpTest, SingleDeliveryPointFeasible) {
  std::vector<DeliveryPoint> dps;
  dps.emplace_back(Point{1, 0},
                   std::vector<SpatialTask>{SpatialTask{0, 2.0, 1.0}});
  Instance inst(Point{0, 0}, std::move(dps), {}, TravelModel(1.0));
  const GenerationResult gen = GenerateCVdpsExact(inst, VdpsConfig{});
  ASSERT_EQ(gen.entries.size(), 1u);
  EXPECT_EQ(gen.entries[0].dps, (std::vector<uint32_t>{0}));
  ASSERT_EQ(gen.entries[0].options.size(), 1u);
  EXPECT_DOUBLE_EQ(gen.entries[0].options[0].center_time, 1.0);
  EXPECT_DOUBLE_EQ(gen.entries[0].options[0].slack, 1.0);
}

TEST(ExactDpTest, InfeasibleDeliveryPointExcluded) {
  std::vector<DeliveryPoint> dps;
  dps.emplace_back(Point{10, 0},
                   std::vector<SpatialTask>{SpatialTask{0, 2.0, 1.0}});
  Instance inst(Point{0, 0}, std::move(dps), {}, TravelModel(1.0));
  const GenerationResult gen = GenerateCVdpsExact(inst, VdpsConfig{});
  EXPECT_TRUE(gen.entries.empty());
}

TEST(ExactDpTest, PairOrderingMatters) {
  // dp0 expires early and must be visited first; {dp0, dp1} is a C-VDPS
  // only via the (dp0, dp1) ordering.
  std::vector<DeliveryPoint> dps;
  dps.emplace_back(Point{1, 0},
                   std::vector<SpatialTask>{SpatialTask{0, 1.2, 1.0}});
  dps.emplace_back(Point{2, 0},
                   std::vector<SpatialTask>{SpatialTask{1, 10.0, 1.0}});
  Instance inst(Point{0, 0}, std::move(dps), {}, TravelModel(1.0));
  const GenerationResult gen = GenerateCVdpsExact(inst, VdpsConfig{});
  ASSERT_EQ(gen.entries.size(), 3u);  // {0}, {1}, {0,1}
  const CVdpsEntry& pair = gen.entries[2];
  ASSERT_EQ(pair.dps, (std::vector<uint32_t>{0, 1}));
  for (const SequenceOption& o : pair.options) {
    EXPECT_EQ(o.route, (Route{0, 1}));
  }
}

TEST(ExactDpTest, MaxSetSizeCapsEnumeration) {
  const Instance inst = RandomInstance(5, 8, 0, 5.0, 3.0, 6.0);
  VdpsConfig config;
  config.max_set_size = 2;
  const GenerationResult gen = GenerateCVdpsExact(inst, config);
  for (const CVdpsEntry& e : gen.entries) {
    EXPECT_LE(e.dps.size(), 2u);
  }
}

TEST(ExactDpTest, MinTravelSequenceRetained) {
  // Two symmetric points: both orderings feasible; the min-travel option
  // must equal the optimal tour time.
  std::vector<DeliveryPoint> dps;
  dps.emplace_back(Point{1, 0},
                   std::vector<SpatialTask>{SpatialTask{0, 100.0, 1.0}});
  dps.emplace_back(Point{5, 0},
                   std::vector<SpatialTask>{SpatialTask{1, 100.0, 1.0}});
  Instance inst(Point{0, 0}, std::move(dps), {}, TravelModel(1.0));
  const GenerationResult gen = GenerateCVdpsExact(inst, VdpsConfig{});
  const CVdpsEntry* pair = nullptr;
  for (const CVdpsEntry& e : gen.entries) {
    if (e.dps.size() == 2) pair = &e;
  }
  ASSERT_NE(pair, nullptr);
  // Best: 0 -> dp0 (1) -> dp1 (4 more) = 5; the other order costs 5+4=9.
  EXPECT_DOUBLE_EQ(pair->options.front().center_time, 5.0);
  EXPECT_EQ(pair->options.front().route, (Route{0, 1}));
}

// ------------------------------------------- Engine equivalence property --

class EngineEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineEquivalenceTest, SequencesMatchExactDp) {
  const Instance inst = RandomInstance(GetParam(), 9, 3);
  for (double epsilon : {kInfinity, 3.0, 1.5}) {
    VdpsConfig config;
    config.epsilon = epsilon;
    config.max_set_size = 3;
    config.max_pareto = 8;
    const auto exact = Canonical(GenerateCVdpsExact(inst, config));
    const auto sequences = Canonical(GenerateCVdpsSequences(inst, config));
    ASSERT_EQ(exact.size(), sequences.size()) << "epsilon=" << epsilon;
    for (const auto& [dps, vals] : exact) {
      auto it = sequences.find(dps);
      ASSERT_NE(it, sequences.end());
      EXPECT_NEAR(std::get<0>(vals), std::get<0>(it->second), 1e-9);
      EXPECT_NEAR(std::get<1>(vals), std::get<1>(it->second), 1e-9);
      EXPECT_NEAR(std::get<2>(vals), std::get<2>(it->second), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------- Travel graph --

TEST(TravelGraphTest, EpsilonSelectsTheRowsAndEveryEngineKeepsOnlyThose) {
  const Instance inst = RandomInstance(44, 12, 2);
  const size_t n = inst.num_delivery_points();
  for (double epsilon : {kInfinity, 3.0}) {
    VdpsConfig config;
    config.epsilon = epsilon;
    config.max_set_size = 3;
    GenerationCounters counters;
    const vdps_internal::TravelGraph g =
        vdps_internal::BuildTravelGraph(inst, config, nullptr, &counters);
    const RadiusAdjacency want =
        std::isinf(epsilon)
            ? CompleteAdjacency(n)
            : GridIndex(inst.DeliveryPointLocations(), epsilon)
                  .BuildRadiusAdjacency(epsilon);
    EXPECT_EQ(g.adj.offsets, want.offsets) << "epsilon=" << epsilon;
    EXPECT_EQ(g.adj.neighbors, want.neighbors) << "epsilon=" << epsilon;
    EXPECT_EQ(g.times.edge.size(), g.adj.num_pairs());
    EXPECT_EQ(counters.adjacency_pairs, g.adj.num_pairs());
    // The catalog keeps the ε-adjacency ApplyDelta patches, never the
    // complete graph.
    for (const GenerationResult& gen :
         {GenerateCVdpsSequences(inst, config), GenerateCVdpsExact(inst, config),
          GenerateCVdpsBeam(inst, config, 64)}) {
      EXPECT_EQ(gen.adjacency.num_pairs(),
                std::isinf(epsilon) ? 0u : want.num_pairs());
      EXPECT_EQ(gen.counters.adjacency_pairs, want.num_pairs());
    }
  }
  EXPECT_EQ(CompleteAdjacency(n).num_pairs(), n * n);
}

// ------------------------------------------------------- Pruning effects --

TEST(PruningTest, SmallerEpsilonNeverAddsEntries) {
  const Instance inst = RandomInstance(42, 10, 2);
  size_t prev = std::numeric_limits<size_t>::max();
  for (double epsilon : {kInfinity, 4.0, 2.0, 1.0, 0.5}) {
    VdpsConfig config;
    config.epsilon = epsilon;
    config.max_set_size = 3;
    const GenerationResult gen = GenerateCVdpsSequences(inst, config);
    EXPECT_LE(gen.entries.size(), prev);
    prev = gen.entries.size();
  }
}

TEST(PruningTest, EpsilonPrunedIsSubsetOfUnpruned) {
  const Instance inst = RandomInstance(43, 10, 2);
  VdpsConfig unpruned;
  unpruned.max_set_size = 3;
  VdpsConfig pruned = unpruned;
  pruned.epsilon = 2.0;
  const auto all = Canonical(GenerateCVdpsSequences(inst, unpruned));
  const auto sub = Canonical(GenerateCVdpsSequences(inst, pruned));
  for (const auto& [dps, vals] : sub) {
    auto it = all.find(dps);
    ASSERT_NE(it, all.end());
    // The pruned search explores a subset of orderings, so its best time
    // cannot beat the unpruned one, and its slack cannot exceed it.
    EXPECT_GE(std::get<1>(vals), std::get<1>(it->second) - 1e-9);
    EXPECT_LE(std::get<2>(vals), std::get<2>(it->second) + 1e-9);
  }
}

TEST(PruningTest, FirstHopNotPruned) {
  // Two far-apart delivery points: with a tiny epsilon both singletons
  // survive (center->dp is never pruned) but the pair does not.
  std::vector<DeliveryPoint> dps;
  dps.emplace_back(Point{5, 0},
                   std::vector<SpatialTask>{SpatialTask{0, 100.0, 1.0}});
  dps.emplace_back(Point{-5, 0},
                   std::vector<SpatialTask>{SpatialTask{1, 100.0, 1.0}});
  Instance inst(Point{0, 0}, std::move(dps), {}, TravelModel(1.0));
  VdpsConfig config;
  config.epsilon = 1.0;
  const GenerationResult gen = GenerateCVdpsSequences(inst, config);
  ASSERT_EQ(gen.entries.size(), 2u);
  EXPECT_EQ(gen.entries[0].dps.size(), 1u);
  EXPECT_EQ(gen.entries[1].dps.size(), 1u);
}

TEST(PruningTest, MaxEntriesTruncates) {
  const Instance inst = RandomInstance(44, 12, 0, 4.0, 4.0, 8.0);
  VdpsConfig config;
  config.max_set_size = 3;
  config.max_entries = 5;
  const GenerationResult gen = GenerateCVdpsSequences(inst, config);
  EXPECT_LE(gen.entries.size(), 5u);
  EXPECT_TRUE(gen.truncated);
}

// ------------------------------------------------------------------ Beam --

TEST(BeamTest, HugeBeamMatchesExhaustiveEnumerator) {
  const Instance inst = RandomInstance(90, 9, 2);
  VdpsConfig config;
  config.epsilon = 3.0;
  config.max_set_size = 3;
  const auto full = Canonical(GenerateCVdpsSequences(inst, config));
  const auto beam = Canonical(GenerateCVdpsBeam(inst, config, 1u << 20));
  ASSERT_EQ(full.size(), beam.size());
  for (const auto& [dps, vals] : full) {
    auto it = beam.find(dps);
    ASSERT_NE(it, beam.end());
    EXPECT_NEAR(std::get<1>(vals), std::get<1>(it->second), 1e-9);
  }
}

TEST(BeamTest, NarrowBeamIsSoundSubset) {
  const Instance inst = RandomInstance(91, 10, 2);
  VdpsConfig config;
  config.max_set_size = 3;
  const auto full = Canonical(GenerateCVdpsSequences(inst, config));
  const GenerationResult narrow = GenerateCVdpsBeam(inst, config, 5);
  EXPECT_LE(narrow.entries.size(), full.size());
  EXPECT_TRUE(narrow.truncated);
  for (const CVdpsEntry& e : narrow.entries) {
    // Soundness: every produced entry exists in the exhaustive catalog and
    // its sequences are genuinely feasible center-origin.
    EXPECT_TRUE(full.count(e.dps)) << "beam invented a set";
    for (const SequenceOption& opt : e.options) {
      const RouteEvaluation eval =
          EvaluateRouteFromCenter(inst, opt.route, 0.0);
      EXPECT_TRUE(eval.feasible);
      EXPECT_NEAR(eval.total_time, opt.center_time, 1e-9);
    }
  }
}

TEST(BeamTest, ScalesToLargeMaxDp) {
  // max_set_size = 6 would explode the exhaustive enumerator on a dense
  // instance; the beam handles it in bounded work.
  const Instance inst = RandomInstance(92, 30, 4, 6.0, 4.0, 9.0);
  VdpsConfig config;
  config.max_set_size = 6;
  const GenerationResult r = GenerateCVdpsBeam(inst, config, 200);
  EXPECT_GT(r.entries.size(), 0u);
  size_t longest = 0;
  for (const CVdpsEntry& e : r.entries) {
    longest = std::max(longest, e.dps.size());
  }
  EXPECT_GE(longest, 4u);  // the beam actually reaches deep levels
}

TEST(BeamTest, PlumbedThroughCatalogGenerate) {
  const Instance inst = RandomInstance(93, 12, 3);
  VdpsConfig config;
  config.max_set_size = 3;
  config.beam_width = 10;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, config);
  EXPECT_GT(catalog.num_entries(), 0u);
  // Strategies still verify against the instance.
  for (size_t w = 0; w < catalog.num_workers(); ++w) {
    for (const WorkerStrategy& st : catalog.strategies(w)) {
      EXPECT_TRUE(EvaluateRoute(inst, w, catalog.route(st)).feasible);
    }
  }
}

// --------------------------------------------------------------- Catalog --

TEST(CatalogTest, StrategiesRespectMaxDp) {
  Instance inst = RandomInstance(50, 8, 4);
  VdpsConfig config;
  config.max_set_size = 4;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, config);
  for (size_t w = 0; w < catalog.num_workers(); ++w) {
    for (const WorkerStrategy& st : catalog.strategies(w)) {
      EXPECT_LE(catalog.entry(st.entry_id).dps.size(),
                inst.worker(w).max_delivery_points);
    }
  }
}

TEST(CatalogTest, StrategiesSortedByPayoffDesc) {
  const Instance inst = RandomInstance(51, 8, 4);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  for (size_t w = 0; w < catalog.num_workers(); ++w) {
    const auto& s = catalog.strategies(w);
    for (size_t i = 1; i < s.size(); ++i) {
      EXPECT_GE(s[i - 1].payoff, s[i].payoff - 1e-12);
    }
  }
}

TEST(CatalogTest, StrategyRoutesAreFeasibleForWorker) {
  const Instance inst = RandomInstance(52, 9, 5);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  for (size_t w = 0; w < catalog.num_workers(); ++w) {
    for (const WorkerStrategy& st : catalog.strategies(w)) {
      const RouteEvaluation eval =
          EvaluateRoute(inst, w, catalog.route(st));
      EXPECT_TRUE(eval.feasible)
          << "worker " << w << " route infeasible";
      EXPECT_NEAR(eval.total_time, st.total_time, 1e-9);
      EXPECT_NEAR(eval.payoff, st.payoff, 1e-9);
      EXPECT_NEAR(eval.total_reward, st.total_reward, 1e-9);
    }
  }
}

TEST(CatalogTest, FarWorkerHasFewerStrategies) {
  // A worker far from the center tolerates less slack, so its strategy set
  // is a subset of a co-located worker's.
  Rng rng(53);
  std::vector<DeliveryPoint> dps;
  for (uint32_t d = 0; d < 6; ++d) {
    dps.emplace_back(Point{rng.Uniform(0, 4), rng.Uniform(0, 4)},
                     std::vector<SpatialTask>{SpatialTask{d, 1.2, 1.0}});
  }
  std::vector<Worker> workers{{{2, 2}, 3}, {{40, 40}, 3}};
  Instance inst(Point{2, 2}, std::move(dps), std::move(workers),
                TravelModel(5.0));
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  EXPECT_GE(catalog.strategies(0).size(), catalog.strategies(1).size());
  EXPECT_EQ(catalog.strategies(1).size(), 0u);  // 53+ km away, 1.2h expiry
}

TEST(CatalogTest, BestOptionForPicksFastestAdmissible) {
  CVdpsEntry entry;
  entry.options = {{{0}, 1.0, 0.5}, {{0}, 2.0, 2.0}};
  EXPECT_DOUBLE_EQ(entry.BestOptionFor(0.0)->center_time, 1.0);
  EXPECT_DOUBLE_EQ(entry.BestOptionFor(1.0)->center_time, 2.0);
  EXPECT_EQ(entry.BestOptionFor(3.0), nullptr);
}

TEST(CatalogTest, BestOptionForEmptyFrontier) {
  CVdpsEntry entry;
  EXPECT_EQ(entry.BestOptionFor(0.0), nullptr);
}

TEST(CatalogTest, BestOptionForOffsetOnSlackBoundary) {
  CVdpsEntry entry;
  entry.options = {{{0}, 1.0, 0.5}, {{0}, 2.0, 2.0}};
  // An offset exactly equal to an option's slack still admits it (the
  // binary search is kEps-tolerant), and the fastest admissible wins.
  EXPECT_DOUBLE_EQ(entry.BestOptionFor(0.5)->center_time, 1.0);
  EXPECT_DOUBLE_EQ(entry.BestOptionFor(2.0)->center_time, 2.0);
  EXPECT_DOUBLE_EQ(entry.BestOptionFor(0.5 + 1e-12)->center_time, 1.0);
  EXPECT_EQ(entry.BestOptionFor(2.0 + 1e-6), nullptr);
}

TEST(CatalogTest, BestOptionForScansLongFrontier) {
  // A long ascending (center_time, slack) frontier: for every offset the
  // binary search must agree with a linear scan.
  CVdpsEntry entry;
  for (uint32_t i = 0; i < 9; ++i) {
    entry.options.push_back({{i}, 1.0 + i, 0.25 * i});
  }
  for (double offset = 0.0; offset < 2.6; offset += 0.05) {
    const SequenceOption* linear = nullptr;
    for (const SequenceOption& o : entry.options) {
      if (o.slack + kEps >= offset) {
        linear = &o;
        break;
      }
    }
    EXPECT_EQ(entry.BestOptionFor(offset), linear) << "offset=" << offset;
  }
}

TEST(CatalogTest, SummaryMentionsCounts) {
  const Instance inst = RandomInstance(54, 6, 2);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  const std::string s = catalog.Summary();
  EXPECT_NE(s.find("entries="), std::string::npos);
  EXPECT_NE(s.find("workers=2"), std::string::npos);
}

TEST(CatalogTest, GMissionPipelineProducesStrategies) {
  GMissionConfig config;
  config.num_tasks = 80;
  config.num_workers = 10;
  GMissionPrepConfig prep;
  prep.num_delivery_points = 20;
  const Instance inst = GenerateGMissionLike(config, prep);
  ASSERT_TRUE(inst.Validate().ok());
  VdpsConfig vdps;
  vdps.epsilon = 2.0;
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, vdps);
  EXPECT_GT(catalog.num_entries(), 0u);
  EXPECT_GT(catalog.MaxStrategiesPerWorker(), 0u);
}

TEST(CatalogTest, StrategyListsMatchAnExhaustiveProbe) {
  // Generate skips entries through StrategyProbe and whole workers through
  // its max_reach; the lists must equal probing every entry with
  // MakeStrategy and sorting by StrategyOrder. The last worker stands far
  // enough out that no entry admits its offset.
  Instance base = RandomInstance(53, 12, 6);
  std::vector<Worker> workers = base.workers();
  workers.push_back(Worker{{500.0, 500.0}, 3});
  const Instance inst(base.center(), base.delivery_points(),
                      std::move(workers), base.travel());
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  EXPECT_TRUE(catalog.strategies(inst.num_workers() - 1).empty());
  for (size_t w = 0; w < inst.num_workers(); ++w) {
    std::vector<WorkerStrategy> want;
    WorkerStrategy st;
    for (uint32_t e = 0; e < catalog.num_entries(); ++e) {
      if (vdps_internal::MakeStrategy(
              catalog.entry(e), e, inst.WorkerToCenterTime(w),
              inst.worker(w).max_delivery_points, &st)) {
        want.push_back(st);
      }
    }
    std::sort(want.begin(), want.end(), vdps_internal::StrategyOrder{});
    const std::vector<WorkerStrategy>& got = catalog.strategies(w);
    ASSERT_EQ(got.size(), want.size()) << "worker " << w;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].entry_id, want[i].entry_id);
      EXPECT_EQ(got[i].option, want[i].option);
      EXPECT_EQ(got[i].payoff, want[i].payoff);
    }
  }
}

// ------------------------------------------------------- strategy sort --

/// SortStrategies on `payoffs` (entry ids ascending, as every caller
/// builds them) against std::sort under StrategyOrder, bit for bit.
void ExpectSortMatchesStdSort(const std::vector<double>& payoffs) {
  std::vector<WorkerStrategy> list(payoffs.size());
  for (size_t i = 0; i < payoffs.size(); ++i) {
    list[i].entry_id = static_cast<uint32_t>(i);
    list[i].option = static_cast<uint32_t>(i % 3);
    list[i].total_time = static_cast<double>(i);
    list[i].payoff = payoffs[i];
  }
  std::vector<WorkerStrategy> want = list;
  std::sort(want.begin(), want.end(), vdps_internal::StrategyOrder{});
  std::vector<WorkerStrategy> scratch(list.size());
  const WorkerStrategy* got =
      vdps_internal::SortStrategies(list.data(), scratch.data(), list.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].entry_id, want[i].entry_id)
        << "n=" << payoffs.size() << " i=" << i;
    EXPECT_EQ(got[i].option, want[i].option);
    EXPECT_EQ(got[i].total_time, want[i].total_time);
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].payoff),
              std::bit_cast<uint64_t>(want[i].payoff));
  }
}

TEST(StrategySortTest, MatchesStdSortOnEdgeValues) {
  const size_t cut = vdps_internal::kRadixSortMinStrategies;
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> specials{
      0.0,    -0.0,       denorm,   4 * denorm, 1e-310, kInfinity,
      1.0,    1.0,        2.5,      1e300,      -0.0,   denorm};
  Rng rng(17);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, cut - 1, cut,
                   cut + 1, 3 * cut, size_t{1000}}) {
    // Tie runs among a few distinct values, the signed zeros among them.
    const std::vector<double> few{0.0, -0.0, denorm, 1.5, 1.5, 3.0};
    std::vector<double> ties(n);
    for (double& p : ties) p = few[rng.Index(few.size())];
    ExpectSortMatchesStdSort(ties);
    // Subnormals, +inf, both zeros and repeats mixed with random values.
    std::vector<double> mixed(n);
    for (double& p : mixed) {
      p = rng.Index(2) == 0 ? specials[rng.Index(specials.size())]
                            : rng.Uniform(0.0, 50.0);
    }
    ExpectSortMatchesStdSort(mixed);
    // Payoffs that share their high bytes: only the low digits differ, so
    // the radix path skips the constant ones.
    std::vector<double> close(n);
    for (double& p : close) {
      p = std::bit_cast<double>(std::bit_cast<uint64_t>(7.25) +
                                rng.Index(1u << 12));
    }
    ExpectSortMatchesStdSort(close);
    // Already sorted descending, and ascending.
    std::vector<double> desc(n);
    for (size_t i = 0; i < n; ++i) desc[i] = static_cast<double>(n - i);
    ExpectSortMatchesStdSort(desc);
    std::reverse(desc.begin(), desc.end());
    ExpectSortMatchesStdSort(desc);
  }
}

// ------------------------------------------------------------ set table --

TEST(SetTableTest, InternsRandomKeysAcrossGrowth) {
  vdps_internal::SetTable table;
  std::map<std::vector<uint32_t>, uint32_t> oracle;
  std::vector<std::vector<uint32_t>> by_id;
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    // Sorted distinct ids from a small range, so repeats and keys that
    // are prefixes of each other are common.
    std::vector<uint32_t> key;
    const size_t len = 1 + rng.Index(4);
    while (key.size() < len) {
      const uint32_t id = static_cast<uint32_t>(rng.Index(24));
      if (std::find(key.begin(), key.end(), id) == key.end()) {
        key.push_back(id);
      }
    }
    std::sort(key.begin(), key.end());
    const double reward = static_cast<double>(i);
    const uint32_t got = table.Intern(key, true, [&] { return reward; });
    const auto it = oracle.find(key);
    if (it != oracle.end()) {
      ASSERT_EQ(got, it->second);
    } else {
      ASSERT_EQ(got, by_id.size());  // ids are dense, in creation order
      oracle.emplace(key, got);
      by_id.push_back(key);
      EXPECT_EQ(table.reward(got), reward);
    }
  }
  ASSERT_EQ(table.size(), oracle.size());
  ASSERT_GT(table.size(), 1000u);  // grew well past the first table
  for (uint32_t id = 0; id < table.size(); ++id) {
    const std::span<const uint32_t> key = table.key(id);
    EXPECT_TRUE(std::equal(key.begin(), key.end(), by_id[id].begin(),
                           by_id[id].end()));
  }
}

TEST(SetTableTest, PrefixKeysStayApartAndMayAddGatesCreation) {
  vdps_internal::SetTable table;
  const auto zero = [] { return 0.0; };
  const std::vector<uint32_t> k4{1, 2, 3, 4};
  std::vector<uint32_t> ids;
  ids.reserve(k4.size());
  for (size_t len = 1; len <= k4.size(); ++len) {
    ids.push_back(table.Intern(std::span(k4.data(), len), true, zero));
  }
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 2, 3}));
  const std::vector<uint32_t> absent{2, 3};
  EXPECT_EQ(table.Intern(absent, false, zero), vdps_internal::SetTable::kNone);
  EXPECT_EQ(table.Intern(std::span(k4.data(), 2), false, zero), 1u);
  EXPECT_EQ(table.size(), 4u);

  vdps_internal::EnumerationShard shard;
  EXPECT_EQ(shard.Intern(k4, 1, zero), 0u);
  EXPECT_FALSE(shard.truncated);
  EXPECT_EQ(shard.Intern(k4, 1, zero), 0u);  // a hit never hits the cap
  EXPECT_EQ(shard.Intern(absent, 1, zero), vdps_internal::SetTable::kNone);
  EXPECT_TRUE(shard.truncated);
}

}  // namespace
}  // namespace fta

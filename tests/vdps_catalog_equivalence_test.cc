// Catalog-equivalence battery for the C-VDPS generation engines.
//
// The determinism contract under test (see DESIGN.md, generation pipeline):
//  - the sharded sequence enumerator produces a catalog BIT-IDENTICAL to
//    its serial run at any thread count — shards record raw uncapped
//    options and the finalize step replays them in root order, so thread
//    scheduling cannot influence anything;
//  - the exact bitmask DP (Algorithm 1) and the sequence enumerator agree
//    exactly — same ε-adjacency predicate, same arithmetic order along a
//    route, same Pareto replay — so entries, options, and the per-worker
//    strategies built on top compare with operator== on doubles, not
//    EXPECT_NEAR.
//
// Labeled `tsan` as well: under FTA_SANITIZE=thread this battery drives
// the sharded enumeration, the chunked beam extension, and the parallel
// strategy/inverted-index builds across 2/4/8-thread pools.

#include <gtest/gtest.h>

#include <vector>

#include "model/route.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "vdps/catalog.h"
#include "vdps/generators.h"

namespace fta {
namespace {

/// Random instance small enough for the exact DP (n <= 24) but dense
/// enough that sets of size 4 exist and Pareto frontiers carry several
/// orderings.
Instance RandomInstance(uint64_t seed, size_t num_dps = 11,
                        size_t num_workers = 4) {
  Rng rng(seed);
  const double area = 8.0;
  std::vector<DeliveryPoint> dps;
  for (uint32_t d = 0; d < num_dps; ++d) {
    std::vector<SpatialTask> tasks;
    const size_t n = 1 + rng.Index(3);
    for (size_t t = 0; t < n; ++t) {
      tasks.push_back(SpatialTask{d, rng.Uniform(1.5, 5.0), 1.0});
    }
    dps.emplace_back(Point{rng.Uniform(0, area), rng.Uniform(0, area)},
                     std::move(tasks));
  }
  std::vector<Worker> workers;
  for (size_t w = 0; w < num_workers; ++w) {
    workers.push_back(
        Worker{{rng.Uniform(0, area), rng.Uniform(0, area)}, 4});
  }
  return Instance(Point{area / 2, area / 2}, std::move(dps),
                  std::move(workers), TravelModel(5.0));
}

/// Asserts exact structural equality of two generation results: same
/// entries in the same order, same Pareto options with identical routes,
/// and doubles compared bit-for-bit.
void ExpectEntriesIdentical(const std::vector<CVdpsEntry>& a,
                            const std::vector<CVdpsEntry>& b,
                            const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t e = 0; e < a.size(); ++e) {
    SCOPED_TRACE(what + ", entry " + std::to_string(e));
    EXPECT_EQ(a[e].dps, b[e].dps);
    EXPECT_EQ(a[e].total_reward, b[e].total_reward);
    ASSERT_EQ(a[e].options.size(), b[e].options.size());
    for (size_t o = 0; o < a[e].options.size(); ++o) {
      EXPECT_EQ(a[e].options[o].route, b[e].options[o].route);
      EXPECT_EQ(a[e].options[o].center_time, b[e].options[o].center_time);
      EXPECT_EQ(a[e].options[o].slack, b[e].options[o].slack);
    }
  }
}

/// Full-catalog equality: entries plus per-worker strategies plus the
/// delivery-point -> strategies inverted index.
void ExpectCatalogsIdentical(const VdpsCatalog& a, const VdpsCatalog& b,
                             const std::string& what) {
  ASSERT_EQ(a.num_entries(), b.num_entries()) << what;
  for (size_t e = 0; e < a.num_entries(); ++e) {
    SCOPED_TRACE(what + ", entry " + std::to_string(e));
    EXPECT_EQ(a.entry(e).dps, b.entry(e).dps);
    EXPECT_EQ(a.entry(e).total_reward, b.entry(e).total_reward);
    ASSERT_EQ(a.entry(e).options.size(), b.entry(e).options.size());
    for (size_t o = 0; o < a.entry(e).options.size(); ++o) {
      EXPECT_EQ(a.entry(e).options[o].route, b.entry(e).options[o].route);
      EXPECT_EQ(a.entry(e).options[o].center_time,
                b.entry(e).options[o].center_time);
      EXPECT_EQ(a.entry(e).options[o].slack, b.entry(e).options[o].slack);
    }
  }
  ASSERT_EQ(a.num_workers(), b.num_workers()) << what;
  for (size_t w = 0; w < a.num_workers(); ++w) {
    SCOPED_TRACE(what + ", worker " + std::to_string(w));
    const auto& sa = a.strategies(w);
    const auto& sb = b.strategies(w);
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].entry_id, sb[i].entry_id);
      EXPECT_EQ(sa[i].option, sb[i].option);
      EXPECT_EQ(a.route(sa[i]), b.route(sb[i]));
      EXPECT_EQ(sa[i].total_time, sb[i].total_time);
      EXPECT_EQ(sa[i].total_reward, sb[i].total_reward);
      EXPECT_EQ(sa[i].payoff, sb[i].payoff);
    }
  }
  ASSERT_EQ(a.num_indexed_delivery_points(), b.num_indexed_delivery_points())
      << what;
  for (uint32_t dp = 0; dp < a.num_indexed_delivery_points(); ++dp) {
    SCOPED_TRACE(what + ", dp " + std::to_string(dp));
    const auto& ta = a.strategies_touching(dp);
    const auto& tb = b.strategies_touching(dp);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].worker, tb[i].worker);
      EXPECT_EQ(ta[i].strategy, tb[i].strategy);
    }
  }
}

class CatalogEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

// The core battery: for every (ε, max_set_size) cell, the exact DP, the
// serial sequence enumerator, and the parallel sequence enumerator at 2,
// 4, and 8 threads must produce the same catalog, exactly.
TEST_P(CatalogEquivalenceTest, ExactEqualsSerialEqualsParallel) {
  const Instance inst = RandomInstance(GetParam());
  for (const double epsilon : {kInfinity, 2.5}) {
    for (const uint32_t max_dp : {2u, 3u, 4u}) {
      SCOPED_TRACE("epsilon=" + std::to_string(epsilon) +
                   " max_set_size=" + std::to_string(max_dp));
      VdpsConfig config;
      config.epsilon = epsilon;
      config.max_set_size = max_dp;
      // Uncapped frontier (no set has anywhere near 64 Pareto-optimal
      // orderings here): the max_pareto cap evicts by insertion order, and
      // the DP and the DFS legitimately insert in different orders, so
      // only the (unique) uncapped Pareto set is an engine-independent
      // contract. Capped determinism is per-engine and covered by the
      // sharding tests below, which run at the default cap.
      config.max_pareto = 64;
      const VdpsCatalog serial = VdpsCatalog::Generate(inst, config);

      VdpsConfig exact_config = config;
      exact_config.use_exact_dp = true;
      const VdpsCatalog exact = VdpsCatalog::Generate(inst, exact_config);
      ExpectCatalogsIdentical(serial, exact, "exact vs serial");

      for (const size_t threads : {2u, 4u, 8u}) {
        VdpsConfig parallel_config = config;
        parallel_config.num_threads = threads;
        const VdpsCatalog parallel =
            VdpsCatalog::Generate(inst, parallel_config);
        ExpectCatalogsIdentical(
            serial, parallel,
            "serial vs " + std::to_string(threads) + " threads");
      }
    }
  }
}

// The beam engine's parallel level extension must also be scheduling-proof.
TEST_P(CatalogEquivalenceTest, BeamParallelMatchesBeamSerial) {
  const Instance inst = RandomInstance(GetParam());
  for (const size_t beam_width : {6u, 64u}) {
    VdpsConfig config;
    config.epsilon = 2.5;
    config.max_set_size = 4;
    config.beam_width = beam_width;
    SCOPED_TRACE("beam_width=" + std::to_string(beam_width));
    const VdpsCatalog serial = VdpsCatalog::Generate(inst, config);
    for (const size_t threads : {2u, 4u, 8u}) {
      VdpsConfig parallel_config = config;
      parallel_config.num_threads = threads;
      const VdpsCatalog parallel =
          VdpsCatalog::Generate(inst, parallel_config);
      ExpectCatalogsIdentical(
          serial, parallel,
          "beam serial vs " + std::to_string(threads) + " threads");
    }
  }
}

// Raw generator-level check (below the catalog): sharded enumeration with
// an explicit pool equals the pool-less run, including counters that must
// be scheduling-invariant.
TEST_P(CatalogEquivalenceTest, GeneratorShardingIsOrderInvariant) {
  const Instance inst = RandomInstance(GetParam());
  VdpsConfig config;
  config.epsilon = 2.5;
  config.max_set_size = 3;
  const GenerationResult serial = GenerateCVdpsSequences(inst, config);
  ThreadPool pool(4);
  const GenerationResult parallel =
      GenerateCVdpsSequences(inst, config, &pool);
  ExpectEntriesIdentical(serial.entries, parallel.entries,
                         "generator serial vs pool");
  EXPECT_EQ(serial.truncated, parallel.truncated);
  // Work counters are sums over the same state space, so they match even
  // though the parallel run splits them across shards.
  EXPECT_EQ(serial.counters.states_expanded,
            parallel.counters.states_expanded);
  EXPECT_EQ(serial.counters.options_recorded,
            parallel.counters.options_recorded);
  EXPECT_EQ(serial.counters.pareto_inserts, parallel.counters.pareto_inserts);
  EXPECT_EQ(serial.counters.pareto_evictions,
            parallel.counters.pareto_evictions);
  EXPECT_EQ(serial.counters.entries, parallel.counters.entries);
  EXPECT_GT(parallel.counters.shards, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CatalogEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 13));

// max_entries truncation is path-dependent, so the enumerator must ignore
// the pool and keep the serial truncation point.
TEST(CatalogEquivalenceEdgeTest, TruncatedRunStaysSerial) {
  const Instance inst = RandomInstance(99, 14, 2);
  VdpsConfig config;
  config.max_set_size = 3;
  config.max_entries = 6;
  const GenerationResult serial = GenerateCVdpsSequences(inst, config);
  ThreadPool pool(4);
  const GenerationResult parallel =
      GenerateCVdpsSequences(inst, config, &pool);
  ExpectEntriesIdentical(serial.entries, parallel.entries,
                         "truncated serial vs pool");
  EXPECT_TRUE(parallel.truncated);
  EXPECT_EQ(parallel.counters.shards, 1u);
}

// An externally injected pool (VdpsConfig::pool — what the replay benches
// and the assignment server's callers use to amortize thread spawn) must
// produce the same catalog as an owned pool at the same width, a 1-thread
// injected pool must take the serial path, and the stored config must not
// retain the caller's pointer past Generate().
TEST(CatalogEquivalenceEdgeTest, InjectedPoolMatchesOwnedPool) {
  const Instance inst = RandomInstance(11);
  VdpsConfig config;
  config.epsilon = 2.5;
  config.max_set_size = 3;
  const VdpsCatalog serial = VdpsCatalog::Generate(inst, config);

  ThreadPool pool(4);
  VdpsConfig injected = config;
  injected.pool = &pool;
  const VdpsCatalog shared = VdpsCatalog::Generate(inst, injected);
  ExpectCatalogsIdentical(serial, shared, "serial vs injected 4-thread pool");
  EXPECT_EQ(shared.config().pool, nullptr)
      << "Generate() must scrub the injected pool from the stored config";

  VdpsConfig owned = config;
  owned.num_threads = 4;
  const VdpsCatalog spawned = VdpsCatalog::Generate(inst, owned);
  ExpectCatalogsIdentical(spawned, shared, "owned pool vs injected pool");

  ThreadPool single(1);
  VdpsConfig one = config;
  one.pool = &single;
  const VdpsCatalog serial_injected = VdpsCatalog::Generate(inst, one);
  ExpectCatalogsIdentical(serial, serial_injected,
                          "serial vs injected 1-thread pool");
}

// Thread counts beyond the root count (more shards than work) must not
// disturb anything either.
TEST(CatalogEquivalenceEdgeTest, MoreThreadsThanRoots) {
  const Instance inst = RandomInstance(7, 3, 2);
  VdpsConfig config;
  config.max_set_size = 3;
  const VdpsCatalog serial = VdpsCatalog::Generate(inst, config);
  VdpsConfig wide = config;
  wide.num_threads = 16;
  const VdpsCatalog parallel = VdpsCatalog::Generate(inst, wide);
  ExpectCatalogsIdentical(serial, parallel, "3 roots vs 16 threads");
}

}  // namespace
}  // namespace fta

// Differential battery for VdpsCatalog::ApplyDelta's goal-directed ε-ball
// sub-enumeration: a hand-built delta is applied directly to a generated
// catalog, and the result must equal VdpsCatalog::Generate on the new
// instance byte for byte — entries, Pareto options, per-worker strategies
// (entry id, option index, payoff bits), the delivery-point -> strategies
// inverted index, and the ε-adjacency CSR. Every delta shape runs under
// ε ∈ {finite, ∞} × max_set_size ∈ {2, 3, 4}.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "model/instance.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "vdps/catalog.h"

namespace fta {
namespace {

constexpr double kFiniteEpsilon = 1.5;
const Point kCenter{4.0, 4.0};

/// One delivery point before indexing: its location, deadline and reward.
struct Site {
  Point location;
  double expiry = 5.0;
  double reward = 1.0;
};

Instance BuildInstance(const std::vector<Site>& sites,
                       const std::vector<Worker>& workers) {
  std::vector<DeliveryPoint> dps;
  for (uint32_t i = 0; i < sites.size(); ++i) {
    dps.emplace_back(sites[i].location,
                     std::vector<SpatialTask>{
                         SpatialTask{i, sites[i].expiry, sites[i].reward}});
  }
  return Instance(kCenter, std::move(dps), workers, TravelModel(5.0));
}

std::vector<Site> RandomSites(Rng& rng, size_t n) {
  std::vector<Site> sites;
  for (size_t i = 0; i < n; ++i) {
    sites.push_back(Site{{rng.Uniform(0.0, 8.0), rng.Uniform(0.0, 8.0)},
                         rng.Uniform(1.5, 5.0), rng.Uniform(1.0, 3.0)});
  }
  return sites;
}

std::vector<Worker> RandomWorkers(Rng& rng, size_t n) {
  std::vector<Worker> workers;
  for (size_t i = 0; i < n; ++i) {
    workers.push_back(Worker{{rng.Uniform(0.0, 8.0), rng.Uniform(0.0, 8.0)},
                             static_cast<uint32_t>(2 + i % 3)});
  }
  return workers;
}

/// A delta against `old_sites` / `old_workers`: removals by old index
/// (ascending), additions appended at the tail of the new instance.
struct DeltaCase {
  std::string name;
  std::vector<Site> old_sites;
  std::vector<Worker> old_workers;
  std::vector<uint32_t> removed_dps;
  std::vector<uint32_t> removed_workers;
  std::vector<Site> added_sites;
  std::vector<Worker> added_workers;
};

template <typename T>
std::vector<T> Survivors(const std::vector<T>& old,
                         const std::vector<uint32_t>& removed) {
  std::vector<T> out;
  size_t r = 0;
  for (uint32_t i = 0; i < old.size(); ++i) {
    if (r < removed.size() && removed[r] == i) {
      ++r;
      continue;
    }
    out.push_back(old[i]);
  }
  return out;
}

void ExpectCatalogsIdentical(const VdpsCatalog& got, const VdpsCatalog& want) {
  ASSERT_EQ(got.num_entries(), want.num_entries());
  for (size_t e = 0; e < want.num_entries(); ++e) {
    SCOPED_TRACE("entry " + std::to_string(e));
    const CVdpsEntry& a = got.entry(e);
    const CVdpsEntry& b = want.entry(e);
    EXPECT_EQ(a.dps, b.dps);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.total_reward),
              std::bit_cast<uint64_t>(b.total_reward));
    ASSERT_EQ(a.options.size(), b.options.size());
    for (size_t o = 0; o < b.options.size(); ++o) {
      EXPECT_EQ(a.options[o].route, b.options[o].route);
      EXPECT_EQ(std::bit_cast<uint64_t>(a.options[o].center_time),
                std::bit_cast<uint64_t>(b.options[o].center_time));
      EXPECT_EQ(std::bit_cast<uint64_t>(a.options[o].slack),
                std::bit_cast<uint64_t>(b.options[o].slack));
    }
  }
  ASSERT_EQ(got.num_workers(), want.num_workers());
  for (size_t w = 0; w < want.num_workers(); ++w) {
    SCOPED_TRACE("worker " + std::to_string(w));
    const auto& a = got.strategies(w);
    const auto& b = want.strategies(w);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(a[i].entry_id, b[i].entry_id);
      EXPECT_EQ(a[i].option, b[i].option);
      EXPECT_EQ(std::bit_cast<uint64_t>(a[i].total_time),
                std::bit_cast<uint64_t>(b[i].total_time));
      EXPECT_EQ(std::bit_cast<uint64_t>(a[i].payoff),
                std::bit_cast<uint64_t>(b[i].payoff));
    }
  }
  ASSERT_EQ(got.num_indexed_delivery_points(),
            want.num_indexed_delivery_points());
  for (uint32_t dp = 0; dp < want.num_indexed_delivery_points(); ++dp) {
    SCOPED_TRACE("dp " + std::to_string(dp));
    const auto& a = got.strategies_touching(dp);
    const auto& b = want.strategies_touching(dp);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(a[i].worker, b[i].worker);
      EXPECT_EQ(a[i].strategy, b[i].strategy);
    }
  }
  EXPECT_EQ(got.adjacency().offsets, want.adjacency().offsets);
  EXPECT_EQ(got.adjacency().neighbors, want.adjacency().neighbors);
}

/// Applies `c` under (epsilon, max_set_size), checks the patched catalog
/// against a regeneration, and returns the delta's counters.
DeltaCounters RunCase(const DeltaCase& c, double epsilon,
                      uint32_t max_set_size) {
  SCOPED_TRACE(c.name + " epsilon=" + std::to_string(epsilon) +
               " max_set_size=" + std::to_string(max_set_size));
  VdpsConfig config;
  config.epsilon = epsilon;
  config.max_set_size = max_set_size;
  const Instance old_instance = BuildInstance(c.old_sites, c.old_workers);
  VdpsCatalog patched = VdpsCatalog::Generate(old_instance, config);

  std::vector<Site> new_sites = Survivors(c.old_sites, c.removed_dps);
  const size_t surviving_dps = new_sites.size();
  new_sites.insert(new_sites.end(), c.added_sites.begin(),
                   c.added_sites.end());
  std::vector<Worker> new_workers =
      Survivors(c.old_workers, c.removed_workers);
  new_workers.insert(new_workers.end(), c.added_workers.begin(),
                     c.added_workers.end());
  const Instance new_instance = BuildInstance(new_sites, new_workers);

  CatalogDeltaPlan plan;
  plan.removed_dps = c.removed_dps;
  plan.removed_workers = c.removed_workers;
  plan.added_dps = c.added_sites.size();
  plan.added_workers = c.added_workers.size();
  DeltaCounters counters;
  const Status s = patched.ApplyDelta(new_instance, plan, &counters);
  EXPECT_TRUE(s.ok()) << s.message();
  EXPECT_TRUE(patched.ValidateInvariants(new_instance).ok());

  const VdpsCatalog want = VdpsCatalog::Generate(new_instance, config);
  ExpectCatalogsIdentical(patched, want);

  // The focused sub-enumeration interns exactly the sets that hold an
  // added point (ids past the survivors).
  uint64_t holding_added = 0;
  for (const CVdpsEntry& entry : want.entries()) {
    if (entry.dps.back() >= surviving_dps) ++holding_added;
  }
  EXPECT_EQ(counters.entries_added, holding_added);
  return counters;
}

/// Runs `c` over the ε × max_set_size grid.
void RunGrid(const DeltaCase& c) {
  for (const double epsilon : {kFiniteEpsilon, kInfinity}) {
    for (const uint32_t max_set_size : {2u, 3u, 4u}) {
      RunCase(c, epsilon, max_set_size);
    }
  }
}

TEST(VdpsDeltaTest, AddedPointWithoutEpsilonNeighbour) {
  Rng rng(11);
  DeltaCase c;
  c.name = "isolated";
  c.old_sites = RandomSites(rng, 10);
  c.old_workers = RandomWorkers(rng, 4);
  c.removed_dps = {3};
  // Outside the 8 x 8 area: farther than ε from every survivor, yet
  // reachable from the center within its deadline.
  c.added_sites = {Site{{12.0, 12.0}, 4.0, 2.0}};
  for (const double epsilon : {kFiniteEpsilon, kInfinity}) {
    for (const uint32_t max_set_size : {2u, 3u, 4u}) {
      const DeltaCounters d = RunCase(c, epsilon, max_set_size);
      if (epsilon == kFiniteEpsilon) {
        EXPECT_EQ(d.neighborhood_dps, 1u);
        EXPECT_EQ(d.entries_added, 1u);  // the singleton only
      }
    }
  }
}

TEST(VdpsDeltaTest, AddedPointsCapMinusOneHopsApart) {
  for (const uint32_t cap : {2u, 3u, 4u}) {
    // A chain along y = 4 with unit spacing: under ε = 1.5 only
    // consecutive points are neighbours. The two added points sit at its
    // ends, cap - 1 hops apart through cap - 2 surviving links, so the
    // whole chain is one C-VDPS that only a walk from one added point
    // through the survivors to the other can find.
    DeltaCase c;
    c.name = "chain cap=" + std::to_string(cap);
    for (uint32_t k = 1; k + 1 < cap; ++k) {
      c.old_sites.push_back(
          Site{{2.0 + static_cast<double>(k), 4.0}, 6.0, 1.0});
    }
    Rng rng(23 + cap);
    // Off-chain survivors (more than ε from the chain) and one removal.
    for (int k = 0; k < 4; ++k) {
      c.old_sites.push_back(
          Site{{rng.Uniform(0.0, 8.0), rng.Uniform(6.5, 8.0)}, 4.0, 1.0});
    }
    c.removed_dps = {static_cast<uint32_t>(c.old_sites.size() - 1)};
    c.old_workers = RandomWorkers(rng, 3);
    c.old_workers.push_back(Worker{kCenter, 4});
    c.added_sites = {Site{{2.0, 4.0}, 6.0, 1.0},
                     Site{{2.0 + static_cast<double>(cap - 1), 4.0}, 6.0,
                          1.0}};
    for (const double epsilon : {kFiniteEpsilon, kInfinity}) {
      const DeltaCounters d = RunCase(c, epsilon, cap);
      EXPECT_GT(d.entries_added, 0u);
    }
    // The end-to-end chain set exists and holds both added points.
    VdpsConfig config;
    config.epsilon = kFiniteEpsilon;
    config.max_set_size = cap;
    std::vector<Site> new_sites = Survivors(c.old_sites, c.removed_dps);
    std::vector<uint32_t> chain;
    for (uint32_t k = 0; k + 2 < cap; ++k) chain.push_back(k);
    chain.push_back(static_cast<uint32_t>(new_sites.size()));
    chain.push_back(static_cast<uint32_t>(new_sites.size() + 1));
    new_sites.insert(new_sites.end(), c.added_sites.begin(),
                     c.added_sites.end());
    const VdpsCatalog full =
        VdpsCatalog::Generate(BuildInstance(new_sites, c.old_workers), config);
    EXPECT_GE(full.FindEntry(chain), 0) << "cap=" << cap;
  }
}

TEST(VdpsDeltaTest, AdditionsOnly) {
  for (const uint64_t seed : {31u, 32u, 33u}) {
    Rng rng(seed);
    DeltaCase c;
    c.name = "additions seed=" + std::to_string(seed);
    c.old_sites = RandomSites(rng, 10);
    c.old_workers = RandomWorkers(rng, 4);
    c.added_sites = RandomSites(rng, 3);
    c.added_workers = RandomWorkers(rng, 1);
    RunGrid(c);
  }
}

TEST(VdpsDeltaTest, RemovalsOnly) {
  for (const uint64_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    DeltaCase c;
    c.name = "removals seed=" + std::to_string(seed);
    c.old_sites = RandomSites(rng, 12);
    c.old_workers = RandomWorkers(rng, 5);
    c.removed_dps = {0, 4, 5, 11};
    c.removed_workers = {2};
    for (const double epsilon : {kFiniteEpsilon, kInfinity}) {
      for (const uint32_t max_set_size : {2u, 3u, 4u}) {
        const DeltaCounters d = RunCase(c, epsilon, max_set_size);
        EXPECT_EQ(d.neighborhood_dps, 0u);
        EXPECT_EQ(d.subenum_states, 0u);
        EXPECT_EQ(d.entries_added, 0u);
      }
    }
  }
}

TEST(VdpsDeltaTest, EveryPointReplaced) {
  for (const uint64_t seed : {51u, 52u}) {
    Rng rng(seed);
    DeltaCase c;
    c.name = "replaced seed=" + std::to_string(seed);
    c.old_sites = RandomSites(rng, 9);
    c.old_workers = RandomWorkers(rng, 4);
    for (uint32_t i = 0; i < c.old_sites.size(); ++i) {
      c.removed_dps.push_back(i);
    }
    c.added_sites = RandomSites(rng, 10);
    RunGrid(c);
  }
}

}  // namespace
}  // namespace fta

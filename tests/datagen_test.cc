#include <gtest/gtest.h>

#include <set>

#include "datagen/gmission.h"
#include "datagen/synthetic.h"
#include "stream/digest.h"

namespace fta {
namespace {

/// FNV-1a over every field of an instance, doubles by bit pattern: equal
/// digests mean byte-identical centers, delivery points, tasks and workers.
void FoldInstance(const Instance& inst, StreamDigest& digest) {
  digest.Fold(inst.center().x);
  digest.Fold(inst.center().y);
  digest.Fold(inst.travel().speed());
  digest.Fold(static_cast<uint64_t>(inst.num_delivery_points()));
  for (const DeliveryPoint& dp : inst.delivery_points()) {
    digest.Fold(dp.location().x);
    digest.Fold(dp.location().y);
    digest.Fold(static_cast<uint64_t>(dp.task_count()));
    for (const SpatialTask& t : dp.tasks()) {
      digest.Fold(static_cast<uint64_t>(t.delivery_point));
      digest.Fold(t.expiry);
      digest.Fold(t.reward);
    }
  }
  digest.Fold(static_cast<uint64_t>(inst.num_workers()));
  for (const Worker& w : inst.workers()) {
    digest.Fold(w.location.x);
    digest.Fold(w.location.y);
    digest.Fold(static_cast<uint64_t>(w.max_delivery_points));
  }
}

uint64_t SynDigest(uint64_t seed) {
  SynConfig config;  // the paper's full-scale defaults
  config.seed = seed;
  StreamDigest digest;
  for (const Instance& inst : GenerateSyn(config).centers) {
    FoldInstance(inst, digest);
  }
  return digest.value();
}

// ------------------------------------------------------------------- SYN --

SynConfig SmallSyn() {
  SynConfig config;
  config.num_centers = 5;
  config.num_workers = 40;
  config.num_delivery_points = 60;
  config.num_tasks = 500;
  config.seed = 77;
  return config;
}

TEST(SynTest, PopulationCountsMatchConfig) {
  const SynConfig config = SmallSyn();
  const MultiCenterInstance multi = GenerateSyn(config);
  EXPECT_EQ(multi.centers.size(), config.num_centers);
  EXPECT_EQ(multi.num_workers(), config.num_workers);
  EXPECT_EQ(multi.num_delivery_points(), config.num_delivery_points);
  EXPECT_EQ(multi.num_tasks(), config.num_tasks);
}

TEST(SynTest, AllCentersValidate) {
  const MultiCenterInstance multi = GenerateSyn(SmallSyn());
  for (const Instance& inst : multi.centers) {
    EXPECT_TRUE(inst.Validate().ok());
  }
}

TEST(SynTest, LocationsInsideArea) {
  const SynConfig config = SmallSyn();
  const MultiCenterInstance multi = GenerateSyn(config);
  for (const Instance& inst : multi.centers) {
    EXPECT_GE(inst.center().x, 0.0);
    EXPECT_LE(inst.center().x, config.area);
    for (const DeliveryPoint& dp : inst.delivery_points()) {
      EXPECT_GE(dp.location().x, 0.0);
      EXPECT_LE(dp.location().x, config.area);
      EXPECT_GE(dp.location().y, 0.0);
      EXPECT_LE(dp.location().y, config.area);
    }
    for (const Worker& w : inst.workers()) {
      EXPECT_GE(w.location.x, 0.0);
      EXPECT_LE(w.location.y, config.area);
      EXPECT_EQ(w.max_delivery_points, config.max_dp);
    }
  }
}

TEST(SynTest, FixedExpiryWithoutJitter) {
  const MultiCenterInstance multi = GenerateSyn(SmallSyn());
  for (const Instance& inst : multi.centers) {
    for (const DeliveryPoint& dp : inst.delivery_points()) {
      for (const SpatialTask& t : dp.tasks()) {
        EXPECT_DOUBLE_EQ(t.expiry, 2.0);
        EXPECT_DOUBLE_EQ(t.reward, 1.0);
      }
    }
  }
}

TEST(SynTest, JitterVariesExpiry) {
  SynConfig config = SmallSyn();
  config.expiry_jitter = 0.5;
  const MultiCenterInstance multi = GenerateSyn(config);
  std::set<double> expiries;
  for (const Instance& inst : multi.centers) {
    for (const DeliveryPoint& dp : inst.delivery_points()) {
      for (const SpatialTask& t : dp.tasks()) expiries.insert(t.expiry);
    }
  }
  EXPECT_GT(expiries.size(), 10u);
}

TEST(SynTest, DeterministicGivenSeed) {
  const MultiCenterInstance a = GenerateSyn(SmallSyn());
  const MultiCenterInstance b = GenerateSyn(SmallSyn());
  ASSERT_EQ(a.centers.size(), b.centers.size());
  for (size_t c = 0; c < a.centers.size(); ++c) {
    EXPECT_EQ(a.centers[c].center(), b.centers[c].center());
    EXPECT_EQ(a.centers[c].num_tasks(), b.centers[c].num_tasks());
    EXPECT_EQ(a.centers[c].workers(), b.centers[c].workers());
  }
}

TEST(SynTest, DifferentSeedsDiffer) {
  SynConfig other = SmallSyn();
  other.seed = 78;
  const MultiCenterInstance a = GenerateSyn(SmallSyn());
  const MultiCenterInstance b = GenerateSyn(other);
  EXPECT_NE(a.centers[0].center(), b.centers[0].center());
}

TEST(SynTest, ScaleSynPreservesRatiosAndDensity) {
  SynConfig config;  // paper defaults: 50 / 2000 / 5000 / 100000
  const SynConfig scaled = ScaleSyn(config, 0.01);
  EXPECT_EQ(scaled.num_centers, 1u);  // rounds up to at least 1
  EXPECT_EQ(scaled.num_workers, 20u);
  EXPECT_EQ(scaled.num_delivery_points, 50u);
  EXPECT_EQ(scaled.num_tasks, 1000u);
  EXPECT_DOUBLE_EQ(scaled.expiry, config.expiry);
  // Area shrinks with sqrt(factor) so spatial densities are preserved.
  EXPECT_NEAR(scaled.area, 10.0, 1e-9);
}

TEST(SynTest, NearestAssociationBindsToClosestCenter) {
  SynConfig config = SmallSyn();
  config.association = CenterAssociation::kNearest;
  const MultiCenterInstance multi = GenerateSyn(config);
  std::vector<Point> centers;
  for (const Instance& inst : multi.centers) centers.push_back(inst.center());
  for (size_t c = 0; c < multi.centers.size(); ++c) {
    for (const Worker& w : multi.centers[c].workers()) {
      const double own = Distance(w.location, centers[c]);
      for (const Point& other : centers) {
        EXPECT_LE(own, Distance(w.location, other) + 1e-9);
      }
    }
  }
}

// Generator goldens: any change to the draw order, the nearest-center
// affiliation or its tie rule changes these digests. Seeds 24 and 8024 are
// the first syn-batch instances of the repository benchmark's seeds 3 and
// 1003.
TEST(SynTest, GoldenDigestAtDefaultSeed) {
  EXPECT_EQ(SynDigest(SynConfig().seed), 0xab749afd073dd5b4ull);
}

TEST(SynTest, GoldenDigestAtBenchmarkSeeds) {
  EXPECT_EQ(SynDigest(24), 0x4014b6aa994c9c23ull);
  EXPECT_EQ(SynDigest(8024), 0x6c0225fc74ba5f3aull);
}

TEST(SynTest, UniformAssociationSpreadsAcrossCenters) {
  SynConfig config = SmallSyn();
  config.association = CenterAssociation::kUniform;
  config.num_workers = 200;
  const MultiCenterInstance multi = GenerateSyn(config);
  // Every center should get some workers with high probability.
  for (const Instance& inst : multi.centers) {
    EXPECT_GT(inst.num_workers(), 0u);
  }
}

// -------------------------------------------------------------- gMission --

GMissionConfig SmallGm() {
  GMissionConfig config;
  config.num_tasks = 120;
  config.num_workers = 15;
  config.seed = 5;
  return config;
}

TEST(GMissionTest, RawCountsMatch) {
  const RawCrowdData raw = GenerateGMissionRaw(SmallGm());
  EXPECT_EQ(raw.task_locations.size(), 120u);
  EXPECT_EQ(raw.task_expiries.size(), 120u);
  EXPECT_EQ(raw.task_rewards.size(), 120u);
  EXPECT_EQ(raw.worker_locations.size(), 15u);
}

TEST(GMissionTest, RawFieldsInRange) {
  const GMissionConfig config = SmallGm();
  const RawCrowdData raw = GenerateGMissionRaw(config);
  for (const Point& p : raw.task_locations) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, config.area);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, config.area);
  }
  for (double e : raw.task_expiries) {
    EXPECT_GE(e, config.expiry_min);
    EXPECT_LE(e, config.expiry_max);
  }
  for (double r : raw.task_rewards) EXPECT_DOUBLE_EQ(r, config.reward);
}

TEST(GMissionTest, PreparedInstanceValidates) {
  GMissionPrepConfig prep;
  prep.num_delivery_points = 25;
  const Instance inst = PrepareGMissionInstance(
      GenerateGMissionRaw(SmallGm()), prep);
  EXPECT_TRUE(inst.Validate().ok());
  EXPECT_EQ(inst.num_tasks(), 120u);
  EXPECT_EQ(inst.num_workers(), 15u);
  EXPECT_LE(inst.num_delivery_points(), 25u);
  EXPECT_GT(inst.num_delivery_points(), 0u);
}

TEST(GMissionTest, CenterIsTaskCentroid) {
  const RawCrowdData raw = GenerateGMissionRaw(SmallGm());
  GMissionPrepConfig prep;
  const Instance inst = PrepareGMissionInstance(raw, prep);
  Point centroid{0, 0};
  for (const Point& p : raw.task_locations) {
    centroid.x += p.x;
    centroid.y += p.y;
  }
  centroid.x /= static_cast<double>(raw.task_locations.size());
  centroid.y /= static_cast<double>(raw.task_locations.size());
  EXPECT_NEAR(inst.center().x, centroid.x, 1e-9);
  EXPECT_NEAR(inst.center().y, centroid.y, 1e-9);
}

TEST(GMissionTest, EveryTaskLandsInSomeDeliveryPoint) {
  GMissionPrepConfig prep;
  prep.num_delivery_points = 10;
  const Instance inst = PrepareGMissionInstance(
      GenerateGMissionRaw(SmallGm()), prep);
  size_t total = 0;
  for (const DeliveryPoint& dp : inst.delivery_points()) {
    total += dp.task_count();
  }
  EXPECT_EQ(total, 120u);
}

TEST(GMissionTest, DeterministicGivenSeeds) {
  GMissionPrepConfig prep;
  const Instance a = GenerateGMissionLike(SmallGm(), prep);
  const Instance b = GenerateGMissionLike(SmallGm(), prep);
  EXPECT_EQ(a.center(), b.center());
  EXPECT_EQ(a.num_delivery_points(), b.num_delivery_points());
  EXPECT_EQ(a.workers(), b.workers());
}

TEST(GMissionTest, GoldenDigestAtDefaults) {
  StreamDigest digest;
  FoldInstance(GenerateGMissionLike({}, {}), digest);
  EXPECT_EQ(digest.value(), 0xef732b989bf24d77ull);
}

TEST(GMissionTest, EmptyTasksHandled) {
  GMissionConfig config = SmallGm();
  config.num_tasks = 0;
  GMissionPrepConfig prep;
  const Instance inst = GenerateGMissionLike(config, prep);
  EXPECT_EQ(inst.num_tasks(), 0u);
  EXPECT_EQ(inst.num_delivery_points(), 0u);
  EXPECT_EQ(inst.num_workers(), 15u);
  EXPECT_TRUE(inst.Validate().ok());
}

}  // namespace
}  // namespace fta

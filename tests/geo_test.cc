#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "geo/bounding_box.h"
#include "geo/grid_index.h"
#include "geo/point.h"
#include "geo/travel.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace fta {
namespace {

std::vector<Point> RandomPoints(size_t n, Rng& rng, double area = 100.0) {
  std::vector<Point> pts(n);
  for (Point& p : pts) p = {rng.Uniform(0, area), rng.Uniform(0, area)};
  return pts;
}

std::vector<uint32_t> BruteRadius(const std::vector<Point>& pts,
                                  const Point& center, double radius) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < pts.size(); ++i) {
    if (Distance(pts[i], center) <= radius) out.push_back(i);
  }
  return out;
}

// ----------------------------------------------------------------- Point --

TEST(PointTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
}

TEST(PointTest, Equality) {
  EXPECT_EQ((Point{1, 2}), (Point{1, 2}));
  EXPECT_NE((Point{1, 2}), (Point{2, 1}));
}

// ----------------------------------------------------------- BoundingBox --

TEST(BoundingBoxTest, EmptyByDefault) {
  BoundingBox box;
  EXPECT_TRUE(box.empty());
  EXPECT_FALSE(box.Contains({0, 0}));
  EXPECT_DOUBLE_EQ(box.width(), 0.0);
}

TEST(BoundingBoxTest, ExtendAndContains) {
  BoundingBox box;
  box.Extend({1, 1});
  box.Extend({3, 5});
  EXPECT_FALSE(box.empty());
  EXPECT_TRUE(box.Contains({2, 3}));
  EXPECT_TRUE(box.Contains({1, 1}));
  EXPECT_FALSE(box.Contains({0.9, 3}));
  EXPECT_DOUBLE_EQ(box.width(), 2.0);
  EXPECT_DOUBLE_EQ(box.height(), 4.0);
}

TEST(BoundingBoxTest, CornersInAnyOrder) {
  BoundingBox box({5, 6}, {1, 2});
  EXPECT_EQ(box.min(), (Point{1, 2}));
  EXPECT_EQ(box.max(), (Point{5, 6}));
}

TEST(BoundingBoxTest, DistanceToPoint) {
  BoundingBox box({0, 0}, {2, 2});
  EXPECT_DOUBLE_EQ(box.Distance({1, 1}), 0.0);   // inside
  EXPECT_DOUBLE_EQ(box.Distance({5, 2}), 3.0);   // right of box
  EXPECT_DOUBLE_EQ(box.Distance({5, 6}), 5.0);   // corner: 3-4-5
}

TEST(BoundingBoxTest, Inflate) {
  BoundingBox box({1, 1}, {2, 2});
  box.Inflate(0.5);
  EXPECT_TRUE(box.Contains({0.6, 0.6}));
  EXPECT_FALSE(box.Contains({0.4, 0.4}));
}

// ------------------------------------------------------------- GridIndex --

TEST(GridIndexTest, EmptyIndex) {
  GridIndex index({});
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.RadiusQuery({0, 0}, 10).empty());
}

TEST(GridIndexTest, RadiusMatchesBruteForce) {
  Rng rng(31);
  const std::vector<Point> pts = RandomPoints(500, rng);
  GridIndex index(pts, 5.0);
  for (int q = 0; q < 50; ++q) {
    const Point c{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    const double r = rng.Uniform(0, 20);
    EXPECT_EQ(index.RadiusQuery(c, r), BruteRadius(pts, c, r));
  }
}

TEST(GridIndexTest, RadiusIsInclusive) {
  GridIndex index({{0, 0}, {3, 4}});
  EXPECT_EQ(index.RadiusQuery({0, 0}, 5.0).size(), 2u);
  EXPECT_EQ(index.RadiusQuery({0, 0}, 4.999).size(), 1u);
}

TEST(GridIndexTest, NegativeRadiusIsEmpty) {
  GridIndex index({{0, 0}});
  EXPECT_TRUE(index.RadiusQuery({0, 0}, -1.0).empty());
}

TEST(GridIndexTest, SinglePoint) {
  GridIndex index({{7, 7}});
  EXPECT_EQ(index.RadiusQuery({7, 7}, 0.0),
            (std::vector<uint32_t>{0}));
}

TEST(GridIndexTest, CoincidentPoints) {
  GridIndex index({{1, 1}, {1, 1}, {1, 1}});
  EXPECT_EQ(index.RadiusQuery({1, 1}, 0.1).size(), 3u);
}

// ----------------------------------------------------------- TravelModel --

TEST(TravelModelTest, TravelTimeScalesWithSpeed) {
  const TravelModel walk(5.0);
  EXPECT_DOUBLE_EQ(walk.TravelTime({0, 0}, {0, 10}), 2.0);
  EXPECT_DOUBLE_EQ(walk.TimeForDistance(2.5), 0.5);
  const TravelModel unit(1.0);
  EXPECT_DOUBLE_EQ(unit.TravelTime({0, 0}, {3, 4}), 5.0);
}

// ------------------------------------------------------- EdgeTravelTimes --

/// Bit pattern of a double: EXPECT_EQ on it pins the exact value (and
/// tells +0 from -0), where EXPECT_DOUBLE_EQ allows 4 ulps.
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Edge index of the edge i -> j in `adj`, or -1 when j is not in row i.
int64_t EdgeIndex(const RadiusAdjacency& adj, uint32_t i, uint32_t j) {
  const uint32_t* it = std::lower_bound(adj.begin(i), adj.end(i), j);
  if (it == adj.end(i) || *it != j) return -1;
  return it - adj.neighbors.data();
}

TEST(EdgeTravelTimesTest, MatchesDirectComputation) {
  const Point origin{0, 0};
  const std::vector<Point> pts{{1, 0}, {0, 2}, {3, 4}};
  const TravelModel travel(2.0);
  const RadiusAdjacency adj = CompleteAdjacency(pts.size());
  const EdgeTravelTimes times(origin, pts, adj, travel);
  ASSERT_EQ(times.from_origin.size(), 3u);
  ASSERT_EQ(times.edge.size(), 9u);
  EXPECT_DOUBLE_EQ(times.from_origin[0], 0.5);
  EXPECT_DOUBLE_EQ(times.from_origin[2], 2.5);
  EXPECT_DOUBLE_EQ(times.edge[0 * 3 + 0], 0.0);
  EXPECT_DOUBLE_EQ(times.edge[0 * 3 + 1], times.edge[1 * 3 + 0]);
  EXPECT_DOUBLE_EQ(times.edge[0 * 3 + 1],
                   travel.TimeForDistance(Distance(pts[0], pts[1])));
  EXPECT_DOUBLE_EQ(times.edge[1 * 3 + 2], 0.5 * std::sqrt(13.0));
}

TEST(EdgeTravelTimesTest, EveryEdgeIsTheTravelTimeBitForBit) {
  Rng rng(41);
  const TravelModel travel(5.0);
  for (size_t trial = 0; trial < 6; ++trial) {
    const std::vector<Point> pts = RandomPoints(60 + 30 * trial, rng);
    const Point center{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    const double eps = 8.0 + 6.0 * static_cast<double>(trial);
    const RadiusAdjacency adj =
        GridIndex(pts, eps).BuildRadiusAdjacency(eps);
    const EdgeTravelTimes times(center, pts, adj, travel);
    ASSERT_EQ(times.edge.size(), adj.num_pairs());
    ASSERT_EQ(times.from_origin.size(), pts.size());
    for (uint32_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(Bits(times.from_origin[i]),
                Bits(travel.TravelTime(center, pts[i])));
      for (uint32_t k = adj.offsets[i]; k < adj.offsets[i + 1]; ++k) {
        const uint32_t j = adj.neighbors[k];
        EXPECT_EQ(Bits(times.edge[k]), Bits(travel.TravelTime(pts[i], pts[j])));
        // The ε predicate is symmetric, so the reverse edge exists and
        // holds the same double.
        const int64_t back = EdgeIndex(adj, j, i);
        ASSERT_GE(back, 0) << i << " -> " << j;
        EXPECT_EQ(Bits(times.edge[static_cast<size_t>(back)]),
                  Bits(times.edge[k]));
      }
    }
  }
}

TEST(EdgeTravelTimesTest, InfiniteRadiusIsTheCompleteGraph) {
  Rng rng(43);
  const std::vector<Point> pts = RandomPoints(40, rng);
  const RadiusAdjacency complete = CompleteAdjacency(pts.size());
  ASSERT_EQ(complete.num_points(), pts.size());
  ASSERT_EQ(complete.num_pairs(), pts.size() * pts.size());
  for (uint32_t i = 0; i < pts.size(); ++i) {
    ASSERT_EQ(complete.degree(i), pts.size());
    for (uint32_t k = 0; k < pts.size(); ++k) {
      EXPECT_EQ(complete.begin(i)[k], k);  // every point, ascending
    }
  }
  // A radius past the diameter selects the same rows.
  const RadiusAdjacency wide = GridIndex(pts, 200.0).BuildRadiusAdjacency(200.0);
  EXPECT_EQ(wide.offsets, complete.offsets);
  EXPECT_EQ(wide.neighbors, complete.neighbors);

  // On the complete graph the times form a metric: zero self-edges,
  // symmetric, triangle inequality up to rounding.
  const size_t n = pts.size();
  const EdgeTravelTimes times({50, 50}, pts, complete, TravelModel(5.0));
  const auto t = [&](size_t i, size_t j) { return times.edge[i * n + j]; };
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(Bits(t(i, i)), Bits(0.0));
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(Bits(t(i, j)), Bits(t(j, i)));
      for (size_t k = 0; k < n; ++k) {
        EXPECT_LE(t(i, j), t(i, k) + t(k, j) + 1e-9);
      }
    }
  }
}

TEST(EdgeTravelTimesTest, EmptyAndSinglePoint) {
  const TravelModel travel(5.0);
  const RadiusAdjacency none = CompleteAdjacency(0);
  EXPECT_EQ(none.num_points(), 0u);
  EXPECT_EQ(none.num_pairs(), 0u);
  const EdgeTravelTimes empty({1, 1}, {}, none, travel);
  EXPECT_TRUE(empty.from_origin.empty());
  EXPECT_TRUE(empty.edge.empty());
  const EdgeTravelTimes grid_empty({1, 1}, {},
                                   GridIndex({}, 1.0).BuildRadiusAdjacency(1.0),
                                   travel);
  EXPECT_TRUE(grid_empty.edge.empty());

  const std::vector<Point> one{{4, 5}};
  for (const RadiusAdjacency& adj :
       {CompleteAdjacency(1), GridIndex(one, 1.0).BuildRadiusAdjacency(1.0)}) {
    ASSERT_EQ(adj.num_points(), 1u);
    ASSERT_EQ(adj.num_pairs(), 1u);
    EXPECT_EQ(adj.neighbors[0], 0u);
    const EdgeTravelTimes times({1, 1}, one, adj, travel);
    EXPECT_EQ(Bits(times.edge[0]), Bits(0.0));
    EXPECT_EQ(Bits(times.from_origin[0]),
              Bits(travel.TravelTime({1, 1}, one[0])));
  }
}

}  // namespace
}  // namespace fta

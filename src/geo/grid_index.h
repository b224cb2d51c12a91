#ifndef FTA_GEO_GRID_INDEX_H_
#define FTA_GEO_GRID_INDEX_H_

#include <cstdint>
#include <vector>

#include "geo/bounding_box.h"
#include "geo/point.h"
#include "geo/travel.h"

namespace fta {

class ThreadPool;

/// Precomputed ε-neighborhoods of a point set in CSR layout: row j holds
/// the ids of every point within the build radius of point j, ascending
/// (including j itself). One radius query per point, paid once — inner
/// loops that would otherwise re-run RadiusQuery (or scan all n points and
/// re-check distances) iterate the row instead.
struct RadiusAdjacency {
  std::vector<uint32_t> offsets;    // size n + 1
  std::vector<uint32_t> neighbors;  // CSR payload, ascending per row

  size_t num_points() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  /// Total neighbor-list length (Σ row degrees).
  size_t num_pairs() const { return neighbors.size(); }
  size_t degree(uint32_t j) const { return offsets[j + 1] - offsets[j]; }
  const uint32_t* begin(uint32_t j) const {
    return neighbors.data() + offsets[j];
  }
  const uint32_t* end(uint32_t j) const {
    return neighbors.data() + offsets[j + 1];
  }
};

/// The complete graph on n points as a RadiusAdjacency: every row holds
/// 0 .. n-1 ascending, which is what an infinite radius selects.
RadiusAdjacency CompleteAdjacency(size_t n);

/// Travel times along the edges of a RadiusAdjacency — the only point
/// pairs the C-VDPS engines ever read a time for. `edge` is parallel to
/// `adj.neighbors`: edge[k] for k in [adj.offsets[j], adj.offsets[j + 1])
/// is the time from point j to adj.neighbors[k]. `from_origin[j]` is the
/// time from the origin (the distribution center) to point j.
///
/// Every value is TravelModel::TravelTime of its two points. That value is
/// bitwise symmetric — (a - b)² == (b - a)² — so an edge and its reverse
/// hold the same double.
struct EdgeTravelTimes {
  std::vector<double> from_origin;  // n origin -> point times
  std::vector<double> edge;         // one per adjacency edge

  EdgeTravelTimes() = default;
  EdgeTravelTimes(const Point& origin, const std::vector<Point>& points,
                  const RadiusAdjacency& adj, const TravelModel& travel);
};

/// Uniform grid over a point set, supporting radius queries. This is the
/// index behind the distance-constrained pruning strategy of Section IV:
/// D(dp_j) = { dp_q : d(dp_j, dp_q) <= epsilon } is one RadiusQuery.
///
/// The grid is immutable after construction; cell size defaults to the query
/// radius the caller expects (pass it explicitly for best performance).
class GridIndex {
 public:
  /// Builds an index over `points`. `cell_size` <= 0 picks a heuristic cell
  /// size (~sqrt(area / n)).
  explicit GridIndex(std::vector<Point> points, double cell_size = 0.0);

  size_t size() const { return points_.size(); }
  const std::vector<Point>& points() const { return points_; }
  double cell_size() const { return cell_size_; }

  /// Indices of all points within `radius` of `center` (inclusive), in
  /// ascending index order. Includes the query point itself if it is in the
  /// set and within the radius.
  std::vector<uint32_t> RadiusQuery(const Point& center, double radius) const;

  /// Builds the full ε-neighbor adjacency (one RadiusQuery per point).
  /// Rows are computed independently, so a non-null `pool` fans the build
  /// out across its threads; the result is identical either way.
  RadiusAdjacency BuildRadiusAdjacency(double radius,
                                       ThreadPool* pool = nullptr) const;

 private:
  struct Cell {
    uint32_t begin = 0;  // range into sorted_ids_
    uint32_t end = 0;
  };

  int64_t CellX(double x) const;
  int64_t CellY(double y) const;
  const Cell& CellAt(int64_t cx, int64_t cy) const;

  std::vector<Point> points_;
  BoundingBox bounds_;
  double cell_size_ = 1.0;
  int64_t nx_ = 0;
  int64_t ny_ = 0;
  std::vector<Cell> cells_;          // nx_ * ny_ cells, row-major
  std::vector<uint32_t> sorted_ids_;  // point ids grouped by cell
};

}  // namespace fta

#endif  // FTA_GEO_GRID_INDEX_H_

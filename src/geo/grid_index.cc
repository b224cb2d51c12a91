#include "geo/grid_index.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace fta {

GridIndex::GridIndex(std::vector<Point> points, double cell_size)
    : points_(std::move(points)), bounds_(BoundingBox::Of(points_)) {
  const size_t n = points_.size();
  if (n == 0) {
    cell_size_ = 1.0;
    nx_ = ny_ = 1;
    cells_.assign(1, Cell{});
    return;
  }
  if (cell_size > 0.0) {
    cell_size_ = cell_size;
  } else {
    const double area =
        std::max(bounds_.width() * bounds_.height(), 1e-12);
    cell_size_ = std::max(std::sqrt(area / static_cast<double>(n)), 1e-6);
  }
  nx_ = std::max<int64_t>(
      1, static_cast<int64_t>(bounds_.width() / cell_size_) + 1);
  ny_ = std::max<int64_t>(
      1, static_cast<int64_t>(bounds_.height() / cell_size_) + 1);
  // Cap the grid to keep memory bounded for degenerate cell sizes.
  constexpr int64_t kMaxCellsPerAxis = 4096;
  nx_ = std::min(nx_, kMaxCellsPerAxis);
  ny_ = std::min(ny_, kMaxCellsPerAxis);

  // Counting sort of point ids into cells.
  std::vector<uint32_t> cell_of(n);
  std::vector<uint32_t> counts(static_cast<size_t>(nx_ * ny_) + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const int64_t cx = CellX(points_[i].x);
    const int64_t cy = CellY(points_[i].y);
    cell_of[i] = static_cast<uint32_t>(cy * nx_ + cx);
    ++counts[cell_of[i] + 1];
  }
  for (size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
  sorted_ids_.resize(n);
  std::vector<uint32_t> cursor(counts.begin(), counts.end() - 1);
  for (uint32_t i = 0; i < n; ++i) sorted_ids_[cursor[cell_of[i]]++] = i;

  cells_.resize(static_cast<size_t>(nx_ * ny_));
  for (int64_t c = 0; c < nx_ * ny_; ++c) {
    cells_[static_cast<size_t>(c)] = Cell{counts[static_cast<size_t>(c)],
                                          counts[static_cast<size_t>(c) + 1]};
  }
}

int64_t GridIndex::CellX(double x) const {
  if (bounds_.empty()) return 0;
  int64_t c = static_cast<int64_t>((x - bounds_.min().x) / cell_size_);
  return std::clamp<int64_t>(c, 0, nx_ - 1);
}

int64_t GridIndex::CellY(double y) const {
  if (bounds_.empty()) return 0;
  int64_t c = static_cast<int64_t>((y - bounds_.min().y) / cell_size_);
  return std::clamp<int64_t>(c, 0, ny_ - 1);
}

const GridIndex::Cell& GridIndex::CellAt(int64_t cx, int64_t cy) const {
  return cells_[static_cast<size_t>(cy * nx_ + cx)];
}

std::vector<uint32_t> GridIndex::RadiusQuery(const Point& center,
                                             double radius) const {
  std::vector<uint32_t> out;
  if (points_.empty() || radius < 0.0) return out;
  const double r2 = radius * radius;
  const int64_t cx_lo = CellX(center.x - radius);
  const int64_t cx_hi = CellX(center.x + radius);
  const int64_t cy_lo = CellY(center.y - radius);
  const int64_t cy_hi = CellY(center.y + radius);
  for (int64_t cy = cy_lo; cy <= cy_hi; ++cy) {
    for (int64_t cx = cx_lo; cx <= cx_hi; ++cx) {
      const Cell& cell = CellAt(cx, cy);
      for (uint32_t k = cell.begin; k < cell.end; ++k) {
        const uint32_t id = sorted_ids_[k];
        if (SquaredDistance(points_[id], center) <= r2) out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

RadiusAdjacency GridIndex::BuildRadiusAdjacency(double radius,
                                                ThreadPool* pool) const {
  const size_t n = points_.size();
  std::vector<std::vector<uint32_t>> rows(n);
  const auto build_row = [&](size_t j) {
    rows[j] = RadiusQuery(points_[j], radius);
  };
  if (pool != nullptr && pool->num_threads() > 1 && n > 1) {
    pool->RunBatch(n, build_row);
  } else {
    for (size_t j = 0; j < n; ++j) build_row(j);
  }

  RadiusAdjacency adj;
  adj.offsets.resize(n + 1, 0);
  for (size_t j = 0; j < n; ++j) {
    adj.offsets[j + 1] =
        adj.offsets[j] + static_cast<uint32_t>(rows[j].size());
  }
  adj.neighbors.reserve(adj.offsets[n]);
  for (size_t j = 0; j < n; ++j) {
    adj.neighbors.insert(adj.neighbors.end(), rows[j].begin(), rows[j].end());
  }
  return adj;
}

RadiusAdjacency CompleteAdjacency(size_t n) {
  RadiusAdjacency adj;
  adj.offsets.resize(n + 1);
  adj.neighbors.resize(n * n);
  for (size_t j = 0; j <= n; ++j) {
    adj.offsets[j] = static_cast<uint32_t>(j * n);
  }
  for (size_t k = 0; k < n * n; ++k) {
    adj.neighbors[k] = static_cast<uint32_t>(k % n);
  }
  return adj;
}

EdgeTravelTimes::EdgeTravelTimes(const Point& origin,
                                 const std::vector<Point>& points,
                                 const RadiusAdjacency& adj,
                                 const TravelModel& travel) {
  FTA_CHECK(adj.num_points() == points.size());
  from_origin.resize(points.size());
  edge.resize(adj.num_pairs());
  for (uint32_t j = 0; j < points.size(); ++j) {
    from_origin[j] = travel.TravelTime(origin, points[j]);
    for (uint32_t k = adj.offsets[j]; k < adj.offsets[j + 1]; ++k) {
      edge[k] = travel.TravelTime(points[j], points[adj.neighbors[k]]);
    }
  }
}

}  // namespace fta

#include "datagen/synthetic.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "geo/point.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fta {

MultiCenterInstance GenerateSyn(const SynConfig& config) {
  FTA_CHECK(config.num_centers > 0);
  Rng rng(config.seed);
  const double a = config.area;

  std::vector<Point> center_locs(config.num_centers);
  for (Point& p : center_locs) p = {rng.Uniform(0, a), rng.Uniform(0, a)};
  const auto center_of = [&](const Point& p) -> uint32_t {
    if (config.association == CenterAssociation::kUniform) {
      return static_cast<uint32_t>(rng.Index(config.num_centers));
    }
    // Linear scan; strict < keeps the lowest index on a tie.
    uint32_t best = 0;
    double best_d2 = SquaredDistance(p, center_locs[0]);
    for (uint32_t c = 1; c < center_locs.size(); ++c) {
      const double d2 = SquaredDistance(p, center_locs[c]);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = c;
      }
    }
    return best;
  };

  // Delivery points: uniform location, center affiliation per config.
  struct DpDraft {
    Point loc;
    std::vector<SpatialTask> tasks;
  };
  std::vector<std::vector<DpDraft>> dps_per_center(config.num_centers);
  // Remember (center, local index) of each global delivery point for task
  // association.
  std::vector<std::pair<uint32_t, uint32_t>> dp_slots;
  dp_slots.reserve(config.num_delivery_points);
  for (size_t d = 0; d < config.num_delivery_points; ++d) {
    const Point loc{rng.Uniform(0, a), rng.Uniform(0, a)};
    const uint32_t c = center_of(loc);
    dps_per_center[c].push_back({loc, {}});
    dp_slots.emplace_back(c,
                          static_cast<uint32_t>(dps_per_center[c].size() - 1));
  }

  // Tasks: uniformly random delivery point, fixed (optionally jittered)
  // expiry, unit reward.
  for (size_t t = 0; t < config.num_tasks; ++t) {
    if (dp_slots.empty()) break;
    const auto [c, local] = dp_slots[rng.Index(dp_slots.size())];
    double e = config.expiry;
    if (config.expiry_jitter > 0.0) {
      e *= 1.0 + config.expiry_jitter * (2.0 * rng.NextDouble() - 1.0);
      e = std::max(e, 1e-3);
    }
    dps_per_center[c][local].tasks.push_back(SpatialTask{local, e, 1.0});
  }

  // Workers: uniform location, center affiliation per config.
  std::vector<std::vector<Worker>> workers_per_center(config.num_centers);
  for (size_t w = 0; w < config.num_workers; ++w) {
    const Point loc{rng.Uniform(0, a), rng.Uniform(0, a)};
    workers_per_center[center_of(loc)].push_back(Worker{loc, config.max_dp});
  }

  MultiCenterInstance multi;
  multi.centers.reserve(config.num_centers);
  const TravelModel travel(config.speed);
  for (size_t c = 0; c < config.num_centers; ++c) {
    std::vector<DeliveryPoint> dps;
    dps.reserve(dps_per_center[c].size());
    for (DpDraft& draft : dps_per_center[c]) {
      dps.emplace_back(draft.loc, std::move(draft.tasks));
    }
    multi.centers.emplace_back(center_locs[c], std::move(dps),
                               std::move(workers_per_center[c]), travel);
  }
  return multi;
}

SynConfig ScaleSyn(const SynConfig& config, double factor) {
  FTA_CHECK(factor > 0.0);
  SynConfig scaled = config;
  const auto scale = [factor](size_t n) {
    return std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(n) * factor + 0.5));
  };
  scaled.num_centers = scale(config.num_centers);
  scaled.num_workers = scale(config.num_workers);
  scaled.num_delivery_points = scale(config.num_delivery_points);
  scaled.num_tasks = scale(config.num_tasks);
  scaled.area = config.area * std::sqrt(factor);
  return scaled;
}

}  // namespace fta

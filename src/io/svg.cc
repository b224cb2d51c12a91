#include "io/svg.h"

#include <algorithm>
#include <cmath>

#include "geo/bounding_box.h"
#include "io/csv.h"
#include "util/string_util.h"

namespace fta {
namespace {

/// A qualitative color cycle for worker routes.
constexpr const char* kRouteColors[] = {
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
};
constexpr size_t kNumRouteColors =
    sizeof(kRouteColors) / sizeof(kRouteColors[0]);

/// World -> pixel transform (y flipped: SVG's y grows downward).
class Projector {
 public:
  Projector(const BoundingBox& world, const SvgOptions& options)
      : world_(world), margin_(options.margin_px) {
    const double w = std::max(world.width(), 1e-9);
    const double h = std::max(world.height(), 1e-9);
    scale_ = (options.width_px - 2 * margin_) / w;
    width_ = options.width_px;
    height_ = h * scale_ + 2 * margin_;
  }

  double width() const { return width_; }
  double height() const { return height_; }

  double X(const Point& p) const {
    return margin_ + (p.x - world_.min().x) * scale_;
  }
  double Y(const Point& p) const {
    return height_ - margin_ - (p.y - world_.min().y) * scale_;
  }

 private:
  BoundingBox world_;
  double margin_;
  double scale_ = 1.0;
  double width_ = 0.0;
  double height_ = 0.0;
};

void Circle(std::string& out, double cx, double cy, double r,
            const char* fill, const char* extra = "") {
  out += StrFormat(
      "  <circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.1f\" fill=\"%s\"%s/>\n", cx,
      cy, r, fill, extra);
}

}  // namespace

std::string RenderInstanceSvg(const Instance& instance,
                              const Assignment* assignment,
                              const SvgOptions& options) {
  BoundingBox world;
  world.Extend(instance.center());
  for (const DeliveryPoint& dp : instance.delivery_points()) {
    world.Extend(dp.location());
  }
  for (const Worker& w : instance.workers()) world.Extend(w.location);
  world.Inflate(std::max(world.width(), world.height()) * 0.02 + 1e-9);
  const Projector proj(world, options);

  std::string out = StrFormat(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" "
      "height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n",
      proj.width(), proj.height(), proj.width(), proj.height());
  out += "  <rect width=\"100%\" height=\"100%\" fill=\"#fafafa\"/>\n";

  // Routes beneath the markers.
  if (assignment != nullptr && options.draw_routes) {
    for (size_t w = 0; w < assignment->num_workers(); ++w) {
      const Route& route = assignment->route(w);
      if (route.empty()) continue;
      const char* color = kRouteColors[w % kNumRouteColors];
      std::string points =
          StrFormat("%.1f,%.1f %.1f,%.1f",
                    proj.X(instance.worker(w).location),
                    proj.Y(instance.worker(w).location),
                    proj.X(instance.center()), proj.Y(instance.center()));
      for (uint32_t dp : route) {
        points += StrFormat(" %.1f,%.1f",
                            proj.X(instance.delivery_point(dp).location()),
                            proj.Y(instance.delivery_point(dp).location()));
      }
      out += StrFormat(
          "  <polyline points=\"%s\" fill=\"none\" stroke=\"%s\" "
          "stroke-width=\"1.6\" stroke-opacity=\"0.8\"/>\n",
          points.c_str(), color);
    }
  }

  // Delivery points: circles sized by pending-task count.
  size_t max_tasks = 1;
  for (const DeliveryPoint& dp : instance.delivery_points()) {
    max_tasks = std::max(max_tasks, dp.task_count());
  }
  for (size_t d = 0; d < instance.num_delivery_points(); ++d) {
    const DeliveryPoint& dp = instance.delivery_point(d);
    double r = 4.0;
    if (options.scale_by_tasks) {
      r = 3.0 + 6.0 * std::sqrt(static_cast<double>(dp.task_count()) /
                                static_cast<double>(max_tasks));
    }
    Circle(out, proj.X(dp.location()), proj.Y(dp.location()), r, "#4a90d9",
           " fill-opacity=\"0.7\" stroke=\"#2c5f94\"");
    if (options.label_task_counts) {
      out += StrFormat(
          "  <text x=\"%.1f\" y=\"%.1f\" font-size=\"9\" "
          "text-anchor=\"middle\">%zu</text>\n",
          proj.X(dp.location()), proj.Y(dp.location()) - r - 2,
          dp.task_count());
    }
  }

  // Workers: triangles.
  for (const Worker& w : instance.workers()) {
    const double x = proj.X(w.location);
    const double y = proj.Y(w.location);
    out += StrFormat(
        "  <polygon points=\"%.1f,%.1f %.1f,%.1f %.1f,%.1f\" "
        "fill=\"#d9534f\" stroke=\"#912322\"/>\n",
        x, y - 5.0, x - 4.5, y + 4.0, x + 4.5, y + 4.0);
  }

  // Distribution center: a square on top.
  out += StrFormat(
      "  <rect x=\"%.1f\" y=\"%.1f\" width=\"12\" height=\"12\" "
      "fill=\"#222\" stroke=\"#000\"/>\n",
      proj.X(instance.center()) - 6.0, proj.Y(instance.center()) - 6.0);

  out += "</svg>\n";
  return out;
}

Status WriteInstanceSvg(const std::string& path, const Instance& instance,
                        const Assignment* assignment,
                        const SvgOptions& options) {
  return WriteTextFile(path, RenderInstanceSvg(instance, assignment, options));
}

}  // namespace fta

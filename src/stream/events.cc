#include "stream/events.h"

#include <cmath>

namespace fta {
namespace {

bool FiniteOrNever(double t) { return std::isfinite(t) || t == kInfinity; }

bool FinitePoint(const Point& p) {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

}  // namespace

Status ValidateStreamEvent(const StreamEvent& event) {
  const char* broken = nullptr;
  if (!std::isfinite(event.time)) {
    broken = "event time is not finite";
  } else if (event.kind == StreamEventKind::kWorkerArrival) {
    if (!FinitePoint(event.worker.location)) {
      broken = "worker location is not finite";
    } else if (event.worker.max_delivery_points == 0) {
      broken = "worker has maxdp 0";
    } else if (!FiniteOrNever(event.departure)) {
      broken = "worker departure is neither finite nor +inf";
    }
  } else if (event.kind == StreamEventKind::kTaskArrival) {
    if (!FinitePoint(event.location)) {
      broken = "task location is not finite";
    } else if (!std::isfinite(event.reward)) {
      broken = "task reward is not finite";
    } else if (event.reward < 0.0) {
      broken = "task reward is negative";
    } else if (!std::isfinite(event.service_window)) {
      broken = "task service_window is not finite";
    } else if (!(event.service_window > 0.0)) {
      broken = "task service_window is not positive";
    } else if (!FiniteOrNever(event.queue_expiry)) {
      broken = "task queue_expiry is neither finite nor +inf";
    }
  } else {
    broken = "unknown event kind";
  }
  return broken == nullptr ? Status::Ok() : Status::InvalidArgument(broken);
}

}  // namespace fta

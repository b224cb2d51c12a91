#ifndef FTA_STREAM_EVENTS_H_
#define FTA_STREAM_EVENTS_H_

// Event model of the streaming dispatch loop. The struct is header-only
// so the workload generator (src/datagen) can produce events without
// linking the stream library; ValidateStreamEvent lives in fta_stream.
//
// Time semantics — the load-bearing design decision of the subsystem:
//
//   * Queue lifetime is ABSOLUTE stream time: an element is live on tick
//     time `now` iff arrival <= now < expiry (half-open; pinned by
//     tests/stream_boundary semantics). The event loop adds and removes
//     elements by these absolute deadlines.
//
//   * The delivery window (`service_window`, the dp.e the catalog
//     consumes) is RELATIVE to the dispatch instant — the SLA "deliver
//     within X hours of being dispatched", matching Definition 3's
//     "expiring at time e measured from the assignment instant". It is a
//     fixed property of the order, so a surviving delivery point looks
//     byte-identical to the catalog on every tick — which is exactly what
//     makes incremental catalog deltas (VdpsCatalog::ApplyDelta) possible.
//     An absolute delivery deadline would shrink every tick, invalidating
//     every cached slack and forcing full regeneration.

#include <cstdint>

#include "geo/point.h"
#include "model/worker.h"
#include "util/math_util.h"
#include "util/status.h"

namespace fta {

enum class StreamEventKind : uint8_t {
  kWorkerArrival = 0,
  kTaskArrival = 1,
};

/// One arrival event of the stream. Departures and expirations are not
/// separate events: each arrival carries its own absolute leave time, so a
/// generator cannot produce dangling removals and "mass expiry" is simply
/// many elements sharing one deadline.
struct StreamEvent {
  /// Absolute arrival time.
  double time = 0.0;
  StreamEventKind kind = StreamEventKind::kTaskArrival;

  // -- kWorkerArrival --
  /// Location and maxDP of the arriving worker.
  Worker worker;
  /// Absolute time the worker leaves the pool (kInfinity = stays).
  double departure = kInfinity;

  // -- kTaskArrival --
  /// Delivery location of the arriving order.
  Point location;
  /// Reward for completing the order.
  double reward = 1.0;
  /// Absolute time the undispatched order is canceled and leaves the
  /// queue (kInfinity = waits forever).
  double queue_expiry = kInfinity;
  /// Relative delivery deadline once dispatched (the dp.e the catalog
  /// sees). Must be positive and finite.
  double service_window = 1.0;
};

/// The boundary check for events from outside the process (the server's
/// Submit and the serve trace loader): Instance::Validate's element rules
/// plus finiteness. Finite time; a worker needs a finite location, maxDP
/// >= 1 and a departure finite or +inf; a task needs a finite location, a
/// finite reward >= 0, a finite service_window > 0 and a queue_expiry
/// finite or +inf.
Status ValidateStreamEvent(const StreamEvent& event);

}  // namespace fta

#endif  // FTA_STREAM_EVENTS_H_

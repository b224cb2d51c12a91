#ifndef FTA_SERVE_REQUEST_H_
#define FTA_SERVE_REQUEST_H_

// Wire types of the multi-center assignment server: one request feeds one
// center's tick with arrival events; one response reports the solved tick.
//
// Batching protocol (the determinism contract of serve/server.h): every
// request names its (center, tick) explicitly, and the requests of one
// tick arrive back-to-back per center with the last one carrying
// `final_in_tick`. Admission — a single serialized stage — assigns global
// and per-center sequence numbers and appends the request to the center's
// open batch; the `final_in_tick` marker seals the batch. Batch CONTENT
// and ORDER are therefore fixed entirely at admission time, in Submit
// call order; worker scheduling can only decide WHEN a sealed batch is
// solved, never what is in it. That is why the per-center digests are
// bit-identical to a sequential reference loop at any thread count.

#include <cstdint>
#include <vector>

#include "stream/events.h"
#include "stream/tick_engine.h"

namespace fta {

/// One admission-control decision. Everything except kAdmitted is a typed
/// rejection; a rejected request leaves no trace in the server.
enum class AdmissionCode : uint8_t {
  kAdmitted = 0,
  /// Load shed: the admitted-but-unanswered request count is at the
  /// configured queue capacity. Retry after responses drain.
  kQueueFull = 1,
  /// The server is draining; no new work is accepted.
  kShuttingDown = 2,
  /// `center` does not name a shard.
  kUnknownCenter = 3,
  /// The tick violates the per-center protocol: it is below the next
  /// admissible tick, or a different tick arrived while a batch was still
  /// open (unsealed).
  kOutOfOrder = 4,
  /// An event fails ValidateStreamEvent (stream/events.h): a non-finite
  /// number, a negative reward, a non-positive service window, maxDP 0.
  kInvalidRequest = 5,
};

const char* AdmissionCodeName(AdmissionCode code);

/// One request: arrival events for one center's tick. Events must belong
/// to this tick (their absolute times at or before tick * tick_period,
/// after the previous tick's time) and be in feed order; the server
/// concatenates coalesced requests in admission order without re-sorting.
struct ServeRequest {
  uint32_t center = 0;
  uint64_t tick = 0;
  /// Seals the (center, tick) batch: after this request the batch is
  /// scheduled and the next admissible tick is `tick + 1`.
  bool final_in_tick = true;
  std::vector<StreamEvent> events;
};

/// One solved batch. Delivered through the response callback (from a
/// runner thread) and retained per shard for post-drain inspection.
struct ServeResponse {
  uint32_t center = 0;
  uint64_t tick = 0;
  /// 0-based index of this batch in the shard's solve order — dense, so a
  /// validator can detect dropped or reordered batches.
  uint64_t shard_seq = 0;
  /// Global admission sequence number of the batch's first request.
  uint64_t first_global_seq = 0;
  /// Requests coalesced into this batch (>= 1).
  size_t coalesced_requests = 0;
  /// Full per-tick record (instance shape, churn, solver rounds, delta
  /// counters, phase timings) — identical to the streaming TickStats.
  TickStats stats;
  /// The shard's running FNV-1a digest AFTER folding this tick. Equal to
  /// the sequential reference's digest at the same shard_seq iff behavior
  /// matches bit for bit.
  uint64_t shard_digest = 0;
  /// First-admission -> response-emission wall time. Observational only
  /// (never folded into digests).
  double latency_ms = 0.0;
};

}  // namespace fta

#endif  // FTA_SERVE_REQUEST_H_

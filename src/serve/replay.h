#ifndef FTA_SERVE_REPLAY_H_
#define FTA_SERVE_REPLAY_H_

// Traffic replay for the assignment server: turns a synthesized city
// (datagen/city.h) into the server's request trace, runs the sequential
// reference loop the determinism contract is stated against, and drives a
// live server through the trace. The trace also round-trips through a
// CSV file so `fta_tool serve` can replay a saved workload.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "datagen/city.h"
#include "geo/point.h"
#include "serve/request.h"
#include "serve/server.h"
#include "util/status.h"

namespace fta {

/// A city workload flattened into submission order.
struct ServeTrace {
  std::vector<Point> centers;
  double tick_period = 0.25;
  uint64_t ticks = 0;
  /// Requests in the exact order the driver submits them: ticks ascend,
  /// and within a tick the centers' requests interleave round-robin; each
  /// (center, tick) run ends with `final_in_tick` (the admission protocol
  /// of serve/request.h).
  std::vector<ServeRequest> requests;
};

/// Buckets each center's events by tick (event at time τ lands in the
/// tick whose `now` first covers it, mirroring the stream dispatcher's
/// drain; events past the horizon are dropped) and splits every non-empty
/// bucket into 1..max_requests_per_tick coalescible requests — the split
/// points are drawn from `seed`, so replays exercise admission batching,
/// not just 1:1 request-per-tick traffic. Every (center, tick) pair emits
/// at least one request, so all shards advance through all ticks.
ServeTrace BuildServeTrace(const CityWorkload& city,
                           size_t max_requests_per_tick, uint64_t seed);

/// The sequential ground truth: one TickEngine per center constructed via
/// ShardEngineConfig (byte-equal to the server's shards), fed the trace in
/// submission order on a single thread. `responses[c]` is what a correct
/// server must emit for shard c, in shard_seq order, digests included.
struct ReferenceResult {
  /// Final running digest per center.
  std::vector<uint64_t> digests;
  /// Per-center responses; wait_ms and latency_ms are 0 (observational
  /// fields).
  std::vector<std::vector<ServeResponse>> responses;
  uint64_t batches = 0;
  uint64_t assignments = 0;
};

ReferenceResult RunSequentialReference(const ServerConfig& config,
                                       const ServeTrace& trace);

/// Feeds the trace to a live server in submission order. kQueueFull is
/// retried (bounded) after yielding to the runners — the shedding path is
/// load control, not an error; any other rejection aborts the replay.
/// Returns the number of kQueueFull retries performed.
StatusOr<uint64_t> ReplayTrace(AssignmentServer& server,
                               const ServeTrace& trace,
                               size_t max_retries_per_request = 1 << 20);

/// CSV round-trip (schema: meta/center/req/w/t rows; see replay.cc).
std::string SerializeServeTrace(const ServeTrace& trace);
Status SaveServeTrace(const std::string& path, const ServeTrace& trace);
/// Parses a trace, returning ParseError for a malformed one: a center,
/// tick, `ticks`, `final` or maxdp field that is not a plain non-negative
/// integer in its type's range; a non-finite number (departure and
/// queue_expiry may be +inf, "never"); a tick_period <= 0 or maxdp 0; a
/// req row naming an undeclared center; or a center whose request ticks
/// go backwards, repeat a sealed tick, or change inside an open run.
StatusOr<ServeTrace> DeserializeServeTrace(const std::string& text);
StatusOr<ServeTrace> LoadServeTrace(const std::string& path);

}  // namespace fta

#endif  // FTA_SERVE_REPLAY_H_

#ifndef FTA_STREAM_TICK_ENGINE_H_
#define FTA_STREAM_TICK_ENGINE_H_

// The per-tick core of streaming dispatch, factored out of
// StreamDispatcher so the offline replay loop (stream/dispatcher.h) and
// the serving layer (serve/server.h) drive the exact same machinery:
// arrival ingest with stable-id assignment, deadline expiry with dense
// compaction, incremental catalog maintenance (CatalogDeltaPlan /
// VdpsCatalog::ApplyDelta on the warm path), warm-seed projection through
// the tick's id maps, the FGT/IEGT solve, and the FNV-1a digest fold.
//
// One TickEngine is one center's timeline. Tick indices are supplied by
// the caller (strictly increasing, not necessarily contiguous — a serving
// shard only ticks when a request arrives); the per-tick solver seed,
// the digest fold, and the expiry semantics depend only on the supplied
// (tick, now) pair and the arrival contents, never on wall time or
// scheduling. Digests are bit-identical to the pre-extraction
// StreamDispatcher (pinned by tests/stream_identity_test.cc).

#include <cstdint>
#include <span>
#include <vector>

#include "game/fgt.h"
#include "game/iegt.h"
#include "geo/point.h"
#include "geo/travel.h"
#include "model/assignment.h"
#include "model/instance.h"
#include "stream/digest.h"
#include "stream/events.h"
#include "util/status.h"
#include "vdps/catalog.h"

namespace fta {

/// How the engine re-solves each tick after churn.
enum class ResolvePolicy : uint8_t {
  /// Regenerate the catalog and solve from the random singleton
  /// initialization — the from-scratch baseline the bench gates against.
  kColdRestart = 0,
  /// Regenerate the catalog but seed the solver from the projected
  /// previous equilibrium — the differential reference: it shares kWarm's
  /// seed and solver trajectory while exercising none of the incremental
  /// machinery, so kWarm ≡ kColdSeeded digests pin delta ≡ regen AND
  /// warm ≡ cold convergence bit-identically.
  kColdSeeded = 1,
  /// Patch the catalog with VdpsCatalog::ApplyDelta and seed the solver
  /// from the projected previous equilibrium — the streaming fast path.
  kWarm = 2,
};

const char* ResolvePolicyName(ResolvePolicy policy);

/// Which game solver equilibrates each tick.
enum class StreamSolver : uint8_t {
  kFgt = 0,
  kIegt = 1,
};

const char* StreamSolverName(StreamSolver solver);

struct TickEngineConfig {
  /// Distribution center shared by every tick's instance.
  Point center;
  TravelModel travel;
  ResolvePolicy policy = ResolvePolicy::kWarm;
  StreamSolver solver = StreamSolver::kFgt;
  /// Catalog configuration. kWarm requires a delta-patchable setup:
  /// beam_width == 0 and max_entries == 0 (checked at construction).
  VdpsConfig vdps;
  /// Base solver configurations; the per-tick seed overrides their `seed`
  /// (derived as SplitMix64(seed ^ (tick + 1)) so every tick and every
  /// stream seed gets an independent solver randomization).
  FgtConfig fgt;
  IegtConfig iegt;
  uint64_t seed = 42;
  /// Fold a digest of the ENTIRE catalog (entries, strategies,
  /// ε-adjacency) into the run digest every tick. O(catalog) per
  /// tick — the identity tests' instrument, off by default.
  bool digest_catalog = false;
};

/// Per-tick observability record.
struct TickStats {
  uint64_t tick = 0;
  double time = 0.0;
  size_t num_workers = 0;
  size_t num_dps = 0;
  size_t workers_in = 0;
  size_t workers_out = 0;
  size_t tasks_in = 0;
  size_t tasks_out = 0;
  /// True when the catalog was delta-patched (kWarm past the first tick).
  bool used_delta = false;
  double catalog_ms = 0.0;
  double solve_ms = 0.0;
  /// Warm-seed projection (phase 4) wall time.
  double project_ms = 0.0;
  /// Whole-tick wall time (ingest through digest fold).
  double tick_ms = 0.0;
  int rounds = 0;
  bool converged = false;
  size_t assigned_workers = 0;
  size_t covered_dps = 0;
  double average_payoff = 0.0;
  double payoff_difference = 0.0;
  /// Catalog digest of this tick (0 unless config.digest_catalog).
  uint64_t catalog_digest = 0;
  /// Delta counters of this tick (zero when the catalog was regenerated).
  DeltaCounters delta;
};

/// One center's re-planning timeline. Tick() advances one tick; callers
/// (the stream dispatcher, a serving shard, the sequential reference loop)
/// own the clock and the arrival feed. Not thread-safe: a caller that
/// shares an engine across threads must serialize Tick() externally (the
/// serving shard holds its solve mutex across the call).
class TickEngine {
 public:
  /// kWarm policy requires a delta-patchable VdpsConfig (checked).
  explicit TickEngine(TickEngineConfig config);

  /// Advances one tick at absolute time `now` with index `tick` (strictly
  /// increasing across calls, checked): ingests `arrivals` (every event
  /// due at `now`, in feed order), expires dead elements, patches or
  /// regenerates the catalog, seeds and runs the solver, and folds the
  /// tick into the run digest. Fills `*ts`.
  Status Tick(uint64_t tick, double now, std::span<const StreamEvent> arrivals,
              TickStats* ts);

  /// State after the last Tick(), for tests, tooling, and responses.
  const Instance& instance() const { return instance_; }
  const VdpsCatalog& catalog() const { return catalog_; }
  const Assignment& last_assignment() const { return last_assignment_; }
  /// FNV-1a running digest: every tick folds its index, instance shape,
  /// and full assignment (stable ids, routes, payoff bits), plus the
  /// catalog digest when enabled. Two timelines agree iff their observable
  /// behavior is bit-identical.
  uint64_t digest() const { return digest_.value(); }
  uint64_t ticks_run() const { return ticks_run_; }
  const TickEngineConfig& config() const { return config_; }

 private:
  struct LiveWorker {
    Worker worker;
    double departure = 0.0;
    uint64_t stable_id = 0;
  };
  struct LiveTask {
    Point location;
    double reward = 0.0;
    double queue_expiry = 0.0;
    double service_window = 0.0;
    uint64_t stable_id = 0;
  };

  void BuildInstance();
  uint64_t DigestCatalog() const;

  TickEngineConfig config_;

  std::vector<LiveWorker> workers_;
  std::vector<LiveTask> tasks_;
  uint64_t next_worker_id_ = 0;
  uint64_t next_task_id_ = 0;

  Instance instance_;
  VdpsCatalog catalog_;
  Assignment last_assignment_;
  /// Sorted delivery point sets (dense ids) held by each worker after the
  /// last solve — the projection source for the next tick's warm seed.
  std::vector<std::vector<uint32_t>> prev_sets_;

  StreamDigest digest_;
  uint64_t ticks_run_ = 0;
  uint64_t last_tick_index_ = 0;
};

}  // namespace fta

#endif  // FTA_STREAM_TICK_ENGINE_H_

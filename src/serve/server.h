#ifndef FTA_SERVE_SERVER_H_
#define FTA_SERVE_SERVER_H_

// Sharded multi-center assignment server (ROADMAP item 2's chassis): a
// bounded admission stage (in-flight request accounting) in front of one
// TickEngine shard per distribution center, solved concurrently on a
// ThreadPool.
//
// Pipeline:  Submit() → admission control (typed reject/shed) → per-center
// batch coalescing (requests of one tick merge into one solve) → sealed
// batches queue per center → each runner takes one batch at a time from
// the ready center that DispatchesBefore all others, runs the shared
// stream/ tick machinery (delta-patched catalog, warm-started solver),
// and emits a sequence-numbered response.
//
// Determinism argument (DESIGN.md §14): the paper solves centers
// independently (Section VII-A), so a center is a closed timeline — the
// only cross-thread hazard is WHICH requests form a tick's batch and in
// WHAT order. Both are fixed at admission, a single mutex-serialized
// stage that assigns sequence numbers and appends to the center's open
// batch in Submit call order; the final_in_tick marker seals the batch
// before it becomes runnable. Runners obey two invariants — at most one
// runner per shard at a time (a center is in the dispatch heap or
// running only while it has sealed batches), sealed batches solved in
// FIFO order — so scheduling decides only when a batch runs. Per-center
// digests are therefore bit-identical to a sequential reference loop
// (serve/replay.h) at any thread count, pinned by
// tests/serve_identity_test.cc and the bench_serve gate.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "geo/point.h"
#include "obs/window.h"
#include "serve/request.h"
#include "stream/tick_engine.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace fta {

/// One distribution center a shard will own.
struct CenterSpec {
  Point location;
};

struct ServerConfig {
  /// Shard-runner concurrency: how many pool workers solve sealed
  /// batches. The injected pool must have at least this many threads.
  size_t num_threads = 1;
  /// Admission bound: maximum requests admitted but not yet answered.
  /// At the bound Submit() sheds with AdmissionCode::kQueueFull.
  size_t queue_capacity = 1024;
  /// Tick t of every shard runs at absolute time t * tick_period.
  double tick_period = 1.0;
  /// Per-shard engine template. `center` is overridden by each shard's
  /// CenterSpec and `seed` is decorrelated per shard (see
  /// ShardEngineConfig); solver/catalog threading is forced serial —
  /// shard-level concurrency is the server's parallelism axis, and
  /// runners execute on the pool itself.
  TickEngineConfig engine;
  /// Rolling-window length (in batches) of the per-shard solve windows.
  size_t window_batches = 32;
  /// Construct with runners parked: admitted work queues up until
  /// Resume(). Lets tests fill the queue deterministically.
  bool start_paused = false;
};

/// The engine configuration shard `shard` of `config` runs: the template
/// with the shard's center and a SplitMix64-decorrelated seed. Exposed so
/// the sequential reference loop (serve/replay.h) constructs byte-equal
/// engines.
TickEngineConfig ShardEngineConfig(const ServerConfig& config, uint32_t shard,
                                   const Point& location);

/// A sealed batch's place in the runners' dispatch order (DESIGN.md §14).
/// Fixed when the batch's center enters the ready heap and never changed
/// while it waits.
struct DispatchKey {
  uint64_t tick = 0;
  /// The center's last TickStats::tick_ms over the batch's coalesced
  /// requests (Smith's rule); 0 for a center that has not run.
  double cost_per_request_ms = 0.0;
  /// Seal order across all centers.
  uint64_t seal = 0;
};

DispatchKey MakeDispatchKey(uint64_t tick, double last_tick_ms,
                            size_t requests, uint64_t seal);

/// True when a batch keyed `a` runs before one keyed `b`: the older tick,
/// then the lower expected cost per waiting request, then the earlier
/// seal. A batch is overtaken only by older ticks and by at most one
/// same-tick batch per other center, so no center starves.
bool DispatchesBefore(const DispatchKey& a, const DispatchKey& b);

/// Whole-server aggregation, mirrored into the obs metrics registry at
/// Drain().
struct ServeCounters {
  uint64_t admitted = 0;
  uint64_t rejected_full = 0;
  uint64_t rejected_shutdown = 0;
  uint64_t rejected_unknown = 0;
  uint64_t rejected_order = 0;
  uint64_t rejected_invalid = 0;
  /// Sealed batches solved (== responses emitted).
  uint64_t batches = 0;
  /// Admitted requests answered through a batch (== admitted after a
  /// clean drain).
  uint64_t answered = 0;
  /// Workers assigned a non-null strategy, summed over batches.
  uint64_t assignments = 0;
  uint64_t solver_rounds = 0;
  double catalog_ms = 0.0;
  double solve_ms = 0.0;
};

/// Long-running multi-center assignment service. Construction spawns no
/// threads of its own: runners are jobs on the injected pool. The server
/// must be Drain()ed (or destroyed, which drains) before the pool.
class AssignmentServer {
 public:
  /// Invoked by a runner thread after each solved batch. Callbacks for
  /// different shards can run concurrently; per shard they arrive in
  /// shard_seq order. Must be thread-safe.
  using ResponseCallback = std::function<void(const ServeResponse&)>;

  /// `pool` is non-owning and must outlive the server; it needs at least
  /// config.num_threads threads (checked). One shard per center.
  AssignmentServer(ServerConfig config, std::vector<CenterSpec> centers,
                   ThreadPool* pool);
  ~AssignmentServer();

  AssignmentServer(const AssignmentServer&) = delete;
  AssignmentServer& operator=(const AssignmentServer&) = delete;

  /// Optional streaming sink; set before the first Submit().
  void set_response_callback(ResponseCallback cb) { callback_ = std::move(cb); }

  /// Admission control. Never blocks; every outcome other than kAdmitted
  /// is a typed rejection that leaves no server state behind.
  AdmissionCode Submit(ServeRequest request) FTA_EXCLUDES(admit_mu_);

  /// Launches the runners of a start_paused server. Idempotent.
  void Resume() FTA_EXCLUDES(admit_mu_);

  /// Stops admission, force-seals any open batches so every admitted
  /// request is answered, completes all in-flight work, and parks the
  /// runners. Idempotent and safe to call concurrently (the first caller
  /// runs the sequence once; the rest block until it completes); implied
  /// by destruction.
  void Drain() FTA_EXCLUDES(admit_mu_);

  size_t num_shards() const { return shards_.size(); }
  /// Admitted-but-unanswered requests right now (tests; racy by nature).
  size_t in_flight() const FTA_EXCLUDES(admit_mu_);

  // ---- Post-Drain inspection (stable once Drain() returned). ----
  /// Whole-server aggregates. Coherent any time (one lock), and includes
  /// rejections recorded after the drain (e.g. kShuttingDown sheds).
  ServeCounters counters() const FTA_EXCLUDES(admit_mu_);
  /// The shard's running digest after its last batch.
  uint64_t shard_digest(uint32_t center) const;
  /// Every response the shard emitted, in shard_seq order.
  const std::vector<ServeResponse>& responses(uint32_t center) const;
  /// Batches solved per shard — the balance stats bench_serve reports.
  std::vector<uint64_t> shard_batch_counts() const;
  /// Per-shard rolling-window reading over solve_ms of the last
  /// config.window_batches batches.
  obs::WindowStats shard_solve_window(uint32_t center) const;
  /// Prometheus page: global registry snapshot plus per-shard windows.
  std::string PrometheusText() const;

 private:
  struct Shard;
  /// Per-center admission and scheduling state (server.cc).
  struct CenterQueue;
  struct Ready {
    DispatchKey key;
    uint32_t center = 0;
  };

  void RunnerLoop() FTA_EXCLUDES(admit_mu_);
  /// Seals `center`'s open batch into its FIFO; a center whose FIFO was
  /// empty joins the ready heap.
  void Seal(uint32_t center) FTA_REQUIRES(admit_mu_);
  /// Pushes `center` onto the ready heap, keyed by its front batch.
  void PushReady(uint32_t center) FTA_REQUIRES(admit_mu_);

  ServerConfig config_;
  ThreadPool* pool_;
  ResponseCallback callback_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable Mutex admit_mu_;
  /// Runners wait here for a ready center (or for the drain to finish).
  CondVar work_cv_;
  CondVar drain_cv_;
  bool draining_ FTA_GUARDED_BY(admit_mu_) = false;
  bool started_ FTA_GUARDED_BY(admit_mu_) = false;
  uint64_t global_seq_ FTA_GUARDED_BY(admit_mu_) = 0;
  uint64_t seals_ FTA_GUARDED_BY(admit_mu_) = 0;
  size_t in_flight_ FTA_GUARDED_BY(admit_mu_) = 0;
  size_t runners_active_ FTA_GUARDED_BY(admit_mu_) = 0;
  std::vector<CenterQueue> queues_ FTA_GUARDED_BY(admit_mu_);
  /// Min-heap (by DispatchesBefore) of the centers that have sealed
  /// batches and no runner: each such center appears exactly once.
  std::vector<Ready> ready_ FTA_GUARDED_BY(admit_mu_);
  ServeCounters counters_ FTA_GUARDED_BY(admit_mu_);
  /// Set by the draining thread once the full sequence (including the
  /// counter publish) completed; concurrent Drain() callers wait on
  /// drain_cv_ for it instead of re-running the sequence.
  bool drained_ FTA_GUARDED_BY(admit_mu_) = false;
};

}  // namespace fta

#endif  // FTA_SERVE_SERVER_H_

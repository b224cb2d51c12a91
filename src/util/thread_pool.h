#ifndef FTA_UTIL_THREAD_POOL_H_
#define FTA_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace fta {

/// Fixed-size worker pool for running independent jobs, e.g. per-center task
/// assignment (the paper notes centers are independent and parallelizable).
///
/// Jobs should not throw; the library reports recoverable errors via Status
/// captured inside the job closure. A job that does throw never kills the
/// pool: Submit-ed exceptions are caught and logged, RunBatch captures the
/// first one and rethrows it to the batch's caller.
///
/// Placement: the constructor records the constructing thread's CPU, and
/// worker k moves itself once to PlacementCpu(allowed CPUs, that CPU, k),
/// then restores its affinity mask — a placement, not a pin. Where the
/// kernel does not balance load (cpuset.sched_load_balance = 0) a new
/// thread stays on its creator's CPU, so without this a fresh pool's
/// workers would share one CPU until wakeups happened to spread them.
/// Best effort: a no-op off Linux, on one allowed CPU, or when the
/// affinity calls fail.
///
/// Lock discipline (compile-checked under Clang -Wthread-safety, DESIGN.md
/// §13): the queue, the shutdown flag, and the in-flight count are guarded
/// by mu_; every touch goes through a MutexLock scope. threads_ is written
/// only in the constructor and joined in the destructor, both before/after
/// any sharing, so it carries no guard.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains every job still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job. Never blocks. Safe to call from a pool worker.
  void Submit(std::function<void()> job) FTA_EXCLUDES(mu_);

  /// Blocks until every submitted job has finished.
  void Wait() FTA_EXCLUDES(mu_);

  /// Bulk-submit/wait helper: runs fn(i) for i in [0, n) on this pool and
  /// blocks until the whole batch has finished, without disturbing other
  /// outstanding jobs. fn must be safe to invoke concurrently for distinct
  /// i. Every index is attempted even when some throw; the first exception
  /// is rethrown here once the batch is done. Must not be called from a
  /// pool worker thread (it would block a lane of its own batch).
  void RunBatch(size_t n, const std::function<void(size_t)>& fn)
      FTA_EXCLUDES(mu_);

  /// Range fan-out: splits [0, n) into NumChunks(n, chunk_size) contiguous
  /// chunks and runs fn(chunk, begin, end) for each as one batch. Chunk
  /// boundaries depend only on (n, chunk_size) — never on the thread count
  /// or scheduling — so callers that write per-chunk results into
  /// chunk-indexed slots and concatenate them in chunk order get
  /// thread-count-invariant output.
  void RunChunked(size_t n, size_t chunk_size,
                  const std::function<void(size_t chunk, size_t begin,
                                           size_t end)>& fn)
      FTA_EXCLUDES(mu_);

  /// Number of chunks RunChunked(n, chunk_size, ...) will produce.
  static size_t NumChunks(size_t n, size_t chunk_size) {
    if (chunk_size == 0) chunk_size = 1;
    return (n + chunk_size - 1) / chunk_size;
  }

  size_t num_threads() const { return threads_.size(); }

  /// Process-lifetime count of ThreadPool constructions. Benches assert
  /// this stays flat across repetitions once warm: repeated solves must
  /// reuse an injected pool (BestResponseConfig::pool, VdpsConfig::pool)
  /// instead of re-spawning workers per iteration.
  static uint64_t total_created();

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// fn must be safe to invoke concurrently for distinct i.
  static void ParallelFor(size_t n, size_t num_threads,
                          const std::function<void(size_t)>& fn);

  /// The CPU worker `k` of a pool constructed on CPU `home` moves to: the
  /// k-th CPU of `allowed` (ascending, non-empty) after `home`, counting
  /// from 0 and wrapping past the last one, so k >= allowed.size() cycles
  /// round again. `home` need not be in `allowed`.
  static int PlacementCpu(const std::vector<int>& allowed, int home,
                          size_t k);

 private:
  void WorkerLoop() FTA_EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  std::deque<std::function<void()>> queue_ FTA_GUARDED_BY(mu_);
  size_t in_flight_ FTA_GUARDED_BY(mu_) = 0;
  bool shutdown_ FTA_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  // ctor-built, dtor-joined; unshared
};

}  // namespace fta

#endif  // FTA_UTIL_THREAD_POOL_H_

#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/logging.h"

namespace fta {
namespace {

std::atomic<uint64_t> g_pools_created{0};

#ifdef __linux__
int CurrentCpu() { return sched_getcpu(); }

/// Moves the calling worker once to ThreadPool::PlacementCpu, then
/// restores its affinity mask (see the class comment).
void PlaceWorker(size_t k, int home) {
  cpu_set_t allowed;
  if (home < 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2) {
    return;
  }
  std::vector<int> cpus;
  for (size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(static_cast<int>(cpu));
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<size_t>(ThreadPool::PlacementCpu(cpus, home, k)), &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
}
#else
int CurrentCpu() { return -1; }
void PlaceWorker(size_t, int) {}
#endif

}  // namespace

uint64_t ThreadPool::total_created() {
  return g_pools_created.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(size_t num_threads) {
  g_pools_created.fetch_add(1, std::memory_order_relaxed);
  if (num_threads == 0) num_threads = 1;
  const int home = CurrentCpu();
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i, home] {
      PlaceWorker(i, home);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> job) {
  FTA_CHECK(job != nullptr);
  {
    MutexLock lock(&mu_);
    FTA_CHECK_MSG(!shutdown_, "Submit after shutdown");
    queue_.push_back(std::move(job));
  }
  work_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (!(queue_.empty() && in_flight_ == 0)) done_cv_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    try {
      job();
    } catch (const std::exception& e) {
      FTA_LOG(kError) << "ThreadPool job threw: " << e.what();
    } catch (...) {
      FTA_LOG(kError) << "ThreadPool job threw a non-std exception";
    }
    {
      MutexLock lock(&mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::RunBatch(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Completion is tracked per batch (not via Wait) so concurrent batches
  // and unrelated Submit-ed jobs never block each other.
  struct BatchState {
    Mutex mu;
    CondVar done;
    size_t drivers_left FTA_GUARDED_BY(mu) = 0;
    std::atomic<size_t> next{0};  // lock-free work-stealing cursor
    std::exception_ptr first_error FTA_GUARDED_BY(mu);
  };
  auto state = std::make_shared<BatchState>();
  const size_t drivers = std::min(std::max<size_t>(num_threads(), 1), n);
  {
    MutexLock lock(&state->mu);
    state->drivers_left = drivers;
  }
  // `fn` is captured by reference: this frame outlives the batch because it
  // blocks below until every driver has finished.
  for (size_t t = 0; t < drivers; ++t) {
    Submit([state, n, &fn] {
      for (size_t i = state->next.fetch_add(1); i < n;
           i = state->next.fetch_add(1)) {
        try {
          fn(i);
        } catch (...) {
          MutexLock lock(&state->mu);
          if (!state->first_error) {
            state->first_error = std::current_exception();
          }
        }
      }
      MutexLock lock(&state->mu);
      if (--state->drivers_left == 0) state->done.NotifyAll();
    });
  }
  MutexLock lock(&state->mu);
  while (state->drivers_left != 0) state->done.Wait(state->mu);
  if (state->first_error) std::rethrow_exception(state->first_error);
}

void ThreadPool::RunChunked(size_t n, size_t chunk_size,
                            const std::function<void(size_t, size_t, size_t)>&
                                fn) {
  if (n == 0) return;
  if (chunk_size == 0) chunk_size = 1;
  const size_t chunks = NumChunks(n, chunk_size);
  RunBatch(chunks, [&](size_t c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(n, begin + chunk_size);
    fn(c, begin, end);
  });
}

int ThreadPool::PlacementCpu(const std::vector<int>& allowed, int home,
                             size_t k) {
  const auto first = static_cast<size_t>(
      std::upper_bound(allowed.begin(), allowed.end(), home) -
      allowed.begin());
  return allowed[(first + k) % allowed.size()];
}

void ThreadPool::ParallelFor(size_t n, size_t num_threads,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (num_threads <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(std::min(num_threads, n));
  std::atomic<size_t> next{0};
  for (size_t t = 0; t < pool.num_threads(); ++t) {
    pool.Submit([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  pool.Wait();
}

}  // namespace fta

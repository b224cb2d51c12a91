#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace fta {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedJobs) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, JobsCanSubmitFollowUps) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    counter.fetch_add(1);
    pool.Submit([&] { counter.fetch_add(10); });
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPoolTest, RunBatchCoversTenThousandNoOps) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10'000);
  pool.RunBatch(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RunBatchZeroItemsReturnsImmediately) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.RunBatch(0, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.RunChunked(0, 8, [&](size_t, size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  // The pool is still fully operational afterwards.
  pool.RunBatch(10, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPoolTest, ConsecutiveThrowingBatchesEachRethrow) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        pool.RunBatch(1'000,
                      [](size_t i) {
                        if (i == 500) throw std::runtime_error("again");
                      }),
        std::runtime_error);
  }
  // A clean batch after repeated failures still covers every index.
  std::atomic<int> after{0};
  pool.RunBatch(1'000, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 1'000);
}

TEST(ThreadPoolTest, RunBatchRethrowsFirstErrorAfterAttemptingEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> attempted{0};
  EXPECT_THROW(
      pool.RunBatch(10'000,
                    [&](size_t i) {
                      attempted.fetch_add(1);
                      if (i % 3 == 0) throw std::runtime_error("task failed");
                    }),
      std::runtime_error);
  // Throwing tasks don't starve the rest of the batch.
  EXPECT_EQ(attempted.load(), 10'000);
  // The pool survives a throwing batch and still runs new work.
  std::atomic<int> after{0};
  pool.RunBatch(100, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 100);
}

TEST(ThreadPoolTest, SubmittedThrowingJobDoesNotKillPool) {
  ThreadPool pool(2);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([] { throw std::runtime_error("boom"); });
  }
  pool.Wait();
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, NestedSubmitChainFromWorkerThreads) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  // Each job enqueues the next from inside a worker thread, 1000 deep.
  std::function<void(int)> chain = [&](int depth) {
    counter.fetch_add(1);
    if (depth > 0) pool.Submit([&chain, depth] { chain(depth - 1); });
  };
  pool.Submit([&chain] { chain(999); });
  // Each link submits its successor while still in flight, so Wait() can
  // only return once the whole chain has unrolled.
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, ShutdownWhileBusyDrainsTheQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        counter.fetch_add(1);
      });
    }
    // Destructor fires with most jobs still queued.
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, DestructionDrainsFollowUpsQueuedByFinishedJobs) {
  std::atomic<int> parents{0};
  std::atomic<int> total{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] {
        pool.Submit([&total] {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          total.fetch_add(1);
        });
        parents.fetch_add(1);
      });
    }
    // Every parent has submitted its follow-up (so no Submit can race the
    // shutdown flag), but the slow follow-ups are still queued behind two
    // workers when the destructor fires: shutdown must drain them, not
    // abandon them.
    while (parents.load() < 50) std::this_thread::yield();
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPoolTest, ConcurrentBatchesFromSeparatePoolsDoNotInterfere) {
  ThreadPool a(2);
  ThreadPool b(2);
  std::atomic<int> total{0};
  std::thread t([&] {
    a.RunBatch(5'000, [&](size_t) { total.fetch_add(1); });
  });
  b.RunBatch(5'000, [&](size_t) { total.fetch_add(1); });
  t.join();
  EXPECT_EQ(total.load(), 10'000);
}

TEST(ThreadPoolTest, PlacementCpuTable) {
  struct Case {
    std::vector<int> allowed;
    int home;
    size_t k;
    int want;
  };
  const Case cases[] = {
      {{0, 1, 2, 3}, 1, 0, 2},  // worker 0 takes the CPU after home
      {{0, 1, 2, 3}, 1, 1, 3},
      {{0, 1, 2, 3}, 1, 2, 0},  // wraps past the last CPU
      {{0, 1, 2, 3}, 1, 3, 1},  // the k-th after home is home itself
      {{0, 1, 2, 3}, 1, 4, 2},  // k >= CPU count cycles round again
      {{0, 1, 2, 3}, 3, 0, 0},
      {{0, 2, 5, 7}, 2, 0, 5},  // CPUs outside the mask are skipped
      {{0, 2, 5, 7}, 2, 1, 7},
      {{0, 2, 5, 7}, 2, 2, 0},
      {{0, 2, 5, 7}, 3, 0, 5},  // home outside the mask
      {{4, 5, 6}, 1, 0, 4},
      {{4, 5, 6}, 9, 1, 5},
      {{3}, 3, 0, 3},
      {{3}, 3, 5, 3},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ThreadPool::PlacementCpu(c.allowed, c.home, c.k), c.want)
        << "home=" << c.home << " k=" << c.k;
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  ThreadPool::ParallelFor(hits.size(), 4,
                          [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> order;
  ThreadPool::ParallelFor(5, 1, [&](size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, EmptyRange) {
  bool called = false;
  ThreadPool::ParallelFor(0, 4, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace fta

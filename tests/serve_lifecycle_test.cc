#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/queue.h"
#include "serve/request.h"
#include "serve/server.h"
#include "util/thread_pool.h"

// Lifecycle and admission-control semantics of the assignment server:
// typed rejections (full queue, unknown center, protocol violations,
// shutdown, one invalid-request case per event rule), drain-on-shutdown
// answering every admitted request — including force-sealing batches whose
// tick never saw final_in_tick — and the paused-server path tests use to
// fill the queue deterministically.

namespace fta {
namespace {

ServerConfig TinyServer(size_t queue_capacity, bool start_paused) {
  ServerConfig config;
  config.num_threads = 2;
  config.queue_capacity = queue_capacity;
  config.tick_period = 0.1;
  config.engine.policy = ResolvePolicy::kWarm;
  config.engine.solver = StreamSolver::kFgt;
  config.engine.vdps.epsilon = 2.0;
  config.engine.vdps.max_set_size = 3;
  config.engine.seed = 11;
  config.start_paused = start_paused;
  return config;
}

std::vector<CenterSpec> TwoCenters() {
  return {{Point{1.0, 1.0}}, {Point{9.0, 9.0}}};
}

ServeRequest TaskRequest(uint32_t center, uint64_t tick, bool final_in_tick) {
  ServeRequest req;
  req.center = center;
  req.tick = tick;
  req.final_in_tick = final_in_tick;
  StreamEvent ev;
  ev.kind = StreamEventKind::kTaskArrival;
  ev.time = static_cast<double>(tick) * 0.1;
  ev.location = Point{1.5, 1.5};
  ev.service_window = 1.0;
  StreamEvent worker;
  worker.kind = StreamEventKind::kWorkerArrival;
  worker.time = ev.time;
  worker.worker.location = Point{1.2, 1.2};
  req.events = {worker, ev};
  return req;
}

TEST(ServeLifecycleTest, QueueFullShedsAndDrainAnswersTheAdmitted) {
  ThreadPool pool(2);
  AssignmentServer server(TinyServer(/*queue_capacity=*/2, true), TwoCenters(),
                          &pool);
  // Paused server: admitted requests pile up against the bound.
  EXPECT_EQ(server.Submit(TaskRequest(0, 0, true)), AdmissionCode::kAdmitted);
  EXPECT_EQ(server.Submit(TaskRequest(1, 0, true)), AdmissionCode::kAdmitted);
  EXPECT_EQ(server.Submit(TaskRequest(0, 1, true)), AdmissionCode::kQueueFull);
  EXPECT_EQ(server.in_flight(), 2u);
  server.Drain();
  EXPECT_EQ(server.in_flight(), 0u);
  EXPECT_EQ(server.counters().admitted, 2u);
  EXPECT_EQ(server.counters().answered, 2u);
  EXPECT_EQ(server.counters().rejected_full, 1u);
  EXPECT_EQ(server.counters().batches, 2u);
  EXPECT_EQ(server.responses(0).size(), 1u);
  EXPECT_EQ(server.responses(1).size(), 1u);
}

TEST(ServeLifecycleTest, DrainForceSealsOpenBatches) {
  ThreadPool pool(2);
  AssignmentServer server(TinyServer(16, false), TwoCenters(), &pool);
  // Never sealed: final_in_tick is false on every request.
  EXPECT_EQ(server.Submit(TaskRequest(0, 0, false)), AdmissionCode::kAdmitted);
  EXPECT_EQ(server.Submit(TaskRequest(0, 0, false)), AdmissionCode::kAdmitted);
  server.Drain();
  EXPECT_EQ(server.counters().answered, 2u);
  ASSERT_EQ(server.responses(0).size(), 1u);
  EXPECT_EQ(server.responses(0)[0].coalesced_requests, 2u);
  EXPECT_EQ(server.responses(0)[0].tick, 0u);
}

TEST(ServeLifecycleTest, TypedRejections) {
  ThreadPool pool(2);
  AssignmentServer server(TinyServer(16, true), TwoCenters(), &pool);
  EXPECT_EQ(server.Submit(TaskRequest(7, 0, true)),
            AdmissionCode::kUnknownCenter);
  // Open batch at tick 2; a different tick while open is out of order.
  EXPECT_EQ(server.Submit(TaskRequest(0, 2, false)), AdmissionCode::kAdmitted);
  EXPECT_EQ(server.Submit(TaskRequest(0, 3, true)),
            AdmissionCode::kOutOfOrder);
  EXPECT_EQ(server.Submit(TaskRequest(0, 2, true)), AdmissionCode::kAdmitted);
  // Sealed: the tick cannot be reopened, and the past is closed.
  EXPECT_EQ(server.Submit(TaskRequest(0, 2, true)),
            AdmissionCode::kOutOfOrder);
  EXPECT_EQ(server.Submit(TaskRequest(0, 1, true)),
            AdmissionCode::kOutOfOrder);
  // Skipping forward is legal: ticks are sparse per center.
  EXPECT_EQ(server.Submit(TaskRequest(0, 9, true)), AdmissionCode::kAdmitted);
  server.Drain();
  EXPECT_EQ(server.Submit(TaskRequest(0, 10, true)),
            AdmissionCode::kShuttingDown);
  EXPECT_EQ(server.counters().rejected_unknown, 1u);
  EXPECT_EQ(server.counters().rejected_order, 3u);
  EXPECT_EQ(server.counters().rejected_shutdown, 1u);
  EXPECT_EQ(server.counters().answered, 3u);
}

/// One ValidateStreamEvent rule, broken in a request's worker (index 0) or
/// task (index 1) event.
struct InvalidEventCase {
  const char* rule;
  std::function<void(StreamEvent& worker, StreamEvent& task)> corrupt;
};

class InvalidRequestTest : public ::testing::TestWithParam<InvalidEventCase> {
};

TEST_P(InvalidRequestTest, RejectedWithoutATrace) {
  ThreadPool pool(2);
  AssignmentServer server(TinyServer(16, true), TwoCenters(), &pool);
  ServeRequest bad = TaskRequest(0, 0, true);
  GetParam().corrupt(bad.events[0], bad.events[1]);
  EXPECT_EQ(server.Submit(std::move(bad)), AdmissionCode::kInvalidRequest);
  EXPECT_EQ(server.in_flight(), 0u);
  // Tick 0 is still open for admission: the rejection changed nothing.
  EXPECT_EQ(server.Submit(TaskRequest(0, 0, true)), AdmissionCode::kAdmitted);
  server.Drain();
  EXPECT_EQ(server.counters().rejected_invalid, 1u);
  EXPECT_EQ(server.counters().admitted, 1u);
  EXPECT_EQ(server.counters().answered, 1u);
  ASSERT_EQ(server.responses(0).size(), 1u);
  EXPECT_EQ(server.responses(0)[0].shard_seq, 0u);
  EXPECT_EQ(server.responses(0)[0].coalesced_requests, 1u);
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    Rules, InvalidRequestTest,
    ::testing::Values(
        InvalidEventCase{"NonFiniteTime",
                         [](StreamEvent&, StreamEvent& task) {
                           task.time = kNan;
                         }},
        InvalidEventCase{"NonFiniteWorkerLocation",
                         [](StreamEvent& worker, StreamEvent&) {
                           worker.worker.location.y = kInf;
                         }},
        InvalidEventCase{"ZeroMaxDp",
                         [](StreamEvent& worker, StreamEvent&) {
                           worker.worker.max_delivery_points = 0;
                         }},
        InvalidEventCase{"NonFiniteDeparture",
                         [](StreamEvent& worker, StreamEvent&) {
                           worker.departure = -kInf;
                         }},
        InvalidEventCase{"NonFiniteTaskLocation",
                         [](StreamEvent&, StreamEvent& task) {
                           task.location.x = kNan;
                         }},
        InvalidEventCase{"NonFiniteReward",
                         [](StreamEvent&, StreamEvent& task) {
                           task.reward = kNan;
                         }},
        InvalidEventCase{"NegativeReward",
                         [](StreamEvent&, StreamEvent& task) {
                           task.reward = -1.0;
                         }},
        InvalidEventCase{"NonFiniteServiceWindow",
                         [](StreamEvent&, StreamEvent& task) {
                           task.service_window = kInf;
                         }},
        InvalidEventCase{"NonPositiveServiceWindow",
                         [](StreamEvent&, StreamEvent& task) {
                           task.service_window = 0.0;
                         }},
        InvalidEventCase{"NonFiniteQueueExpiry",
                         [](StreamEvent&, StreamEvent& task) {
                           task.queue_expiry = kNan;
                         }}),
    [](const ::testing::TestParamInfo<InvalidEventCase>& param) {
      return std::string(param.param.rule);
    });

TEST(ServeLifecycleTest, CallbackSeesEveryBatchInShardOrder) {
  ThreadPool pool(2);
  AssignmentServer server(TinyServer(16, true), TwoCenters(), &pool);
  Mutex mu;
  std::vector<uint64_t> seqs[2];
  server.set_response_callback([&](const ServeResponse& r) {
    MutexLock lock(&mu);
    seqs[r.center].push_back(r.shard_seq);
  });
  for (uint64_t t = 0; t < 4; ++t) {
    EXPECT_EQ(server.Submit(TaskRequest(0, t, true)), AdmissionCode::kAdmitted);
    EXPECT_EQ(server.Submit(TaskRequest(1, t, true)), AdmissionCode::kAdmitted);
  }
  server.Resume();
  server.Drain();
  for (int c = 0; c < 2; ++c) {
    ASSERT_EQ(seqs[c].size(), 4u);
    for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(seqs[c][i], i);
  }
}

TEST(ServeLifecycleTest, DrainIsIdempotentAndImpliedByDestruction) {
  ThreadPool pool(2);
  AssignmentServer server(TinyServer(16, false), TwoCenters(), &pool);
  EXPECT_EQ(server.Submit(TaskRequest(0, 0, true)), AdmissionCode::kAdmitted);
  server.Drain();
  server.Drain();
  EXPECT_EQ(server.counters().answered, 1u);
  // Destructor drains again — must be a no-op, not a hang or double count.
}

TEST(ServeLifecycleTest, BoundedQueueCloseWakesPoppers) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.TryPush(1), QueuePush::kOk);
  EXPECT_EQ(q.TryPush(2), QueuePush::kOk);
  EXPECT_EQ(q.TryPush(3), QueuePush::kFull);
  q.Close();
  EXPECT_EQ(q.TryPush(4), QueuePush::kClosed);
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.Pop(&v));  // closed and drained: no block, no value
}

TEST(ServeLifecycleTest, UnboundedQueueNeverReportsFull) {
  BoundedQueue<int> q(BoundedQueue<int>::kUnbounded);
  EXPECT_EQ(q.capacity(), BoundedQueue<int>::kUnbounded);
  for (int i = 0; i < 4096; ++i) ASSERT_EQ(q.TryPush(i), QueuePush::kOk);
  int v = -1;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 0);
  q.Close();
  EXPECT_EQ(q.TryPush(0), QueuePush::kClosed);
}

// Regression for the stale-token overflow: a runner drains every ready
// batch of its shard under the FIRST token it pops, so the sibling
// batches' tokens stay queued after those requests already left
// in_flight_. When the token queue's capacity was tied to
// queue_capacity, the admissions those freed slots allow would overflow
// it and abort the process. Hammer that exact pattern — one runner, a
// tiny admission bound, one hot center, retry-on-full — and require
// every admitted request answered.
TEST(ServeLifecycleTest, StaleTokensDoNotBreakAdmissionAccounting) {
  ThreadPool pool(1);
  ServerConfig config = TinyServer(/*queue_capacity=*/2, false);
  config.num_threads = 1;
  AssignmentServer server(config, TwoCenters(), &pool);
  uint64_t admitted = 0;
  // 32 ticks: enough drain-all rounds to pile up stale tokens many times
  // over, while the shard's accumulating instance stays cheap to solve.
  for (uint64_t tick = 0; tick < 32; ++tick) {
    AdmissionCode code;
    while ((code = server.Submit(TaskRequest(0, tick, true))) ==
           AdmissionCode::kQueueFull) {
      // Yield, or this retry loop re-acquires admit_mu_ so hot that the
      // lone runner starves and in_flight_ never comes down.
      std::this_thread::yield();
    }
    ASSERT_EQ(code, AdmissionCode::kAdmitted);
    ++admitted;
  }
  server.Drain();
  EXPECT_EQ(server.counters().admitted, admitted);
  EXPECT_EQ(server.counters().answered, admitted);
  EXPECT_EQ(server.responses(0).size(), admitted);  // one sealed batch each
}

// Submit racing Drain is a supported interleaving (kShuttingDown is a
// legal answer): an admitted Submit pushes its token under admit_mu_, so
// it can never observe the drain's queue Close(), and its request must
// be answered.
TEST(ServeLifecycleTest, SubmitDuringDrainIsAnsweredOrShed) {
  ThreadPool pool(2);
  AssignmentServer server(TinyServer(8, false), TwoCenters(), &pool);
  std::atomic<uint64_t> admitted{0};
  std::thread producer([&] {
    for (uint64_t tick = 0; tick < 400; ++tick) {
      const AdmissionCode code = server.Submit(TaskRequest(0, tick, true));
      if (code == AdmissionCode::kShuttingDown) return;
      if (code == AdmissionCode::kAdmitted) ++admitted;
      // kQueueFull: skip to the next tick (rejections leave no state, so
      // the tick numbers stay admissible).
    }
  });
  server.Drain();
  producer.join();
  EXPECT_EQ(server.counters().admitted, admitted.load());
  EXPECT_EQ(server.counters().answered, admitted.load());
}

// Concurrent Drain calls (e.g. an explicit Drain racing the
// destructor's) must run the drain sequence exactly once: one owner
// runs it, the other waits for completion, and the final counters
// publish to the registry once.
TEST(ServeLifecycleTest, ConcurrentDrainRunsTheSequenceOnce) {
  obs::Counter& drains =
      obs::MetricsRegistry::Global().GetCounter("serve/drains");
  const uint64_t before = drains.Value();
  {
    ThreadPool pool(2);
    AssignmentServer server(TinyServer(16, false), TwoCenters(), &pool);
    EXPECT_EQ(server.Submit(TaskRequest(0, 0, true)),
              AdmissionCode::kAdmitted);
    std::thread other([&] { server.Drain(); });
    server.Drain();
    other.join();
    EXPECT_EQ(server.counters().answered, 1u);
    // The destructor drains a third time — a waiter-side no-op by then.
  }
  EXPECT_EQ(drains.Value() - before, 1u);
}

TEST(ServeLifecycleTest, PrometheusPageContainsShardWindows) {
  ThreadPool pool(2);
  AssignmentServer server(TinyServer(16, false), TwoCenters(), &pool);
  EXPECT_EQ(server.Submit(TaskRequest(0, 0, true)), AdmissionCode::kAdmitted);
  server.Drain();
  const std::string page = server.PrometheusText();
  EXPECT_NE(page.find("serve_shard0_solve_ms"), std::string::npos);
  EXPECT_NE(page.find("serve_shard1_solve_ms"), std::string::npos);
  EXPECT_NE(page.find("fta_serve_admitted_total"), std::string::npos);
}

}  // namespace
}  // namespace fta

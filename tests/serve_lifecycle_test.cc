#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "datagen/city.h"
#include "obs/metrics.h"
#include "serve/replay.h"
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

/// The ValidateStreamEvent rules a request's worker (index 0) or task
/// (index 1) event can break.
enum class BrokenRule : uint64_t {
  kNonFiniteTime,
  kNonFiniteWorkerLocation,
  kZeroMaxDp,
  kNonFiniteDeparture,
  kNonFiniteTaskLocation,
  kNonFiniteReward,
  kNegativeReward,
  kNonFiniteServiceWindow,
  kNonPositiveServiceWindow,
  kNonFiniteQueueExpiry,
};

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

void Break(BrokenRule rule, StreamEvent& worker, StreamEvent& task) {
  switch (rule) {
    case BrokenRule::kNonFiniteTime: task.time = kNan; return;
    case BrokenRule::kNonFiniteWorkerLocation:
      worker.worker.location.y = kInf;
      return;
    case BrokenRule::kZeroMaxDp: worker.worker.max_delivery_points = 0; return;
    case BrokenRule::kNonFiniteDeparture: worker.departure = -kInf; return;
    case BrokenRule::kNonFiniteTaskLocation: task.location.x = kNan; return;
    case BrokenRule::kNonFiniteReward: task.reward = kNan; return;
    case BrokenRule::kNegativeReward: task.reward = -1.0; return;
    case BrokenRule::kNonFiniteServiceWindow:
      task.service_window = kInf;
      return;
    case BrokenRule::kNonPositiveServiceWindow:
      task.service_window = 0.0;
      return;
    case BrokenRule::kNonFiniteQueueExpiry: task.queue_expiry = kNan; return;
  }
}

/// One case: a broken rule and the name its test runs under. Plain bytes,
/// no pointers: gtest prints a parameter it has no printer for as its raw
/// bytes, that dump is part of each discovered ctest name, and an address
/// in it (a string literal, a std::function's code pointers) would give
/// the case a new name on every run.
struct InvalidEventCase {
  char name[32];
  BrokenRule rule;
};
static_assert(std::has_unique_object_representations_v<InvalidEventCase>,
              "padding bytes would make the printed parameter vary");

class InvalidRequestTest : public ::testing::TestWithParam<InvalidEventCase> {
};

TEST_P(InvalidRequestTest, RejectedWithoutATrace) {
  ThreadPool pool(2);
  AssignmentServer server(TinyServer(16, true), TwoCenters(), &pool);
  ServeRequest bad = TaskRequest(0, 0, true);
  Break(GetParam().rule, bad.events[0], bad.events[1]);
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

INSTANTIATE_TEST_SUITE_P(
    Rules, InvalidRequestTest,
    ::testing::Values(
        InvalidEventCase{"NonFiniteTime", BrokenRule::kNonFiniteTime},
        InvalidEventCase{"NonFiniteWorkerLocation",
                         BrokenRule::kNonFiniteWorkerLocation},
        InvalidEventCase{"ZeroMaxDp", BrokenRule::kZeroMaxDp},
        InvalidEventCase{"NonFiniteDeparture", BrokenRule::kNonFiniteDeparture},
        InvalidEventCase{"NonFiniteTaskLocation",
                         BrokenRule::kNonFiniteTaskLocation},
        InvalidEventCase{"NonFiniteReward", BrokenRule::kNonFiniteReward},
        InvalidEventCase{"NegativeReward", BrokenRule::kNegativeReward},
        InvalidEventCase{"NonFiniteServiceWindow",
                         BrokenRule::kNonFiniteServiceWindow},
        InvalidEventCase{"NonPositiveServiceWindow",
                         BrokenRule::kNonPositiveServiceWindow},
        InvalidEventCase{"NonFiniteQueueExpiry",
                         BrokenRule::kNonFiniteQueueExpiry}),
    [](const ::testing::TestParamInfo<InvalidEventCase>& param) {
      return std::string(param.param.name);
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

// Admission accounting under a tiny bound: one runner, capacity 2, one hot
// center, retry-on-full. Every answered batch frees its requests'
// in-flight slots before the next admission can take them, and the
// dispatch heap holds each center at most once however many of its
// batches are sealed, so no structure outgrows the bound's accounting.
// Every admitted request must be answered.
TEST(ServeLifecycleTest, StaleTokensDoNotBreakAdmissionAccounting) {
  ThreadPool pool(1);
  ServerConfig config = TinyServer(/*queue_capacity=*/2, false);
  config.num_threads = 1;
  AssignmentServer server(config, TwoCenters(), &pool);
  uint64_t admitted = 0;
  // 32 ticks: many fill-and-free rounds of the bound, while the shard's
  // accumulating instance stays cheap to solve.
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
// legal answer): Submit seals and schedules its batch under the same
// admit_mu_ that Drain flips draining_ under, so an admitted request is
// always in flight before the drain waits for in_flight_ == 0, and must
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
  EXPECT_NE(page.find("fta_serve_wait_ms"), std::string::npos);
}

// The server's own stage clock: a batch's wait (seal to pickup) and its
// tick run one after the other inside its latency (first admission to
// response), all read from one steady clock, so the nesting is exact.
TEST(ServeLifecycleTest, WaitAndTickNestInsideLatency) {
  CityWorkloadConfig city;
  city.num_centers = 3;
  city.center_spacing = 8.0;
  city.tick_period = 0.1;
  city.ticks = 6;
  city.base.tasks.base_rate_per_hour = 40.0;
  city.base.worker_rate_per_hour = 15.0;
  city.base.area_size = 6.0;
  const CityWorkload workload = GenerateCityWorkload(city, 5);
  const ServeTrace trace = BuildServeTrace(workload, 3, 5);
  ThreadPool pool(2);
  std::vector<CenterSpec> centers;
  for (const Point& p : trace.centers) centers.push_back({p});
  AssignmentServer server(TinyServer(16, false), std::move(centers), &pool);
  StatusOr<uint64_t> retries = ReplayTrace(server, trace);
  ASSERT_TRUE(retries.ok()) << retries.status().message();
  server.Drain();
  size_t checked = 0;
  for (uint32_t c = 0; c < server.num_shards(); ++c) {
    for (const ServeResponse& r : server.responses(c)) {
      EXPECT_GE(r.wait_ms, 0.0);
      EXPECT_LE(r.wait_ms + r.stats.tick_ms, r.latency_ms + 1e-6)
          << "center " << c << " tick " << r.tick;
      ++checked;
    }
  }
  EXPECT_EQ(checked, server.counters().batches);
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace fta

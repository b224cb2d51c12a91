#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "serve/request.h"
#include "serve/server.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// The runners' dispatch order (serve/server.h DispatchKey, DESIGN.md §14):
// the oldest tick first, then the lowest expected cost per waiting request,
// then the earliest seal. The key alone as a table, then the rule as one
// runner applies it to a backlog built while that runner is held.

namespace fta {
namespace {

struct OrderCase {
  const char* rule;
  DispatchKey first;
  DispatchKey second;
};

TEST(ServeDispatchTest, KeyOrdersTickThenCostPerRequestThenSeal) {
  const std::vector<OrderCase> cases = {
      {"an older tick wins at any cost", MakeDispatchKey(4, 1e6, 1, 9),
       MakeDispatchKey(5, 0.0, 8, 0)},
      {"2 ms over 4 requests beats 1 ms over 1 request",
       MakeDispatchKey(5, 2.0, 4, 9), MakeDispatchKey(5, 1.0, 1, 0)},
      {"a shard that has never run goes first in its tick",
       MakeDispatchKey(5, 0.0, 1, 9), MakeDispatchKey(5, 0.001, 8, 0)},
      {"equal keys fall back to seal order", MakeDispatchKey(5, 1.0, 2, 3),
       MakeDispatchKey(5, 1.0, 2, 4)},
  };
  for (const OrderCase& c : cases) {
    SCOPED_TRACE(c.rule);
    EXPECT_TRUE(DispatchesBefore(c.first, c.second));
    EXPECT_FALSE(DispatchesBefore(c.second, c.first));
    EXPECT_FALSE(DispatchesBefore(c.first, c.first));
  }
}

constexpr double kPeriod = 0.1;
constexpr uint32_t kExpensive = 0;
constexpr uint32_t kHeld = 1;  // cheap; its tick-1 callback holds the runner
constexpr uint32_t kCheapB = 2;
constexpr uint32_t kCheapC = 3;

/// One worker and one task: a tick that costs microseconds.
ServeRequest CheapRequest(uint32_t center, uint64_t tick) {
  ServeRequest req;
  req.center = center;
  req.tick = tick;
  StreamEvent worker;
  worker.kind = StreamEventKind::kWorkerArrival;
  worker.time = static_cast<double>(tick) * kPeriod;
  worker.worker.location = Point{1.2, 1.2};
  StreamEvent task;
  task.time = worker.time;
  task.location = Point{1.5, 1.5};
  req.events = {worker, task};
  return req;
}

/// Twenty workers among sixty tasks, all within ε of each other: the cold
/// catalog Generate of this tick costs a thousand cheap ticks.
ServeRequest ExpensiveRequest(uint64_t tick) {
  ServeRequest req;
  req.center = kExpensive;
  req.tick = tick;
  Rng rng(17);
  for (int i = 0; i < 80; ++i) {
    StreamEvent ev;
    ev.time = static_cast<double>(tick) * kPeriod;
    const Point p{rng.Uniform(0.0, 3.0), rng.Uniform(0.0, 3.0)};
    if (i % 4 == 0) {
      ev.kind = StreamEventKind::kWorkerArrival;
      ev.worker.location = p;
      ev.worker.max_delivery_points = 3;
    } else {
      ev.location = p;
      ev.service_window = 4.0;
    }
    req.events.push_back(ev);
  }
  return req;
}

TEST(ServeDispatchTest, OneRunnerServesOldestTickCheapestFirst) {
  ThreadPool pool(1);
  ServerConfig config;
  config.num_threads = 1;
  config.queue_capacity = 64;
  config.tick_period = kPeriod;
  config.engine.policy = ResolvePolicy::kWarm;
  config.engine.solver = StreamSolver::kFgt;
  config.engine.vdps.epsilon = 2.0;
  config.engine.vdps.max_set_size = 3;
  config.engine.seed = 3;
  AssignmentServer server(config,
                          {{Point{0.0, 0.0}},
                           {Point{1.0, 1.0}},
                           {Point{1.0, 1.0}},
                           {Point{1.0, 1.0}}},
                          &pool);

  Mutex mu;
  CondVar cv;
  std::vector<std::pair<uint32_t, uint64_t>> order;  // guarded by mu
  std::vector<double> first_tick_ms(4, 0.0);          // guarded by mu
  bool held = false;                                  // guarded by mu
  bool release = false;                               // guarded by mu
  server.set_response_callback([&](const ServeResponse& r) {
    MutexLock lock(&mu);
    order.emplace_back(r.center, r.tick);
    if (r.tick == 0) first_tick_ms[r.center] = r.stats.tick_ms;
    if (r.center == kHeld && r.tick == 1) {
      held = true;
      cv.NotifyAll();
      while (!release) cv.Wait(mu);
    }
    cv.NotifyAll();
  });

  // Every center runs once, so each has a measured cost.
  ASSERT_EQ(server.Submit(ExpensiveRequest(0)), AdmissionCode::kAdmitted);
  for (const uint32_t c : {kHeld, kCheapB, kCheapC}) {
    ASSERT_EQ(server.Submit(CheapRequest(c, 0)), AdmissionCode::kAdmitted);
  }
  {
    MutexLock lock(&mu);
    while (order.size() < 4) cv.Wait(mu);
    const double cheap_min = std::min(
        {first_tick_ms[kHeld], first_tick_ms[kCheapB], first_tick_ms[kCheapC]});
    const double cheap_max = std::max(
        {first_tick_ms[kHeld], first_tick_ms[kCheapB], first_tick_ms[kCheapC]});
    // About 1000x apart by design; the order below needs only the second.
    ASSERT_GE(first_tick_ms[kExpensive], 50.0 * cheap_min);
    ASSERT_GT(first_tick_ms[kExpensive], cheap_max);
  }

  // Hold the lone runner inside the held center's tick-1 callback, and
  // build the backlog behind it.
  ASSERT_EQ(server.Submit(CheapRequest(kHeld, 1)), AdmissionCode::kAdmitted);
  {
    MutexLock lock(&mu);
    while (!held) cv.Wait(mu);
  }
  ServeRequest expensive_next;
  expensive_next.center = kExpensive;
  expensive_next.tick = 1;
  ASSERT_EQ(server.Submit(expensive_next), AdmissionCode::kAdmitted);
  ASSERT_EQ(server.Submit(CheapRequest(kCheapB, 1)), AdmissionCode::kAdmitted);
  ASSERT_EQ(server.Submit(CheapRequest(kCheapC, 1)), AdmissionCode::kAdmitted);
  ASSERT_EQ(server.Submit(CheapRequest(kCheapB, 2)), AdmissionCode::kAdmitted);
  {
    MutexLock lock(&mu);
    release = true;
    cv.NotifyAll();
  }
  server.Drain();

  MutexLock lock(&mu);
  ASSERT_EQ(order.size(), 9u);
  auto at = [&](uint32_t center, uint64_t tick) {
    return std::find(order.begin(), order.end(),
                     std::make_pair(center, tick)) -
           order.begin();
  };
  EXPECT_LT(at(kCheapB, 1), at(kExpensive, 1));
  EXPECT_LT(at(kCheapC, 1), at(kExpensive, 1));
  EXPECT_LT(at(kExpensive, 1), at(kCheapB, 2));
}

}  // namespace
}  // namespace fta

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stream/dispatcher.h"
#include "stream/events.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/status.h"

// Property / fuzz battery for the streaming dispatcher: seeded random event
// sequences with adversarial shapes — bursty arrivals, mass expirations
// (many elements sharing one deadline), empty ticks, workers departing
// while holding an assignment — stepped tick by tick with catalog and
// assignment invariants checked at every boundary.

namespace fta {
namespace {

StreamConfig FuzzStream(uint64_t seed) {
  StreamConfig config;
  config.engine.center = Point{5.0, 5.0};
  config.tick_period = 1.0;
  config.max_ticks = 12;
  config.engine.policy = ResolvePolicy::kWarm;
  config.engine.vdps.epsilon = 3.0;
  config.engine.vdps.max_set_size = 3;
  config.engine.seed = seed;
  return config;
}

StreamEvent TaskAt(double time, Point location, double queue_expiry,
                   double service_window = 1.5, double reward = 1.0) {
  StreamEvent ev;
  ev.time = time;
  ev.kind = StreamEventKind::kTaskArrival;
  ev.location = location;
  ev.reward = reward;
  ev.queue_expiry = queue_expiry;
  ev.service_window = service_window;
  return ev;
}

StreamEvent WorkerAt(double time, Point location, double departure,
                     uint32_t max_dp = 3) {
  StreamEvent ev;
  ev.time = time;
  ev.kind = StreamEventKind::kWorkerArrival;
  ev.worker = Worker{location, max_dp};
  ev.departure = departure;
  return ev;
}

/// Seeded adversarial sequence: quiet stretches, bursts, and mass expiry
/// cliffs where a whole burst shares one deadline.
std::vector<StreamEvent> FuzzEvents(uint64_t seed, size_t max_ticks) {
  Rng rng(seed);
  std::vector<StreamEvent> events;
  const double horizon = static_cast<double>(max_ticks);
  for (double t = 0.0; t < horizon; t += 1.0) {
    if (rng.Bernoulli(0.25)) continue;  // empty tick: no arrivals at all
    const bool burst = rng.Bernoulli(0.3);
    const bool cliff = burst && rng.Bernoulli(0.5);
    const double cliff_expiry =
        t + 1.0 + static_cast<double>(rng.Index(3));  // shared deadline
    const size_t n_tasks = burst ? 6 + rng.Index(6) : rng.Index(3);
    for (size_t i = 0; i < n_tasks; ++i) {
      const double expiry =
          cliff ? cliff_expiry : t + 0.5 + 3.0 * rng.NextDouble();
      events.push_back(TaskAt(t + rng.NextDouble(),
                              Point{rng.Uniform(0.0, 10.0),
                                    rng.Uniform(0.0, 10.0)},
                              expiry, 0.5 + rng.NextDouble(),
                              1.0 + 4.0 * rng.NextDouble()));
    }
    const size_t n_workers = rng.Index(3);
    for (size_t i = 0; i < n_workers; ++i) {
      // Short dwells: workers routinely depart while holding a route.
      events.push_back(WorkerAt(t + rng.NextDouble(),
                                Point{rng.Uniform(0.0, 10.0),
                                      rng.Uniform(0.0, 10.0)},
                                t + 1.0 + 4.0 * rng.NextDouble(),
                                2 + static_cast<uint32_t>(rng.Index(3))));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const StreamEvent& a, const StreamEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

/// Steps the full run, asserting tick-boundary invariants: the instance,
/// the (possibly delta-patched) catalog, and the standing assignment all
/// validate against each other after every tick.
void StepAndCheck(StreamDispatcher& dispatcher) {
  while (!dispatcher.Done()) {
    const Status s = dispatcher.Step();
    ASSERT_TRUE(s.ok()) << s.message();
    ASSERT_TRUE(dispatcher.instance().Validate().ok());
    const Status catalog_ok =
        dispatcher.catalog().ValidateInvariants(dispatcher.instance());
    ASSERT_TRUE(catalog_ok.ok()) << catalog_ok.message();
    const Status assignment_ok =
        dispatcher.last_assignment().Validate(dispatcher.instance());
    ASSERT_TRUE(assignment_ok.ok()) << assignment_ok.message();
    const TickStats& ts = dispatcher.last_tick();
    EXPECT_EQ(ts.num_workers, dispatcher.instance().num_workers());
    EXPECT_EQ(ts.num_dps, dispatcher.instance().num_delivery_points());
  }
}

TEST(StreamChurnTest, FuzzedEventSequencesKeepInvariants) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    StreamConfig config = FuzzStream(seed);
    StreamDispatcher dispatcher(config, FuzzEvents(seed * 77, config.max_ticks));
    StepAndCheck(dispatcher);
    const StreamCounters& c = dispatcher.counters();
    EXPECT_EQ(c.ticks, config.max_ticks);
    EXPECT_EQ(c.regens + c.deltas, c.ticks);
    // Conservation: everything that arrived either left or is still live.
    EXPECT_EQ(c.tasks_arrived - c.tasks_expired,
              dispatcher.instance().num_delivery_points());
    EXPECT_EQ(c.workers_arrived - c.workers_departed,
              dispatcher.instance().num_workers());
  }
}

TEST(StreamChurnTest, EmptyStreamRunsAllTicks) {
  StreamConfig config = FuzzStream(1);
  StreamDispatcher dispatcher(config, {});
  StepAndCheck(dispatcher);
  EXPECT_EQ(dispatcher.counters().ticks, config.max_ticks);
  EXPECT_EQ(dispatcher.instance().num_workers(), 0u);
  EXPECT_EQ(dispatcher.instance().num_delivery_points(), 0u);
}

TEST(StreamChurnTest, MassExpiryCliffEmptiesTheQueue) {
  // A burst of tasks and workers all share deadline 3.0: tick 3 must see
  // the whole population leave at once and keep a valid (empty) state.
  std::vector<StreamEvent> events;
  for (int i = 0; i < 8; ++i) {
    events.push_back(
        TaskAt(0.25, Point{1.0 + 0.5 * i, 2.0}, /*queue_expiry=*/3.0));
  }
  for (int i = 0; i < 3; ++i) {
    events.push_back(
        WorkerAt(0.5, Point{2.0 + i, 3.0}, /*departure=*/3.0));
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const StreamEvent& a, const StreamEvent& b) {
                     return a.time < b.time;
                   });
  StreamConfig config = FuzzStream(2);
  config.max_ticks = 5;
  StreamDispatcher dispatcher(config, std::move(events));
  StepAndCheck(dispatcher);
  const StreamCounters& c = dispatcher.counters();
  EXPECT_EQ(c.tasks_expired, 8u);
  EXPECT_EQ(c.workers_departed, 3u);
  EXPECT_EQ(dispatcher.instance().num_workers(), 0u);
  EXPECT_EQ(dispatcher.instance().num_delivery_points(), 0u);
}

TEST(StreamChurnTest, ExpiryExactlyOnTickBoundaryIsGone) {
  // Half-open [arrival, expiry): a task with queue_expiry == 2.0 is NOT
  // live at tick time 2.0 — exact comparison, no epsilon.
  std::vector<StreamEvent> events = {
      TaskAt(0.1, Point{4.0, 5.0}, /*queue_expiry=*/2.0),
      TaskAt(0.1, Point{5.0, 4.0}, /*queue_expiry=*/2.0 + 1e-9),
      WorkerAt(0.1, Point{5.0, 5.0}, /*departure=*/kInfinity),
  };
  StreamConfig config = FuzzStream(3);
  config.max_ticks = 3;
  StreamDispatcher dispatcher(config, std::move(events));
  // Ticks 0, 1: both tasks live.
  ASSERT_TRUE(dispatcher.Step().ok());
  ASSERT_TRUE(dispatcher.Step().ok());
  EXPECT_EQ(dispatcher.instance().num_delivery_points(), 2u);
  // Tick 2 (time 2.0): the on-boundary task is gone, the 1e-9-later one
  // survives.
  ASSERT_TRUE(dispatcher.Step().ok());
  EXPECT_EQ(dispatcher.instance().num_delivery_points(), 1u);
  EXPECT_EQ(dispatcher.counters().tasks_expired, 1u);
}

TEST(StreamChurnTest, WorkerRemovedMidEquilibrationReleasesItsSet) {
  // One worker equilibrates onto tasks, then departs while the tasks stay:
  // the next tick must re-solve without it and the survivor must pick the
  // set up (it is the only remaining worker).
  std::vector<StreamEvent> events = {
      WorkerAt(0.0, Point{5.0, 5.0}, /*departure=*/2.0),
      WorkerAt(0.0, Point{6.0, 5.0}, /*departure=*/kInfinity),
      TaskAt(0.0, Point{5.0, 6.0}, /*queue_expiry=*/kInfinity,
             /*service_window=*/4.0),
  };
  StreamConfig config = FuzzStream(4);
  config.max_ticks = 4;
  StreamDispatcher dispatcher(config, std::move(events));
  StepAndCheck(dispatcher);
  EXPECT_EQ(dispatcher.counters().workers_departed, 1u);
  EXPECT_EQ(dispatcher.instance().num_workers(), 1u);
  // The task outlives the departed worker and stays assignable.
  EXPECT_EQ(dispatcher.instance().num_delivery_points(), 1u);
  EXPECT_EQ(dispatcher.last_assignment().num_covered_delivery_points(), 1u);
}

TEST(StreamChurnTest, DeadOnArrivalElementsNeverEnterTheInstance) {
  // Deadline at or before the first tick that would ingest them.
  std::vector<StreamEvent> events = {
      TaskAt(0.2, Point{4.0, 4.0}, /*queue_expiry=*/0.7),   // dies before t=1
      TaskAt(0.2, Point{6.0, 6.0}, /*queue_expiry=*/kInfinity),
      WorkerAt(0.3, Point{5.0, 5.0}, /*departure=*/1.0),    // dies AT t=1
  };
  StreamConfig config = FuzzStream(5);
  config.max_ticks = 3;
  StreamDispatcher dispatcher(config, std::move(events));
  // Tick 0 at time 0.0 ingests nothing (all arrivals are after 0.0).
  ASSERT_TRUE(dispatcher.Step().ok());
  EXPECT_EQ(dispatcher.instance().num_workers(), 0u);
  // Tick 1 at time 1.0: the short-lived task and the departure-at-1.0
  // worker are already dead on ingest.
  ASSERT_TRUE(dispatcher.Step().ok());
  EXPECT_EQ(dispatcher.instance().num_workers(), 0u);
  EXPECT_EQ(dispatcher.instance().num_delivery_points(), 1u);
  const StreamCounters& c = dispatcher.counters();
  EXPECT_EQ(c.tasks_arrived, 2u);
  EXPECT_EQ(c.tasks_expired, 1u);
  EXPECT_EQ(c.workers_arrived, 1u);
  EXPECT_EQ(c.workers_departed, 1u);
}

}  // namespace
}  // namespace fta

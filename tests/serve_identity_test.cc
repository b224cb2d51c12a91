#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "datagen/city.h"
#include "serve/replay.h"
#include "serve/request.h"
#include "serve/server.h"
#include "util/status.h"
#include "util/thread_pool.h"

// Sharded ≡ sequential differential battery for the assignment server.
//
// The server's contract (serve/server.h §determinism): per-center digests
// and response streams are bit-identical to the sequential reference loop
// at any runner-thread count. The battery replays the same synthesized
// city through servers at 1, 2, and 8 runners and through
// RunSequentialReference, across seeds × solvers, comparing every
// response field the reference defines (tick, shard_seq, coalesced
// requests, first_global_seq, running digest) — not just the final
// digest, so a transient divergence that later re-converges still fails.

namespace fta {
namespace {

CityWorkloadConfig SmallCity() {
  CityWorkloadConfig city;
  city.num_centers = 3;
  city.center_spacing = 8.0;
  city.rate_sigma = 0.5;
  city.tick_period = 0.1;
  city.ticks = 5;
  city.base.tasks.base_rate_per_hour = 40.0;
  city.base.tasks.peak_hours = {0.25};
  city.base.worker_rate_per_hour = 15.0;
  city.base.area_size = 6.0;
  city.base.mean_worker_dwell_hours = 0.5;
  city.base.mean_task_patience_hours = 0.4;
  return city;
}

ServerConfig SmallServer(uint64_t seed, size_t threads, StreamSolver solver) {
  ServerConfig config;
  config.num_threads = threads;
  config.queue_capacity = 64;
  config.tick_period = 0.1;
  config.engine.policy = ResolvePolicy::kWarm;
  config.engine.solver = solver;
  config.engine.vdps.epsilon = 2.0;
  config.engine.vdps.max_set_size = 3;
  config.engine.seed = seed;
  config.engine.digest_catalog = true;
  return config;
}

void ExpectMatchesReference(const AssignmentServer& server,
                            const ReferenceResult& ref, uint64_t seed,
                            size_t threads, StreamSolver solver) {
  for (uint32_t c = 0; c < server.num_shards(); ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "center=" << c << " seed=" << seed
                 << " threads=" << threads
                 << " solver=" << StreamSolverName(solver));
    EXPECT_EQ(server.shard_digest(c), ref.digests[c]);
    const std::vector<ServeResponse>& got = server.responses(c);
    const std::vector<ServeResponse>& want = ref.responses[c];
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].tick, want[i].tick);
      EXPECT_EQ(got[i].shard_seq, want[i].shard_seq);
      EXPECT_EQ(got[i].first_global_seq, want[i].first_global_seq);
      EXPECT_EQ(got[i].coalesced_requests, want[i].coalesced_requests);
      EXPECT_EQ(got[i].shard_digest, want[i].shard_digest);
    }
  }
}

TEST(ServeIdentityTest, ShardedEqualsSequentialAcrossSeedsThreadsSolvers) {
  ThreadPool pool(8);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const CityWorkload city = GenerateCityWorkload(SmallCity(), seed * 1000);
    const ServeTrace trace = BuildServeTrace(city, /*max_requests_per_tick=*/3,
                                             /*seed=*/seed);
    for (const StreamSolver solver :
         {StreamSolver::kFgt, StreamSolver::kIegt}) {
      const ReferenceResult ref =
          RunSequentialReference(SmallServer(seed, 1, solver), trace);
      ASSERT_EQ(ref.responses.size(), city.centers.size());
      for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        std::vector<CenterSpec> centers;
        for (const Point& p : city.centers) centers.push_back({p});
        AssignmentServer server(SmallServer(seed, threads, solver),
                                std::move(centers), &pool);
        StatusOr<uint64_t> retries = ReplayTrace(server, trace);
        ASSERT_TRUE(retries.ok()) << retries.status().message();
        server.Drain();
        EXPECT_EQ(server.counters().answered, server.counters().admitted);
        EXPECT_EQ(server.counters().batches, ref.batches);
        ExpectMatchesReference(server, ref, seed, threads, solver);
      }
    }
  }
}

// More centers than runners, every request admitted before the runners
// start: the dispatch heap is deep from the first pickup, so the runners
// interleave centers by tick and cost from the outset.
TEST(ServeIdentityTest, DeepReadySetMatchesSequential) {
  CityWorkloadConfig shape = SmallCity();
  shape.num_centers = 7;
  const CityWorkload city = GenerateCityWorkload(shape, 4242);
  const ServeTrace trace = BuildServeTrace(city, 3, 42);
  ServerConfig config = SmallServer(42, 2, StreamSolver::kFgt);
  config.queue_capacity = trace.requests.size();
  config.start_paused = true;
  const ReferenceResult ref = RunSequentialReference(config, trace);
  ThreadPool pool(2);
  std::vector<CenterSpec> centers;
  for (const Point& p : city.centers) centers.push_back({p});
  AssignmentServer server(config, std::move(centers), &pool);
  StatusOr<uint64_t> retries = ReplayTrace(server, trace);
  ASSERT_TRUE(retries.ok()) << retries.status().message();
  EXPECT_EQ(*retries, 0u);
  EXPECT_EQ(server.in_flight(), trace.requests.size());
  server.Resume();
  server.Drain();
  EXPECT_EQ(server.counters().batches, ref.batches);
  ExpectMatchesReference(server, ref, 42, 2, StreamSolver::kFgt);
}

TEST(ServeIdentityTest, TraceRoundTripsThroughCsv) {
  const CityWorkload city = GenerateCityWorkload(SmallCity(), 77);
  const ServeTrace trace = BuildServeTrace(city, 3, 7);
  StatusOr<ServeTrace> loaded =
      DeserializeServeTrace(SerializeServeTrace(trace));
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded->centers.size(), trace.centers.size());
  ASSERT_EQ(loaded->requests.size(), trace.requests.size());
  // Round-tripped traffic must solve to the same digests (bitwise doubles
  // survive the %.17g round-trip).
  const ServerConfig config = SmallServer(3, 1, StreamSolver::kFgt);
  const ReferenceResult a = RunSequentialReference(config, trace);
  const ReferenceResult b = RunSequentialReference(config, *loaded);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.batches, b.batches);
}

TEST(ServeIdentityTest, ShardSeedsAreDecorrelated) {
  const ServerConfig config = SmallServer(9, 1, StreamSolver::kFgt);
  const TickEngineConfig a = ShardEngineConfig(config, 0, Point{0.0, 0.0});
  const TickEngineConfig b = ShardEngineConfig(config, 1, Point{0.0, 0.0});
  EXPECT_NE(a.seed, b.seed);
  // And deterministic: the reference loop must derive the same seeds.
  const TickEngineConfig a2 = ShardEngineConfig(config, 0, Point{0.0, 0.0});
  EXPECT_EQ(a.seed, a2.seed);
}

}  // namespace
}  // namespace fta

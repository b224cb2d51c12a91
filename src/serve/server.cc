#include "serve/server.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace fta {
namespace {

/// Registry-resident batch sketches (process-lifetime, lock-free writes
/// from any runner thread; magic-static init is thread-safe).
void ObserveBatch(const ServeResponse& r) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::QuantileSketch& latency = reg.GetSketch("serve/latency_ms", 0.01);
  static obs::QuantileSketch& solve = reg.GetSketch("serve/solve_ms", 0.01);
  static obs::QuantileSketch& coalesced =
      reg.GetSketch("serve/batch_requests", 0.01);
  latency.Observe(r.latency_ms);
  solve.Observe(r.stats.solve_ms);
  coalesced.Observe(static_cast<double>(r.coalesced_requests));
}

/// Mirrors a drained server's aggregates into the metrics registry.
void PublishServe(const ServeCounters& c) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter& drains = reg.GetCounter("serve/drains");
  static obs::Counter& admitted = reg.GetCounter("serve/admitted");
  static obs::Counter& rejected_full = reg.GetCounter("serve/rejected_full");
  static obs::Counter& rejected_shutdown =
      reg.GetCounter("serve/rejected_shutdown");
  static obs::Counter& rejected_unknown =
      reg.GetCounter("serve/rejected_unknown");
  static obs::Counter& rejected_order = reg.GetCounter("serve/rejected_order");
  static obs::Counter& rejected_invalid =
      reg.GetCounter("serve/rejected_invalid");
  static obs::Counter& batches = reg.GetCounter("serve/batches");
  static obs::Counter& answered = reg.GetCounter("serve/answered");
  static obs::Counter& assignments = reg.GetCounter("serve/assignments");
  static obs::Counter& rounds = reg.GetCounter("serve/solver_rounds");
  drains.Increment();
  admitted.Add(c.admitted);
  rejected_full.Add(c.rejected_full);
  rejected_shutdown.Add(c.rejected_shutdown);
  rejected_unknown.Add(c.rejected_unknown);
  rejected_order.Add(c.rejected_order);
  rejected_invalid.Add(c.rejected_invalid);
  batches.Add(c.batches);
  answered.Add(c.answered);
  assignments.Add(c.assignments);
  rounds.Add(c.solver_rounds);
}

#ifdef __linux__
int CurrentCpu() { return sched_getcpu(); }

/// Moves the calling runner once onto the k-th allowed CPU after `home`
/// (the CPU of the thread that launched the runners), then restores its
/// affinity mask: a placement, not a pin. Where the kernel does not balance
/// load (cpuset.sched_load_balance = 0) pool threads stay on their
/// creator's CPU, so every runner would share the admitting thread's CPU
/// and a Submit burst would wait behind the solves it wakes. Best effort.
void PlaceRunner(size_t k, int home) {
  cpu_set_t allowed;
  if (home < 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2) {
    return;
  }
  size_t cpu = static_cast<size_t>(home);
  for (size_t steps = k + 1; steps > 0;) {
    cpu = (cpu + 1) % static_cast<size_t>(CPU_SETSIZE);
    if (CPU_ISSET(cpu, &allowed)) --steps;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
}
#else
int CurrentCpu() { return -1; }
void PlaceRunner(size_t, int) {}
#endif

}  // namespace

const char* AdmissionCodeName(AdmissionCode code) {
  switch (code) {
    case AdmissionCode::kAdmitted:
      return "admitted";
    case AdmissionCode::kQueueFull:
      return "queue-full";
    case AdmissionCode::kShuttingDown:
      return "shutting-down";
    case AdmissionCode::kUnknownCenter:
      return "unknown-center";
    case AdmissionCode::kOutOfOrder:
      return "out-of-order";
    case AdmissionCode::kInvalidRequest:
      return "invalid-request";
  }
  return "unknown";
}

TickEngineConfig ShardEngineConfig(const ServerConfig& config, uint32_t shard,
                                   const Point& location) {
  TickEngineConfig e = config.engine;
  e.center = location;
  // Decorrelate the shards' per-tick solver seeds (the reference loop
  // derives the identical value, so sharded ≡ sequential holds).
  e.seed =
      SplitMix64(config.engine.seed ^
                 (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(shard) + 1)))
          .Next();
  // Shard-level concurrency is the server's parallelism axis; the engines
  // themselves stay serial (runners already execute on the pool, and a
  // nested fan-out from a pool worker could deadlock RunBatch).
  e.vdps.num_threads = 1;
  e.vdps.pool = nullptr;
  e.fgt.engine.num_threads = 1;
  e.fgt.engine.pool = nullptr;
  e.iegt.engine.num_threads = 1;
  e.iegt.engine.pool = nullptr;
  return e;
}

/// One center's shard: the open/ready batch state behind `mu`, and the
/// tick engine behind `solve_mu` (held for the duration of a solve; the
/// busy protocol keeps it uncontended — at most one runner per shard).
struct AssignmentServer::Shard {
  Shard(TickEngineConfig cfg, size_t window_batches)
      : engine(std::move(cfg)), solve_window(window_batches) {}

  struct Batch {
    uint64_t tick = 0;
    uint64_t first_global_seq = 0;
    size_t requests = 0;
    std::vector<StreamEvent> events;
    /// Started at first admission; read at response emission (latency).
    Stopwatch admitted;
  };

  Mutex mu;
  /// Sealed batches awaiting a runner, FIFO in seal (= admission) order.
  std::deque<Batch> ready FTA_GUARDED_BY(mu);
  /// The coalescing batch of the center's current tick.
  Batch open FTA_GUARDED_BY(mu);
  bool open_active FTA_GUARDED_BY(mu) = false;
  /// At most one runner drains `ready` at a time — with FIFO pop order
  /// this serializes the shard's timeline however many runner threads the
  /// server has.
  bool busy FTA_GUARDED_BY(mu) = false;
  uint64_t batches_done FTA_GUARDED_BY(mu) = 0;
  uint64_t digest FTA_GUARDED_BY(mu) = 0;
  std::vector<ServeResponse> responses FTA_GUARDED_BY(mu);

  Mutex solve_mu;
  TickEngine engine FTA_GUARDED_BY(solve_mu);
  /// Rolling solve-latency window (internally locked).
  obs::RollingWindow solve_window;
};

AssignmentServer::AssignmentServer(ServerConfig config,
                                   std::vector<CenterSpec> centers,
                                   ThreadPool* pool)
    : config_(std::move(config)),
      pool_(pool),
      // Unbounded on purpose: a runner drains its whole shard FIFO under
      // one token, so sibling tokens go stale and outlive the in-flight
      // accounting that bounds *requests* — tying the token queue's
      // capacity to queue_capacity would overflow on such stale tokens.
      batch_queue_(BoundedQueue<uint32_t>::kUnbounded) {
  if (config_.num_threads == 0) config_.num_threads = 1;
  FTA_CHECK_MSG(pool_ != nullptr, "AssignmentServer requires a ThreadPool");
  FTA_CHECK_MSG(pool_->num_threads() >= config_.num_threads,
                "the injected pool must have >= config.num_threads threads");
  FTA_CHECK_MSG(!centers.empty(), "AssignmentServer requires >= 1 center");
  shards_.reserve(centers.size());
  for (uint32_t c = 0; c < centers.size(); ++c) {
    shards_.push_back(std::make_unique<Shard>(
        ShardEngineConfig(config_, c, centers[c].location),
        config_.window_batches));
  }
  admit_.assign(centers.size(), AdmitState{});
  if (!config_.start_paused) Resume();
}

AssignmentServer::~AssignmentServer() { Drain(); }

AdmissionCode AssignmentServer::Submit(ServeRequest request) {
  const uint32_t center = request.center;
  const bool seal = request.final_in_tick;
  // Validated before the admission mutex: a bad event must be rejected
  // here, never reach a shard's TickEngine.
  const bool valid =
      std::all_of(request.events.begin(), request.events.end(),
                  [](const StreamEvent& ev) {
                    return ValidateStreamEvent(ev).ok();
                  });
  MutexLock lock(&admit_mu_);
  if (!valid) {
    ++counters_.rejected_invalid;
    return AdmissionCode::kInvalidRequest;
  }
  if (draining_) {
    ++counters_.rejected_shutdown;
    return AdmissionCode::kShuttingDown;
  }
  if (center >= shards_.size()) {
    ++counters_.rejected_unknown;
    return AdmissionCode::kUnknownCenter;
  }
  AdmitState& as = admit_[center];
  const bool in_order = as.open ? request.tick == as.open_tick
                                : request.tick >= as.min_tick;
  if (!in_order) {
    ++counters_.rejected_order;
    return AdmissionCode::kOutOfOrder;
  }
  if (in_flight_ >= config_.queue_capacity) {
    ++counters_.rejected_full;
    return AdmissionCode::kQueueFull;
  }
  // Admitted. Sequence and batch membership are fixed here, under the
  // admission mutex, in Submit call order — the determinism linchpin.
  ++in_flight_;
  ++counters_.admitted;
  const uint64_t gseq = global_seq_++;
  if (!as.open) {
    as.open = true;
    as.open_tick = request.tick;
  }
  if (seal) {
    as.open = false;
    as.min_tick = request.tick + 1;
  }
  Shard& s = *shards_[center];
  {
    MutexLock slock(&s.mu);
    if (!s.open_active) {
      s.open = Shard::Batch();
      s.open.tick = request.tick;
      s.open.first_global_seq = gseq;
      s.open_active = true;
    }
    ++s.open.requests;
    for (StreamEvent& ev : request.events) {
      s.open.events.push_back(std::move(ev));
    }
    if (seal) {
      s.ready.push_back(std::move(s.open));
      s.open = Shard::Batch();
      s.open_active = false;
    }
  }
  if (seal) {
    // Pushed while still holding admit_mu_: Drain() flips draining_ under
    // this mutex strictly before it can Close() the queue, and this thread
    // observed draining_ == false above, so kClosed is unreachable; the
    // token queue is unbounded, so kFull is too.
    const QueuePush r = batch_queue_.TryPush(center);
    FTA_CHECK_MSG(r == QueuePush::kOk,
                  "token push failed under the admission lock");
  }
  return AdmissionCode::kAdmitted;
}

void AssignmentServer::Resume() {
  size_t launch = 0;
  {
    MutexLock lock(&admit_mu_);
    if (!started_) {
      started_ = true;
      runners_active_ = config_.num_threads;
      launch = config_.num_threads;
    }
  }
  const int home = CurrentCpu();
  for (size_t i = 0; i < launch; ++i) {
    pool_->Submit([this, i, home] {
      PlaceRunner(i, home);
      RunnerLoop();
    });
  }
}

void AssignmentServer::RunnerLoop() {
  uint32_t center = 0;
  while (batch_queue_.Pop(&center)) RunShard(center);
  MutexLock lock(&admit_mu_);
  --runners_active_;
  drain_cv_.NotifyAll();
}

void AssignmentServer::RunShard(uint32_t center) {
  Shard& s = *shards_[center];
  {
    MutexLock lock(&s.mu);
    // Another runner owns this shard; it re-checks `ready` before
    // releasing `busy`, so the batch this token announced is covered.
    if (s.busy) return;
    s.busy = true;
  }
  for (;;) {
    Shard::Batch batch;
    {
      MutexLock lock(&s.mu);
      if (s.ready.empty()) {
        s.busy = false;
        return;
      }
      batch = std::move(s.ready.front());
      s.ready.pop_front();
    }

    TickStats ts;
    uint64_t digest = 0;
    {
      MutexLock solve(&s.solve_mu);
      FTA_SPAN("serve/batch");
      const double now =
          static_cast<double>(batch.tick) * config_.tick_period;
      const Status st = s.engine.Tick(batch.tick, now, batch.events, &ts);
      // Tick errors are configuration bugs (non-patchable catalog config
      // on the warm path); the constructor-checked configs cannot hit it.
      FTA_CHECK_MSG(st.ok(), "serve shard tick failed");
      digest = s.engine.digest();
    }

    ServeResponse resp;
    resp.center = center;
    resp.tick = batch.tick;
    resp.first_global_seq = batch.first_global_seq;
    resp.coalesced_requests = batch.requests;
    resp.stats = ts;
    resp.shard_digest = digest;
    resp.latency_ms = batch.admitted.ElapsedMillis();
    {
      MutexLock lock(&s.mu);
      resp.shard_seq = s.batches_done++;
      s.digest = digest;
      s.responses.push_back(resp);
    }
    s.solve_window.Observe(ts.solve_ms);
    s.solve_window.Advance();
    ObserveBatch(resp);
    if (callback_) callback_(resp);
    {
      MutexLock lock(&admit_mu_);
      ++counters_.batches;
      counters_.answered += batch.requests;
      counters_.assignments += ts.assigned_workers;
      counters_.solver_rounds += static_cast<uint64_t>(ts.rounds);
      counters_.catalog_ms += ts.catalog_ms;
      counters_.solve_ms += ts.solve_ms;
      in_flight_ -= batch.requests;
      if (in_flight_ == 0) drain_cv_.NotifyAll();
    }
  }
}

void AssignmentServer::Drain() {
  // 1. Stop admission and force-seal every open batch, so each admitted
  //    request is answered even when its tick never saw final_in_tick.
  //    The thread that flips draining_ owns the drain sequence; any
  //    concurrent caller (an explicit Drain racing the destructor's, say)
  //    waits for the owner to finish rather than running it twice.
  {
    MutexLock lock(&admit_mu_);
    if (draining_) {
      while (!drained_) drain_cv_.Wait(admit_mu_);
      return;
    }
    draining_ = true;
    for (uint32_t c = 0; c < static_cast<uint32_t>(admit_.size()); ++c) {
      if (!admit_[c].open) continue;
      admit_[c].open = false;
      admit_[c].min_tick = admit_[c].open_tick + 1;
      Shard& s = *shards_[c];
      bool force_sealed = false;
      {
        MutexLock slock(&s.mu);
        if (s.open_active) {
          s.ready.push_back(std::move(s.open));
          s.open = Shard::Batch();
          s.open_active = false;
          force_sealed = true;
        }
      }
      // Unbounded queue, not yet closed (only this owner closes it, below):
      // the push cannot fail.
      if (force_sealed) {
        FTA_CHECK_MSG(batch_queue_.TryPush(c) == QueuePush::kOk,
                      "token push failed during drain");
      }
    }
  }
  // 2. Runners must be live to drain the backlog (a paused server drains
  //    too).
  Resume();
  // 3. Every admitted request answered...
  {
    MutexLock lock(&admit_mu_);
    while (in_flight_ > 0) drain_cv_.Wait(admit_mu_);
  }
  // 4. ...then park the runners and mirror the aggregates.
  batch_queue_.Close();
  ServeCounters final_counters;
  {
    MutexLock lock(&admit_mu_);
    while (runners_active_ > 0) drain_cv_.Wait(admit_mu_);
    final_counters = counters_;
  }
  PublishServe(final_counters);
  // 5. Release any waiters from step 1.
  MutexLock lock(&admit_mu_);
  drained_ = true;
  drain_cv_.NotifyAll();
}

ServeCounters AssignmentServer::counters() const {
  MutexLock lock(&admit_mu_);
  return counters_;
}

size_t AssignmentServer::in_flight() const {
  MutexLock lock(&admit_mu_);
  return in_flight_;
}

uint64_t AssignmentServer::shard_digest(uint32_t center) const {
  Shard& s = *shards_[center];
  MutexLock lock(&s.mu);
  return s.digest;
}

const std::vector<ServeResponse>& AssignmentServer::responses(
    uint32_t center) const {
  Shard& s = *shards_[center];
  MutexLock lock(&s.mu);
  return s.responses;  // stable post-Drain: the runners are parked
}

std::vector<uint64_t> AssignmentServer::shard_batch_counts() const {
  std::vector<uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    counts.push_back(shard->batches_done);
  }
  return counts;
}

obs::WindowStats AssignmentServer::shard_solve_window(uint32_t center) const {
  return shards_[center]->solve_window.Stats();
}

std::string AssignmentServer::PrometheusText() const {
  std::string out =
      obs::ToPrometheusText(obs::MetricsRegistry::Global().Snapshot());
  for (size_t c = 0; c < shards_.size(); ++c) {
    obs::AppendWindowSummary(StrFormat("serve/shard%zu/solve_ms", c),
                             shards_[c]->solve_window.Stats(), out);
  }
  return out;
}

}  // namespace fta

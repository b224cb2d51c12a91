#include "serve/server.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

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
  static obs::QuantileSketch& wait = reg.GetSketch("serve/wait_ms", 0.01);
  static obs::QuantileSketch& solve = reg.GetSketch("serve/solve_ms", 0.01);
  static obs::QuantileSketch& coalesced =
      reg.GetSketch("serve/batch_requests", 0.01);
  latency.Observe(r.latency_ms);
  wait.Observe(r.wait_ms);
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

DispatchKey MakeDispatchKey(uint64_t tick, double last_tick_ms,
                            size_t requests, uint64_t seal) {
  return {tick,
          last_tick_ms / static_cast<double>(std::max<size_t>(requests, 1)),
          seal};
}

bool DispatchesBefore(const DispatchKey& a, const DispatchKey& b) {
  return std::tie(a.tick, a.cost_per_request_ms, a.seal) <
         std::tie(b.tick, b.cost_per_request_ms, b.seal);
}

namespace {

/// Heap order for ready_: std heaps keep the greatest element on top, so
/// "greater" is "dispatched first".
struct RunsLater {
  template <typename Ready>
  bool operator()(const Ready& a, const Ready& b) const {
    return DispatchesBefore(b.key, a.key);
  }
};

}  // namespace

/// One center's solver: the tick engine behind `solve_mu` (held for the
/// duration of a solve, and uncontended: a center has at most one runner)
/// and the record of what it answered behind `mu`.
struct AssignmentServer::Shard {
  Shard(TickEngineConfig cfg, size_t window_batches)
      : engine(std::move(cfg)), solve_window(window_batches) {}

  Mutex mu;
  uint64_t digest FTA_GUARDED_BY(mu) = 0;
  std::vector<ServeResponse> responses FTA_GUARDED_BY(mu);

  Mutex solve_mu;
  TickEngine engine FTA_GUARDED_BY(solve_mu);
  /// Rolling solve-latency window (internally locked).
  obs::RollingWindow solve_window;
};

/// A center's admission-protocol position and its batches, all under the
/// server's admit_mu_: validation, sequencing, coalescing and dispatch
/// happen entirely inside the admission stage.
struct AssignmentServer::CenterQueue {
  struct Batch {
    uint64_t tick = 0;
    uint64_t first_global_seq = 0;
    size_t requests = 0;
    uint64_t seal = 0;
    std::vector<StreamEvent> events;
    /// Started at first admission; read at response emission (latency).
    Stopwatch admitted;
    /// Restarted at the seal; read at runner pickup (wait).
    Stopwatch sealed;
  };

  /// `open` coalesces the requests of tick `open.tick`.
  bool is_open = false;
  Batch open;
  /// Smallest admissible tick when no batch is open.
  uint64_t min_tick = 0;
  /// Sealed batches in seal (= admission) order. The front batch stays
  /// until it is answered (its runner moves the contents out), so the
  /// center is in ready_ or running exactly when this is non-empty.
  std::deque<Batch> sealed;
  /// tick_ms of the center's last answered batch; 0 before the first.
  double last_tick_ms = 0.0;
};

AssignmentServer::AssignmentServer(ServerConfig config,
                                   std::vector<CenterSpec> centers,
                                   ThreadPool* pool)
    : config_(std::move(config)), pool_(pool) {
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
  {
    MutexLock lock(&admit_mu_);
    queues_.resize(centers.size());
  }
  if (!config_.start_paused) Resume();
}

AssignmentServer::~AssignmentServer() { Drain(); }

AdmissionCode AssignmentServer::Submit(ServeRequest request) {
  const uint32_t center = request.center;
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
  if (center >= queues_.size()) {
    ++counters_.rejected_unknown;
    return AdmissionCode::kUnknownCenter;
  }
  CenterQueue& q = queues_[center];
  const bool in_order = q.is_open ? request.tick == q.open.tick
                                  : request.tick >= q.min_tick;
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
  if (!q.is_open) {
    q.is_open = true;
    q.open = CenterQueue::Batch();
    q.open.tick = request.tick;
    q.open.first_global_seq = global_seq_;
  }
  ++global_seq_;
  ++q.open.requests;
  q.open.events.insert(q.open.events.end(),
                       std::make_move_iterator(request.events.begin()),
                       std::make_move_iterator(request.events.end()));
  if (request.final_in_tick) Seal(center);
  return AdmissionCode::kAdmitted;
}

void AssignmentServer::Seal(uint32_t center) {
  CenterQueue& q = queues_[center];
  q.is_open = false;
  q.min_tick = q.open.tick + 1;
  q.open.seal = seals_++;
  q.open.sealed.Restart();
  q.sealed.push_back(std::move(q.open));
  // A non-empty FIFO means the center is already in ready_ or running.
  if (q.sealed.size() == 1) {
    PushReady(center);
    work_cv_.NotifyOne();
  }
}

void AssignmentServer::PushReady(uint32_t center) {
  const CenterQueue& q = queues_[center];
  const CenterQueue::Batch& front = q.sealed.front();
  ready_.push_back(
      {MakeDispatchKey(front.tick, q.last_tick_ms, front.requests, front.seal),
       center});
  std::push_heap(ready_.begin(), ready_.end(), RunsLater());
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
  for (size_t i = 0; i < launch; ++i) {
    pool_->Submit([this] { RunnerLoop(); });
  }
}

void AssignmentServer::RunnerLoop() {
  CenterQueue::Batch batch;
  for (;;) {
    uint32_t center = 0;
    double wait_ms = 0.0;
    {
      MutexLock lock(&admit_mu_);
      // Once draining with nothing in flight, no batch can appear again.
      while (ready_.empty() && !(draining_ && in_flight_ == 0)) {
        work_cv_.Wait(admit_mu_);
      }
      if (ready_.empty()) {
        --runners_active_;
        drain_cv_.NotifyAll();
        return;
      }
      std::pop_heap(ready_.begin(), ready_.end(), RunsLater());
      center = ready_.back().center;
      ready_.pop_back();
      batch = std::move(queues_[center].sealed.front());
      wait_ms = batch.sealed.ElapsedMillis();
    }

    Shard& s = *shards_[center];
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
    resp.wait_ms = wait_ms;
    resp.latency_ms = batch.admitted.ElapsedMillis();
    {
      MutexLock lock(&s.mu);
      resp.shard_seq = s.responses.size();
      s.digest = digest;
      s.responses.push_back(resp);
    }
    s.solve_window.Observe(ts.solve_ms);
    s.solve_window.Advance();
    ObserveBatch(resp);
    if (callback_) callback_(resp);
    {
      MutexLock lock(&admit_mu_);
      CenterQueue& q = queues_[center];
      q.sealed.pop_front();
      q.last_tick_ms = ts.tick_ms;
      // No notify: this runner takes the next batch itself.
      if (!q.sealed.empty()) PushReady(center);
      ++counters_.batches;
      counters_.answered += batch.requests;
      counters_.assignments += ts.assigned_workers;
      counters_.solver_rounds += static_cast<uint64_t>(ts.rounds);
      counters_.catalog_ms += ts.catalog_ms;
      counters_.solve_ms += ts.solve_ms;
      in_flight_ -= batch.requests;
      if (in_flight_ == 0) {
        drain_cv_.NotifyAll();
        if (draining_) work_cv_.NotifyAll();
      }
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
    for (uint32_t c = 0; c < static_cast<uint32_t>(queues_.size()); ++c) {
      if (queues_[c].is_open) Seal(c);
    }
    // Idle runners re-check: with nothing in flight they exit.
    work_cv_.NotifyAll();
  }
  // 2. Runners must be live to drain the backlog (a paused server drains
  //    too).
  Resume();
  // 3. Every admitted request answered and every runner parked, then
  //    mirror the aggregates.
  ServeCounters final_counters;
  {
    MutexLock lock(&admit_mu_);
    while (in_flight_ > 0 || runners_active_ > 0) drain_cv_.Wait(admit_mu_);
    final_counters = counters_;
  }
  PublishServe(final_counters);
  // 4. Release any waiters from step 1.
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
    counts.push_back(shard->responses.size());
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

#include "stream/tick_engine.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "model/delivery_point.h"
#include "model/task.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace fta {
namespace {

/// Dense-id map slot for an element removed this tick.
constexpr uint32_t kGoneSlot = 0xffffffffu;

}  // namespace

const char* ResolvePolicyName(ResolvePolicy policy) {
  switch (policy) {
    case ResolvePolicy::kColdRestart:
      return "cold-restart";
    case ResolvePolicy::kColdSeeded:
      return "cold-seeded";
    case ResolvePolicy::kWarm:
      return "warm";
  }
  return "unknown";
}

const char* StreamSolverName(StreamSolver solver) {
  switch (solver) {
    case StreamSolver::kFgt:
      return "fgt";
    case StreamSolver::kIegt:
      return "iegt";
  }
  return "unknown";
}

TickEngine::TickEngine(TickEngineConfig config) : config_(std::move(config)) {
  if (config_.policy == ResolvePolicy::kWarm) {
    FTA_CHECK_MSG(
        config_.vdps.beam_width == 0 && config_.vdps.max_entries == 0,
        "kWarm streaming requires a delta-patchable catalog config "
        "(beam_width == 0, max_entries == 0); see VdpsCatalog::ApplyDelta");
  }
}

void TickEngine::BuildInstance() {
  std::vector<DeliveryPoint> dps;
  dps.reserve(tasks_.size());
  for (size_t i = 0; i < tasks_.size(); ++i) {
    const LiveTask& t = tasks_[i];
    SpatialTask task;
    task.delivery_point = static_cast<uint32_t>(i);
    task.expiry = t.service_window;  // relative to dispatch; see events.h
    task.reward = t.reward;
    dps.emplace_back(t.location, std::vector<SpatialTask>{task});
  }
  std::vector<Worker> workers;
  workers.reserve(workers_.size());
  for (const LiveWorker& w : workers_) workers.push_back(w.worker);
  instance_ = Instance(config_.center, std::move(dps), std::move(workers),
                       config_.travel);
}

uint64_t TickEngine::DigestCatalog() const {
  StreamDigest d;
  d.Fold(static_cast<uint64_t>(catalog_.num_entries()));
  for (const CVdpsEntry& entry : catalog_.entries()) {
    d.Fold(static_cast<uint64_t>(entry.dps.size()));
    for (uint32_t dp : entry.dps) d.Fold(static_cast<uint64_t>(dp));
    d.Fold(entry.total_reward);
    d.Fold(static_cast<uint64_t>(entry.options.size()));
    for (const SequenceOption& opt : entry.options) {
      for (uint32_t dp : opt.route) d.Fold(static_cast<uint64_t>(dp));
      d.Fold(opt.center_time);
      d.Fold(opt.slack);
    }
  }
  d.Fold(static_cast<uint64_t>(catalog_.num_workers()));
  for (size_t w = 0; w < catalog_.num_workers(); ++w) {
    const auto& sts = catalog_.strategies(w);
    d.Fold(static_cast<uint64_t>(sts.size()));
    for (const WorkerStrategy& st : sts) {
      d.Fold(static_cast<uint64_t>(st.entry_id));
      for (uint32_t dp : catalog_.route(st)) {
        d.Fold(static_cast<uint64_t>(dp));
      }
      d.Fold(st.total_time);
      d.Fold(st.total_reward);
      d.Fold(st.payoff);
    }
  }
  d.Fold(static_cast<uint64_t>(catalog_.num_indexed_delivery_points()));
  for (size_t dp = 0; dp < catalog_.num_indexed_delivery_points(); ++dp) {
    const auto& refs = catalog_.strategies_touching(static_cast<uint32_t>(dp));
    d.Fold(static_cast<uint64_t>(refs.size()));
    for (const StrategyRef& ref : refs) {
      d.Fold(static_cast<uint64_t>(ref.worker));
      d.Fold(static_cast<uint64_t>(static_cast<uint32_t>(ref.strategy)));
    }
  }
  const RadiusAdjacency& adj = catalog_.adjacency();
  d.Fold(static_cast<uint64_t>(adj.offsets.size()));
  for (uint32_t o : adj.offsets) d.Fold(static_cast<uint64_t>(o));
  for (uint32_t n : adj.neighbors) d.Fold(static_cast<uint64_t>(n));
  return d.value();
}

Status TickEngine::Tick(uint64_t tick, double now,
                        std::span<const StreamEvent> arrivals, TickStats* ts) {
  FTA_CHECK_MSG(ticks_run_ == 0 || tick > last_tick_index_,
                "tick indices must be strictly increasing");
  Stopwatch tick_sw;
  *ts = TickStats();
  ts->tick = tick;
  ts->time = now;

  // ---- 1. Ingest the arrivals (in feed order; stable ids follow). ----
  std::vector<LiveWorker> new_workers;
  std::vector<LiveTask> new_tasks;
  for (const StreamEvent& ev : arrivals) {
    if (ev.kind == StreamEventKind::kWorkerArrival) {
      new_workers.push_back(
          LiveWorker{ev.worker, ev.departure, next_worker_id_++});
      ++ts->workers_in;
    } else {
      new_tasks.push_back(LiveTask{ev.location, ev.reward, ev.queue_expiry,
                                   ev.service_window, next_task_id_++});
      ++ts->tasks_in;
    }
  }

  // ---- 2. Expire by the half-open live interval [arrival, expiry): an
  // element is dispatchable at `now` iff expiry > now, exactly — no
  // epsilon slop on the boundary (tests/stream_churn_test pins a task
  // expiring precisely on a tick boundary as gone). Survivors compact in
  // order; surviving additions append at the tail — the exact layout
  // CatalogDeltaPlan describes. ----
  CatalogDeltaPlan plan;
  std::vector<uint32_t> worker_map(workers_.size(), kGoneSlot);
  std::vector<uint32_t> dp_map(tasks_.size(), kGoneSlot);
  {
    size_t out = 0;
    for (size_t i = 0; i < workers_.size(); ++i) {
      if (workers_[i].departure <= now) {
        plan.removed_workers.push_back(static_cast<uint32_t>(i));
        ++ts->workers_out;
        continue;
      }
      worker_map[i] = static_cast<uint32_t>(out);
      if (out != i) workers_[out] = std::move(workers_[i]);
      ++out;
    }
    workers_.resize(out);
  }
  {
    size_t out = 0;
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].queue_expiry <= now) {
        plan.removed_dps.push_back(static_cast<uint32_t>(i));
        ++ts->tasks_out;
        continue;
      }
      dp_map[i] = static_cast<uint32_t>(out);
      if (out != i) tasks_[out] = std::move(tasks_[i]);
      ++out;
    }
    tasks_.resize(out);
  }
  // Dead-on-arrival elements (deadline at or before their first tick)
  // never enter the instance; they count as arrived and expired.
  for (LiveWorker& w : new_workers) {
    if (w.departure <= now) {
      ++ts->workers_out;
      continue;
    }
    workers_.push_back(std::move(w));
    ++plan.added_workers;
  }
  for (LiveTask& t : new_tasks) {
    if (t.queue_expiry <= now) {
      ++ts->tasks_out;
      continue;
    }
    tasks_.push_back(std::move(t));
    ++plan.added_dps;
  }

  BuildInstance();
  FTA_DCHECK_OK(instance_.Validate());
  ts->num_workers = instance_.num_workers();
  ts->num_dps = instance_.num_delivery_points();

  // ---- 3. Catalog maintenance: incremental delta on the warm path,
  // full regeneration otherwise (and for everyone on the first tick). ----
  Stopwatch catalog_sw;
  if (ticks_run_ == 0 || config_.policy != ResolvePolicy::kWarm) {
    catalog_ = VdpsCatalog::Generate(instance_, config_.vdps);
  } else {
    DeltaCounters dc;
    if (Status s = catalog_.ApplyDelta(instance_, plan, &dc); !s.ok()) {
      return s;
    }
    ts->delta = dc;
    ts->used_delta = true;
  }
  ts->catalog_ms = catalog_sw.ElapsedMillis();

  // ---- 4. Warm-seed projection: the previous equilibrium's surviving
  // assignments, re-addressed through this tick's id maps. A worker whose
  // set lost any delivery point falls back to the null strategy; surviving
  // sets stay pairwise disjoint (subsets of a disjoint family), so the
  // seed is always Definition-8 valid. ----
  Stopwatch project_sw;
  std::vector<int32_t> seed;
  const bool seeded =
      config_.policy != ResolvePolicy::kColdRestart && ticks_run_ > 0;
  if (seeded) {
    seed.assign(instance_.num_workers(), kNullStrategy);
    std::vector<uint32_t> mapped;
    for (size_t ow = 0; ow < prev_sets_.size(); ++ow) {
      if (worker_map[ow] == kGoneSlot) continue;
      const std::vector<uint32_t>& set = prev_sets_[ow];
      if (set.empty()) continue;
      mapped.clear();
      bool alive = true;
      for (uint32_t dp : set) {
        if (dp_map[dp] == kGoneSlot) {
          alive = false;
          break;
        }
        mapped.push_back(dp_map[dp]);  // monotone map: stays sorted
      }
      if (!alive) continue;
      const int32_t entry = catalog_.FindEntry(mapped);
      FTA_DCHECK_MSG(entry >= 0,
                     "surviving delivery point set lost its catalog entry");
      if (entry < 0) continue;
      const int32_t strategy =
          catalog_.FindStrategy(worker_map[ow], static_cast<uint32_t>(entry));
      FTA_DCHECK_MSG(strategy >= 0,
                     "surviving worker lost its strategy for a surviving "
                     "entry");
      if (strategy < 0) continue;
      seed[worker_map[ow]] = strategy;
    }
  }
  ts->project_ms = project_sw.ElapsedMillis();

  // ---- 5. Solve this tick's game, warm-started when seeded. ----
  Stopwatch solve_sw;
  const uint64_t tick_seed =
      SplitMix64(config_.seed ^ static_cast<uint64_t>(tick + 1)).Next();
  GameResult game;
  if (config_.solver == StreamSolver::kFgt) {
    FgtConfig fgt = config_.fgt;
    fgt.seed = tick_seed;
    if (seeded) fgt.warm_start = &seed;
    game = SolveFgt(instance_, catalog_, fgt);
  } else {
    IegtConfig iegt = config_.iegt;
    iegt.seed = tick_seed;
    if (seeded) iegt.warm_start = &seed;
    game = SolveIegt(instance_, catalog_, iegt);
  }
  ts->solve_ms = solve_sw.ElapsedMillis();
  ts->rounds = game.rounds;
  ts->converged = game.converged;

  last_assignment_ = std::move(game.assignment);
  // Tick-boundary contract: the standing plan is Definition-8 valid.
  FTA_DCHECK_OK(last_assignment_.Validate(instance_));

  prev_sets_.assign(instance_.num_workers(), {});
  for (size_t w = 0; w < instance_.num_workers(); ++w) {
    prev_sets_[w] = last_assignment_.route(w);
    std::sort(prev_sets_[w].begin(), prev_sets_[w].end());
  }

  // ---- 6. Fold the tick into the run digest and record stats. ----
  ts->assigned_workers = last_assignment_.num_assigned_workers();
  ts->covered_dps = last_assignment_.num_covered_delivery_points();
  const std::vector<double> payoffs = last_assignment_.Payoffs(instance_);
  ts->average_payoff = Mean(payoffs);
  ts->payoff_difference = last_assignment_.PayoffDifference(instance_);

  digest_.Fold(static_cast<uint64_t>(tick));
  digest_.Fold(static_cast<uint64_t>(instance_.num_workers()));
  digest_.Fold(static_cast<uint64_t>(instance_.num_delivery_points()));
  for (size_t w = 0; w < instance_.num_workers(); ++w) {
    digest_.Fold(workers_[w].stable_id);
    const Route& route = last_assignment_.route(w);
    digest_.Fold(static_cast<uint64_t>(route.size()));
    for (uint32_t dp : route) digest_.Fold(tasks_[dp].stable_id);
    digest_.Fold(payoffs[w]);
  }
  if (config_.digest_catalog) {
    ts->catalog_digest = DigestCatalog();
    digest_.Fold(ts->catalog_digest);
  }

  last_tick_index_ = tick;
  ++ticks_run_;
  ts->tick_ms = tick_sw.ElapsedMillis();
  return Status::Ok();
}

}  // namespace fta

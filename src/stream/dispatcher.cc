#include "stream/dispatcher.h"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"

namespace fta {
namespace {

/// Mirrors a finished stream run into the process-wide metrics registry.
void PublishStream(const StreamCounters& c) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter& runs = reg.GetCounter("stream/runs");
  static obs::Counter& ticks = reg.GetCounter("stream/ticks");
  static obs::Counter& events = reg.GetCounter("stream/events_ingested");
  static obs::Counter& regens = reg.GetCounter("stream/regens");
  static obs::Counter& deltas = reg.GetCounter("stream/deltas");
  static obs::Counter& rounds = reg.GetCounter("stream/solver_rounds");
  static obs::Counter& tasks_arrived = reg.GetCounter("stream/tasks_arrived");
  static obs::Counter& tasks_expired = reg.GetCounter("stream/tasks_expired");
  static obs::Counter& workers_arrived =
      reg.GetCounter("stream/workers_arrived");
  static obs::Counter& workers_departed =
      reg.GetCounter("stream/workers_departed");
  static obs::QuantileSketch& catalog_ms =
      reg.GetSketch("stream/catalog_ms_per_tick", 0.01);
  static obs::QuantileSketch& solve_ms =
      reg.GetSketch("stream/solve_ms_per_tick", 0.01);
  runs.Increment();
  ticks.Add(c.ticks);
  events.Add(c.events_ingested);
  regens.Add(c.regens);
  deltas.Add(c.deltas);
  rounds.Add(c.solver_rounds);
  tasks_arrived.Add(c.tasks_arrived);
  tasks_expired.Add(c.tasks_expired);
  workers_arrived.Add(c.workers_arrived);
  workers_departed.Add(c.workers_departed);
  if (c.ticks > 0) {
    catalog_ms.Observe(c.catalog_ms / static_cast<double>(c.ticks));
    solve_ms.Observe(c.solve_ms / static_cast<double>(c.ticks));
  }
}

}  // namespace

void StreamCounters::FoldTick(const TickStats& ts, size_t events) {
  ++ticks;
  events_ingested += events;
  workers_arrived += ts.workers_in;
  workers_departed += ts.workers_out;
  tasks_arrived += ts.tasks_in;
  tasks_expired += ts.tasks_out;
  if (ts.used_delta) {
    ++deltas;
    delta.Merge(ts.delta);
  } else {
    ++regens;
  }
  solver_rounds += static_cast<uint64_t>(ts.rounds);
  if (ts.converged) ++converged_ticks;
  catalog_ms += ts.catalog_ms;
  solve_ms += ts.solve_ms;
}

StreamDispatcher::StreamDispatcher(StreamConfig config,
                                   std::vector<StreamEvent> events)
    : config_(std::move(config)),
      events_(std::move(events)),
      engine_(config_.engine) {
  for (size_t i = 1; i < events_.size(); ++i) {
    FTA_CHECK_MSG(events_[i - 1].time <= events_[i].time,
                  "stream events must be sorted by non-decreasing time");
  }
  if (config_.telemetry.enabled) {
    telemetry_.reset(new StreamTelemetry(config_.telemetry));
  }
}

Status StreamDispatcher::Step() {
  FTA_SPAN("stream/tick");
  FTA_CHECK_MSG(!Done(), "Step() past max_ticks");
  const double now = static_cast<double>(tick_) * config_.tick_period;

  // Drain every arrival due by `now` (sorted feed, so one pass); the
  // engine ingests the slice and runs the tick.
  const size_t first = next_event_;
  while (next_event_ < events_.size() && events_[next_event_].time <= now) {
    ++next_event_;
  }
  const std::span<const StreamEvent> arrivals(events_.data() + first,
                                              next_event_ - first);

  TickStats ts;
  if (Status s = engine_.Tick(tick_, now, arrivals, &ts); !s.ok()) return s;
  counters_.FoldTick(ts, arrivals.size());

  // Telemetry observes the finished tick (after the digest fold inside
  // the engine, so it cannot perturb observable behavior).
  if (telemetry_ != nullptr) {
    telemetry_->OnTick(ts);
    telemetry_->MaybePublish(tick_);
  }
  last_tick_ = ts;
  if (config_.record_ticks) ticks_.push_back(std::move(ts));
  ++tick_;
  return Status::Ok();
}

StatusOr<StreamResult> StreamDispatcher::Run() {
  FTA_SPAN("stream/run");
  while (!Done()) {
    if (Status s = Step(); !s.ok()) return s;
  }
  StreamResult result;
  result.counters = counters_;
  result.ticks = ticks_;
  result.digest = engine_.digest();
  PublishStream(counters_);
  if (telemetry_ != nullptr) telemetry_->PublishNow();
  FTA_LOG(kInfo) << "stream run: policy="
                 << ResolvePolicyName(config_.engine.policy)
                 << " solver=" << StreamSolverName(config_.engine.solver)
                 << " ticks=" << counters_.ticks
                 << " rounds=" << counters_.solver_rounds << " catalog_ms="
                 << StrFormat("%.2f", counters_.catalog_ms) << " solve_ms="
                 << StrFormat("%.2f", counters_.solve_ms);
  return result;
}

}  // namespace fta

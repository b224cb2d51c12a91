#include "serve/replay.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>

#include "io/csv.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace fta {
namespace {

/// The tick whose `now` first covers an event at time τ — the inverse of
/// the stream dispatcher's drain predicate (time <= tick * period).
uint64_t TickOf(double time, double period) {
  if (time <= 0.0) return 0;
  uint64_t t = static_cast<uint64_t>(std::ceil(time / period));
  // Guard the multiply-rounding edge so time <= t * period always holds.
  while (static_cast<double>(t) * period < time) ++t;
  return t;
}

}  // namespace

ServeTrace BuildServeTrace(const CityWorkload& city,
                           size_t max_requests_per_tick, uint64_t seed) {
  FTA_CHECK_MSG(max_requests_per_tick >= 1,
                "max_requests_per_tick must be >= 1");
  const size_t num_centers = city.centers.size();
  ServeTrace trace;
  trace.centers = city.centers;
  trace.tick_period = city.tick_period;
  trace.ticks = city.ticks;

  // Bucket each center's (sorted) stream by tick; events past the replay
  // horizon are dropped, exactly as a `ticks`-long dispatcher run would
  // never drain them.
  std::vector<std::vector<std::vector<StreamEvent>>> buckets(num_centers);
  for (size_t c = 0; c < num_centers; ++c) {
    buckets[c].resize(city.ticks);
    for (const StreamEvent& ev : city.events[c]) {
      const uint64_t t = TickOf(ev.time, city.tick_period);
      if (t >= city.ticks) continue;
      buckets[c][t].push_back(ev);
    }
  }

  Rng rng(SplitMix64(seed ^ 0xc6a4a7935bd1e995ull).Next());
  for (uint64_t t = 0; t < city.ticks; ++t) {
    // Split every center's bucket into coalescible parts...
    std::vector<std::vector<ServeRequest>> per_center(num_centers);
    for (size_t c = 0; c < num_centers; ++c) {
      std::vector<StreamEvent>& bucket = buckets[c][t];
      size_t parts = 1;
      if (bucket.size() > 1 && max_requests_per_tick > 1) {
        parts = 1 + static_cast<size_t>(rng.NextBounded(static_cast<uint64_t>(
                        std::min(max_requests_per_tick, bucket.size()))));
      }
      const size_t base = bucket.size() / parts;
      const size_t extra = bucket.size() % parts;
      size_t at = 0;
      for (size_t p = 0; p < parts; ++p) {
        ServeRequest req;
        req.center = static_cast<uint32_t>(c);
        req.tick = t;
        req.final_in_tick = (p + 1 == parts);
        const size_t take = base + (p < extra ? 1 : 0);
        req.events.assign(bucket.begin() + static_cast<ptrdiff_t>(at),
                          bucket.begin() + static_cast<ptrdiff_t>(at + take));
        at += take;
        per_center[c].push_back(std::move(req));
      }
    }
    // ...then interleave the centers round-robin, so concurrent admission
    // sees the batching protocol under cross-center traffic, not neatly
    // grouped centers.
    bool emitted = true;
    size_t round = 0;
    while (emitted) {
      emitted = false;
      for (size_t c = 0; c < num_centers; ++c) {
        if (round < per_center[c].size()) {
          trace.requests.push_back(std::move(per_center[c][round]));
          emitted = true;
        }
      }
      ++round;
    }
  }
  return trace;
}

ReferenceResult RunSequentialReference(const ServerConfig& config,
                                       const ServeTrace& trace) {
  const size_t num_centers = trace.centers.size();
  std::vector<std::unique_ptr<TickEngine>> engines;
  engines.reserve(num_centers);
  for (uint32_t c = 0; c < num_centers; ++c) {
    engines.push_back(std::make_unique<TickEngine>(
        ShardEngineConfig(config, c, trace.centers[c])));
  }

  ReferenceResult ref;
  ref.digests.assign(num_centers, 0);
  ref.responses.resize(num_centers);

  struct OpenBatch {
    bool active = false;
    uint64_t tick = 0;
    uint64_t first_global_seq = 0;
    size_t requests = 0;
    std::vector<StreamEvent> events;
  };
  std::vector<OpenBatch> open(num_centers);

  uint64_t gseq = 0;
  for (const ServeRequest& req : trace.requests) {
    FTA_CHECK_MSG(req.center < num_centers, "trace names an unknown center");
    OpenBatch& o = open[req.center];
    if (!o.active) {
      o.active = true;
      o.tick = req.tick;
      o.first_global_seq = gseq;
      o.requests = 0;
      o.events.clear();
    }
    FTA_CHECK_MSG(req.tick == o.tick,
                  "trace interleaves ticks within an open batch");
    ++o.requests;
    o.events.insert(o.events.end(), req.events.begin(), req.events.end());
    ++gseq;
    if (!req.final_in_tick) continue;

    TickStats ts;
    const double now = static_cast<double>(o.tick) * trace.tick_period;
    const Status st =
        engines[req.center]->Tick(o.tick, now, o.events, &ts);
    FTA_CHECK_MSG(st.ok(), "reference tick failed");

    ServeResponse r;
    r.center = req.center;
    r.tick = o.tick;
    r.shard_seq = ref.responses[req.center].size();
    r.first_global_seq = o.first_global_seq;
    r.coalesced_requests = o.requests;
    r.stats = ts;
    r.shard_digest = engines[req.center]->digest();
    ref.digests[req.center] = r.shard_digest;
    ref.responses[req.center].push_back(std::move(r));
    ++ref.batches;
    ref.assignments += ts.assigned_workers;
    o.active = false;
  }
  return ref;
}

StatusOr<uint64_t> ReplayTrace(AssignmentServer& server,
                               const ServeTrace& trace,
                               size_t max_retries_per_request) {
  uint64_t retries = 0;
  for (const ServeRequest& req : trace.requests) {
    size_t attempts = 0;
    for (;;) {
      const AdmissionCode code = server.Submit(req);
      if (code == AdmissionCode::kAdmitted) break;
      if (code != AdmissionCode::kQueueFull) {
        return Status::FailedPrecondition(
            StrFormat("replay rejected: %s (center=%u tick=%llu)",
                      AdmissionCodeName(code), req.center,
                      static_cast<unsigned long long>(req.tick)));
      }
      if (++attempts > max_retries_per_request) {
        return Status::FailedPrecondition(
            "replay gave up: queue stayed full past the retry budget");
      }
      ++retries;
      // Shed: the runners own the backlog; give them the core.
      std::this_thread::yield();
    }
  }
  return retries;
}

std::string SerializeServeTrace(const ServeTrace& trace) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back(
      {"#", "FTA serve trace v1: meta,tick_period,ticks | center,x,y | "
            "req,center,tick,final | w,time,x,y,maxdp,departure | "
            "t,time,x,y,reward,queue_expiry,service_window"});
  rows.push_back({"meta", StrFormat("%.17g", trace.tick_period),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(trace.ticks))});
  for (const Point& p : trace.centers) {
    rows.push_back(
        {"center", StrFormat("%.17g", p.x), StrFormat("%.17g", p.y)});
  }
  for (const ServeRequest& req : trace.requests) {
    rows.push_back({"req", StrFormat("%u", req.center),
                    StrFormat("%llu",
                              static_cast<unsigned long long>(req.tick)),
                    req.final_in_tick ? "1" : "0"});
    for (const StreamEvent& ev : req.events) {
      if (ev.kind == StreamEventKind::kWorkerArrival) {
        rows.push_back({"w", StrFormat("%.17g", ev.time),
                        StrFormat("%.17g", ev.worker.location.x),
                        StrFormat("%.17g", ev.worker.location.y),
                        StrFormat("%u", ev.worker.max_delivery_points),
                        StrFormat("%.17g", ev.departure)});
      } else {
        rows.push_back({"t", StrFormat("%.17g", ev.time),
                        StrFormat("%.17g", ev.location.x),
                        StrFormat("%.17g", ev.location.y),
                        StrFormat("%.17g", ev.reward),
                        StrFormat("%.17g", ev.queue_expiry),
                        StrFormat("%.17g", ev.service_window)});
      }
    }
  }
  return ToCsv(rows);
}

Status SaveServeTrace(const std::string& path, const ServeTrace& trace) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << SerializeServeTrace(trace);
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

namespace {

StatusOr<double> Field(const std::vector<std::string>& row, size_t i) {
  if (i >= row.size()) {
    return Status::ParseError(
        StrFormat("'%s' row is missing field %zu", row[0].c_str(), i));
  }
  return ParseDouble(row[i]);
}

/// Field `i` as a finite number.
StatusOr<double> FiniteField(const std::vector<std::string>& row, size_t i) {
  StatusOr<double> v = Field(row, i);
  if (v.ok() && !std::isfinite(*v)) {
    return Status::ParseError(StrFormat("'%s' row field %zu is not finite",
                                        row[0].c_str(), i));
  }
  return v;
}

/// Field `i` as an unsigned integer no larger than `max`. Decimal digits
/// only, so fractions, signs, exponents and non-finite spellings are
/// rejected instead of being truncated or wrapped by a cast.
StatusOr<uint64_t> UintField(const std::vector<std::string>& row, size_t i,
                             uint64_t max) {
  if (i >= row.size()) {
    return Status::ParseError(
        StrFormat("'%s' row is missing field %zu", row[0].c_str(), i));
  }
  const std::string_view text = StripWhitespace(row[i]);
  if (text.empty() || !std::all_of(text.begin(), text.end(), [](char ch) {
        return ch >= '0' && ch <= '9';
      })) {
    return Status::ParseError(
        StrFormat("'%s' row field %zu is not a non-negative integer: '%s'",
                  row[0].c_str(), i, row[i].c_str()));
  }
  uint64_t v = 0;
  for (const char ch : text) {
    const uint64_t digit = static_cast<uint64_t>(ch - '0');
    if (digit > max || v > (max - digit) / 10) {
      return Status::ParseError(
          StrFormat("'%s' row field %zu is out of range (max %llu): '%s'",
                    row[0].c_str(), i, static_cast<unsigned long long>(max),
                    row[i].c_str()));
    }
    v = v * 10 + digit;
  }
  return v;
}

/// Per-center position in the batching protocol (serve/request.h): the
/// last request's tick and whether its run is still open (non-final).
struct CenterRun {
  bool seen = false;
  bool open = false;
  uint64_t tick = 0;
};

}  // namespace

StatusOr<ServeTrace> DeserializeServeTrace(const std::string& text) {
  StatusOr<CsvDocument> doc = ParseCsv(text);
  if (!doc.ok()) return doc.status();
  ServeTrace trace;
  bool have_meta = false;
  std::vector<CenterRun> runs;
  for (const auto& row : doc->rows) {
    if (row.empty()) continue;
    if (row[0] == "meta") {
      auto period = FiniteField(row, 1);
      auto ticks = UintField(row, 2, UINT64_MAX);
      if (!period.ok()) return period.status();
      if (!ticks.ok()) return ticks.status();
      if (*period <= 0.0) return Status::ParseError("non-positive tick_period");
      trace.tick_period = *period;
      trace.ticks = *ticks;
      have_meta = true;
    } else if (row[0] == "center") {
      auto x = FiniteField(row, 1);
      auto y = FiniteField(row, 2);
      if (!x.ok()) return x.status();
      if (!y.ok()) return y.status();
      trace.centers.push_back(Point{*x, *y});
    } else if (row[0] == "req") {
      auto center = UintField(row, 1, UINT32_MAX);
      auto tick = UintField(row, 2, UINT64_MAX);
      auto final_in_tick = UintField(row, 3, 1);
      if (!center.ok()) return center.status();
      if (!tick.ok()) return tick.status();
      if (!final_in_tick.ok()) return final_in_tick.status();
      if (*center >= trace.centers.size()) {
        return Status::ParseError("req row names an undeclared center");
      }
      ServeRequest req;
      req.center = static_cast<uint32_t>(*center);
      req.tick = *tick;
      req.final_in_tick = *final_in_tick == 1;
      runs.resize(trace.centers.size());
      CenterRun& run = runs[req.center];
      if (run.open && req.tick != run.tick) {
        return Status::ParseError(StrFormat(
            "center %u changes tick inside its open tick-%llu run",
            req.center, static_cast<unsigned long long>(run.tick)));
      }
      if (!run.open && run.seen && req.tick <= run.tick) {
        return Status::ParseError(StrFormat(
            "center %u request ticks go backwards (%llu after sealed %llu)",
            req.center, static_cast<unsigned long long>(req.tick),
            static_cast<unsigned long long>(run.tick)));
      }
      run = CenterRun{true, !req.final_in_tick, req.tick};
      trace.requests.push_back(std::move(req));
    } else if (row[0] == "w" || row[0] == "t") {
      if (trace.requests.empty()) {
        return Status::ParseError("event row before the first req row");
      }
      StreamEvent ev;
      ev.kind = row[0] == "w" ? StreamEventKind::kWorkerArrival
                              : StreamEventKind::kTaskArrival;
      auto time = Field(row, 1);
      auto x = Field(row, 2);
      auto y = Field(row, 3);
      if (!time.ok()) return time.status();
      if (!x.ok()) return x.status();
      if (!y.ok()) return y.status();
      ev.time = *time;
      if (ev.kind == StreamEventKind::kWorkerArrival) {
        auto maxdp = UintField(row, 4, UINT32_MAX);
        auto departure = Field(row, 5);
        if (!maxdp.ok()) return maxdp.status();
        if (!departure.ok()) return departure.status();
        ev.worker.location = Point{*x, *y};
        ev.worker.max_delivery_points = static_cast<uint32_t>(*maxdp);
        ev.departure = *departure;
      } else {
        auto reward = Field(row, 4);
        auto queue_expiry = Field(row, 5);
        auto service_window = Field(row, 6);
        if (!reward.ok()) return reward.status();
        if (!queue_expiry.ok()) return queue_expiry.status();
        if (!service_window.ok()) return service_window.status();
        ev.location = Point{*x, *y};
        ev.reward = *reward;
        ev.queue_expiry = *queue_expiry;
        ev.service_window = *service_window;
      }
      // The same check AssignmentServer::Submit applies (stream/events.h).
      if (Status s = ValidateStreamEvent(ev); !s.ok()) {
        return Status::ParseError(
            StrFormat("'%s' row: %s", row[0].c_str(), s.message().c_str()));
      }
      trace.requests.back().events.push_back(std::move(ev));
    } else if (StartsWith(row[0], "#")) {
      continue;
    } else {
      return Status::ParseError("unknown row kind: '" + row[0] + "'");
    }
  }
  if (!have_meta) return Status::ParseError("serve trace is missing meta row");
  if (trace.centers.empty()) {
    return Status::ParseError("serve trace declares no centers");
  }
  return trace;
}

StatusOr<ServeTrace> LoadServeTrace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return DeserializeServeTrace(text);
}

}  // namespace fta

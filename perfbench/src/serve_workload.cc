// serve-steady and serve-rush: a synthesized city replayed open loop
// through the sharded AssignmentServer.
//
// Set-up (timed as setup_s): generate the trace, run the sequential
// reference over all of it, construct the server, and push a warm-up
// prefix of ticks through it as fast as admission allows, so every
// center's first (cold) catalog Generate and the order queue's fill-up to
// rate x patience happen before measuring. Then tick t's requests are due
// at t0 + (t - warmup) x wall tick; the single-threaded driver submits each
// at its due time, and a kQueueFull refusal is retried at the driver's
// next slot without restarting the request's clock. A request's latency
// runs from its due time to the response callback of its batch.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "datagen/city.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Simulated hours per tick (bench_serve's cadence).
constexpr double kSimTick = 0.05;
/// Driver slots per wall tick: a refused request is retried one slot later.
constexpr int kSlotsPerTick = 4;
/// A run whose driver started requests later than this (p99, ms) after
/// their scheduled slot did not keep its schedule and is invalid.
constexpr double kMaxDriverLagMs = 20.0;
/// Traced runs: a batch's serve.wait + stream.tick (driver clock) must
/// match the server's own seal-to-response time within kStageSumToleranceMs
/// for all but kStageSumSlack of the batches; the rest are runner threads
/// preempted between the server's clock read and the response callback.
constexpr double kStageSumToleranceMs = 1.0;
constexpr double kStageSumSlack = 0.005;

struct ServeShape {
  size_t centers = 12;
  /// Per-center arrival rates (per simulated hour) before the skew.
  double task_rate = 150.0;
  double worker_rate = 25.0;
  /// Mean hours an order waits before canceling; the order queue holds
  /// about rate x patience and turns over every patience / kSimTick ticks.
  double task_patience_hours = 1.0;
  /// Log-normal spread of the per-center rates: center c scales both
  /// rates by exp(sigma * min(z_c, z_max)), z_c evenly spread over
  /// [-1.6, 1.6]. The profile is fixed; only the arrivals vary by seed.
  double skew_sigma = 0.6;
  double z_max = 1.6;
  size_t max_requests_per_tick = 3;
  /// Open-loop pace; also the latency limit (a plan later than the
  /// center's next tick is stale).
  double wall_tick_ms = 20.0;
  uint64_t warmup_ticks = 60;
  /// Rush hours: a Gaussian peak in the task rate centred in each latency
  /// window, (1 + peak_boost) x base at its top, sigma in ticks.
  double peak_boost = 0.0;
  double peak_sigma_ticks = 0.0;
  /// Ticks per latency window: the measured run is cut into equal windows
  /// of about this length, and the reported latency percentiles are
  /// medians over windows.
  uint64_t window_ticks = 75;
};

constexpr double kZ = 1.6;

ServeShape ShapeFor(bool rush, bool toy) {
  ServeShape s;
  if (rush) {
    // Short rush peaks, one per latency window, over a lightly loaded
    // city. Orders wait only 5 ticks, so each peak reaches the queue at
    // once and every tick's catalog delta is large; at a peak's top the
    // runners are several times oversubscribed, so the backlog it builds
    // (p99) scales with the peak's work, while the drain is quick and most
    // requests (p50) see no backlog. A milder peak would put p99 on the
    // edge of saturation, where it is set by host jitter. The top four
    // centers share the hottest rate (z clipped at 0.9).
    s.task_rate = 250.0;
    s.worker_rate = 17.0;
    s.task_patience_hours = 0.25;
    s.skew_sigma = 0.9;
    s.z_max = 0.9;
    s.max_requests_per_tick = 8;
    s.peak_boost = 5.0;
    s.peak_sigma_ticks = 4.0;
  }
  if (toy) {
    s.centers = 4;
    s.warmup_ticks = 6;
  }
  return s;
}

fta::ServeTrace BuildTrace(const ServeShape& shape, uint64_t seed,
                           uint64_t ticks, size_t windows) {
  fta::CityWorkload city;
  city.tick_period = kSimTick;
  city.ticks = ticks;
  const size_t n = shape.centers;
  const size_t grid =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  const double measured_hours =
      static_cast<double>(ticks - shape.warmup_ticks) * kSimTick;
  for (size_t c = 0; c < n; ++c) {
    // Stride-5 walk over the rate profile: neighbouring shard ids get
    // unlike rates (5 is coprime with every centre count used here).
    const size_t rank = (c * 5) % n;
    const double z =
        n > 1 ? -kZ + 2.0 * kZ * static_cast<double>(rank) /
                          static_cast<double>(n - 1)
              : 0.0;
    const double scale =
        std::exp(shape.skew_sigma * std::min(z, shape.z_max));

    fta::CityWorkloadConfig one;
    one.num_centers = 1;
    one.rate_sigma = 0.0;
    one.tick_period = kSimTick;
    one.ticks = ticks;
    one.center_spacing = 12.0;
    one.base.tasks.base_rate_per_hour = shape.task_rate * scale;
    one.base.worker_rate_per_hour = shape.worker_rate * scale;
    one.base.area_size = 10.0;
    one.base.mean_worker_dwell_hours = 1.0;
    one.base.mean_task_patience_hours = shape.task_patience_hours;
    one.base.tasks.peak_hours = {};  // the default has two day peaks
    if (shape.peak_boost > 0.0) {
      // One peak centred in each latency window.
      for (size_t k = 0; k < windows; ++k) {
        one.base.tasks.peak_hours.push_back(
            static_cast<double>(shape.warmup_ticks) * kSimTick +
            measured_hours * (static_cast<double>(k) + 0.5) /
                static_cast<double>(windows));
      }
      one.base.tasks.peak_boost = shape.peak_boost;
      one.base.tasks.peak_sigma = shape.peak_sigma_ticks * kSimTick;
    }
    fta::CityWorkload part = fta::GenerateCityWorkload(
        one, fta::SplitMix64(seed ^ (0x9e3779b97f4a7c15ull * (c + 1))).Next());

    // Move the single-center world onto its cell of the city grid.
    const double ox = static_cast<double>(c % grid) * one.center_spacing;
    const double oy = static_cast<double>(c / grid) * one.center_spacing;
    fta::Point center = part.centers[0];
    center.x += ox;
    center.y += oy;
    for (fta::StreamEvent& ev : part.events[0]) {
      fta::Point& p = ev.kind == fta::StreamEventKind::kWorkerArrival
                          ? ev.worker.location
                          : ev.location;
      p.x += ox;
      p.y += oy;
    }
    city.centers.push_back(center);
    city.events.push_back(std::move(part.events[0]));
  }
  return fta::BuildServeTrace(city, shape.max_requests_per_tick,
                              fta::SplitMix64(seed ^ 0x5e7e5eedull).Next());
}

fta::ServerConfig MakeServerConfig(const ServeShape& shape) {
  fta::ServerConfig config;
  config.num_threads = kThreads;
  // Room for two ticks of the whole city's requests in flight; a deeper
  // backlog is refused and retried at the driver's next slot.
  config.queue_capacity = 2 * shape.centers * shape.max_requests_per_tick;
  config.tick_period = kSimTick;
  config.engine.policy = fta::ResolvePolicy::kWarm;
  config.engine.solver = fta::StreamSolver::kFgt;
  config.engine.vdps.epsilon = 0.6;
  config.engine.vdps.max_set_size = 3;
  config.engine.seed = 7;
  return config;
}

/// The serve determinism contract: every shard's digest and response
/// sequence equal the sequential reference's.
std::string CompareWithReference(const fta::AssignmentServer& server,
                                 const fta::ReferenceResult& ref) {
  for (uint32_t c = 0; c < server.num_shards(); ++c) {
    if (server.shard_digest(c) != ref.digests[c]) {
      return "shard " + std::to_string(c) +
             " digest differs from the sequential reference";
    }
    const std::vector<fta::ServeResponse>& got = server.responses(c);
    const std::vector<fta::ServeResponse>& want = ref.responses[c];
    if (got.size() != want.size()) {
      return "shard " + std::to_string(c) + " answered " +
             std::to_string(got.size()) + " batches, reference has " +
             std::to_string(want.size());
    }
    for (size_t i = 0; i < got.size(); ++i) {
      const bool same = got[i].tick == want[i].tick &&
                        got[i].shard_seq == want[i].shard_seq &&
                        got[i].first_global_seq == want[i].first_global_seq &&
                        got[i].coalesced_requests ==
                            want[i].coalesced_requests &&
                        got[i].shard_digest == want[i].shard_digest;
      if (!same) {
        return "shard " + std::to_string(c) + " response " +
               std::to_string(i) + " differs from the sequential reference";
      }
    }
  }
  return "";
}

}  // namespace

WorkloadResult RunServe(bool rush, const RunSpec& spec) {
  WorkloadResult res;
  const double setup_start = NowMs();
  const ServeShape shape = ShapeFor(rush, spec.toy);
  const double tick_ms = shape.wall_tick_ms;
  const uint64_t warmup = shape.warmup_ticks;
  const uint64_t measured = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(spec.seconds * 1e3 / tick_ms)));
  const uint64_t ticks = warmup + measured;
  const size_t windows = static_cast<size_t>(
      std::max<uint64_t>(1, measured / shape.window_ticks));
  const fta::ServeTrace trace = BuildTrace(shape, spec.seed, ticks, windows);
  if (spec.input_digest_only) {
    std::printf("input_digest %016llx\n",
                static_cast<unsigned long long>(
                    Fnv1a(fta::SerializeServeTrace(trace))));
    return res;
  }
  const fta::ServerConfig config = MakeServerConfig(shape);
  fta::ReferenceResult ref = fta::RunSequentialReference(config, trace);
  if (spec.corrupt_reference) ref.digests[0] ^= 1;

  const size_t n = trace.centers.size();
  const std::vector<fta::ServeRequest>& reqs = trace.requests;
  const size_t total = reqs.size();
  // Response time per (center, tick). Every center has a batch at every
  // tick (BuildServeTrace), so a batch's shard_seq is its tick. Slots are
  // written by runner threads and read after Drain().
  std::vector<std::vector<double>> resp_ms(n, std::vector<double>(ticks, -1));
  std::atomic<uint64_t> answered{0};
  std::atomic<bool> bad_seq{false};

  fta::ThreadPool pool(config.num_threads);
  std::vector<fta::CenterSpec> centers;
  for (const fta::Point& p : trace.centers) centers.push_back({p});
  fta::AssignmentServer server(config, std::move(centers), &pool);
  server.set_response_callback([&](const fta::ServeResponse& r) {
    const double now = NowMs();
    if (r.center < n && r.shard_seq < ticks) {
      resp_ms[r.center][r.shard_seq] = now;
    } else {
      bad_seq.store(true);
    }
    answered.fetch_add(1, std::memory_order_release);
  });

  // ---- Warm-up prefix: submitted as fast as admission allows. ----
  const double warm_deadline = NowMs() + 120e3;
  size_t idx = 0;
  while (idx < total && reqs[idx].tick < warmup) {
    if (NowMs() > warm_deadline) {
      res.Fail("warm-up requests were not admitted within 120 s");
      return res;
    }
    const fta::AdmissionCode code = server.Submit(reqs[idx]);
    if (code == fta::AdmissionCode::kAdmitted) {
      ++idx;
    } else if (code == fta::AdmissionCode::kQueueFull) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    } else {
      res.Fail(std::string("warm-up request refused: ") +
               fta::AdmissionCodeName(code));
      return res;
    }
  }
  const uint64_t warm_batches = warmup * n;
  while (answered.load(std::memory_order_acquire) < warm_batches) {
    if (NowMs() > warm_deadline) {
      res.Fail("warm-up batches were not answered within 120 s");
      return res;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  res.e2e["setup_s"] = (NowMs() - setup_start) / 1e3;

  // ---- Measured phase: open loop. ----
  const size_t first = idx;
  // Requests are moved into Submit; a refused one is restored from `reqs`.
  std::vector<fta::ServeRequest> feed(
      reqs.begin() + static_cast<ptrdiff_t>(first), reqs.end());
  std::vector<double> sub_start(total, 0.0), sub_end(total, 0.0);
  std::vector<double> lag;
  lag.reserve(total - first);
  const double slot_ms = tick_ms / kSlotsPerTick;
  const double t0 = NowMs() + tick_ms;
  auto due = [&](uint64_t tick) {
    return t0 + static_cast<double>(tick - warmup) * tick_ms;
  };
  uint64_t queue_full = 0;
  double wake = due(warmup);
  while (idx < total && res.correct) {
    SleepUntilMs(wake);
    bool blocked = false;
    while (idx < total && due(reqs[idx].tick) <= wake) {
      fta::ServeRequest& req = feed[idx - first];
      const double a = NowMs();
      const fta::AdmissionCode code = server.Submit(std::move(req));
      const double b = NowMs();
      if (code == fta::AdmissionCode::kAdmitted) {
        sub_start[idx] = a;
        sub_end[idx] = b;
        lag.push_back(a - wake);
        ++idx;
      } else if (code == fta::AdmissionCode::kQueueFull) {
        ++queue_full;
        req = reqs[idx];  // Submit consumed the moved-from copy
        blocked = true;
        break;
      } else {
        res.Fail(std::string("request refused: ") +
                 fta::AdmissionCodeName(code));
        break;
      }
    }
    if (idx < total) {
      wake = blocked ? wake + slot_ms : std::max(due(reqs[idx].tick), wake);
    }
  }
  server.Drain();
  const double measured_ms = NowMs() - t0;

  if (bad_seq.load()) res.Fail("a response named an unknown (center, tick)");
  if (res.correct) {
    const std::string diff = CompareWithReference(server, ref);
    if (!diff.empty()) res.Fail(diff);
  }
  if (!res.correct) return res;

  // ---- Per-request end-to-end numbers. ----
  std::vector<std::vector<double>> window_latency(windows);
  uint64_t unanswered = 0;
  uint64_t slo_miss = 0;
  for (size_t i = first; i < total; ++i) {
    const double r = resp_ms[reqs[i].center][reqs[i].tick];
    if (r < 0.0) {
      ++unanswered;
      ++slo_miss;
      continue;
    }
    const double l = r - due(reqs[i].tick);
    window_latency[(reqs[i].tick - warmup) * windows / measured].push_back(l);
    if (l > tick_ms) ++slo_miss;
  }
  res.attempted = total - first;
  res.failed = unanswered;
  // Median over equal windows of the run: a burst of host stalls moves one
  // window's percentiles, not the reported ones.
  std::vector<double> window_p50, window_p99;
  for (const std::vector<double>& w : window_latency) {
    const double p = Quantile(w, 0.99);
    if (!spec.toy && CountAbove(w, p) < 10) {
      res.Fail("fewer than ten requests beyond a window's p99");
    }
    window_p50.push_back(Quantile(w, 0.5));
    window_p99.push_back(p);
  }
  const double p50 = Quantile(window_p50, 0.5);
  const double p99 = Quantile(window_p99, 0.5);
  const double lag_p99 = Quantile(lag, 0.99);
  std::fprintf(stderr,
               "%s: %zu centers, %llu measured ticks of %.1f ms, %llu "
               "requests; latency p50 %.3f ms p99 %.3f ms; queue full %llu; "
               "driver lag p50 %.3f ms p99 %.3f ms\n",
               rush ? "serve-rush" : "serve-steady", n,
               static_cast<unsigned long long>(measured), tick_ms,
               static_cast<unsigned long long>(res.attempted),
               p50, p99,
               static_cast<unsigned long long>(queue_full),
               Quantile(lag, 0.5), lag_p99);
  if (!spec.toy && lag_p99 > kMaxDriverLagMs) {
    res.Fail("driver fell behind its schedule: lag p99 " +
             std::to_string(lag_p99) + " ms");
  }
  if (!res.correct) return res;

  // ---- Per-batch records of the measured window. ----
  std::vector<double> tick_v, solve_v, delta_v, gen_v, project_v, other_v;
  std::vector<double> nbr_v, subenum_v, added_v, removed_v, rounds_v;
  std::vector<double> churn_v, workers_v, dps_v, coalesced_v;
  std::vector<double> pdif_v, payoff_v;
  std::vector<double> busy(n, 0.0);
  double converged = 0.0;
  uint64_t regens = 0;
  for (uint32_t c = 0; c < n; ++c) {
    const std::vector<fta::ServeResponse>& rs = server.responses(c);
    for (uint64_t t = warmup; t < ticks; ++t) {
      const fta::TickStats& s = rs[t].stats;
      tick_v.push_back(s.tick_ms);
      solve_v.push_back(s.solve_ms);
      project_v.push_back(s.project_ms);
      other_v.push_back(s.tick_ms - s.catalog_ms - s.solve_ms - s.project_ms);
      if (s.used_delta) {
        delta_v.push_back(s.catalog_ms);
        nbr_v.push_back(static_cast<double>(s.delta.neighborhood_dps));
        subenum_v.push_back(static_cast<double>(s.delta.subenum_states));
        added_v.push_back(static_cast<double>(s.delta.entries_added));
        removed_v.push_back(static_cast<double>(s.delta.entries_removed));
      } else {
        ++regens;
        gen_v.push_back(s.catalog_ms);
      }
      rounds_v.push_back(static_cast<double>(s.rounds));
      converged += s.converged ? 1.0 : 0.0;
      const double live = static_cast<double>(s.num_workers + s.num_dps);
      churn_v.push_back(static_cast<double>(s.workers_in + s.workers_out +
                                            s.tasks_in + s.tasks_out) /
                        std::max(1.0, live));
      workers_v.push_back(static_cast<double>(s.num_workers));
      dps_v.push_back(static_cast<double>(s.num_dps));
      coalesced_v.push_back(static_cast<double>(rs[t].coalesced_requests));
      pdif_v.push_back(s.payoff_difference);
      payoff_v.push_back(s.average_payoff);
      busy[c] += s.tick_ms;
    }
  }
  const double batches = static_cast<double>(tick_v.size());

  res.e2e["latency_p50_ms"] = p50;
  res.e2e["latency_p99_ms"] = p99;
  res.e2e["batch_solve_ms"] = Quantile(tick_v, 0.5);
  res.e2e["fgt.pdif"] = MeanOf(pdif_v);
  res.e2e["fgt.avg_payoff"] = MeanOf(payoff_v);
  res.e2e["peak_rss_mb"] = PeakRssMb();

  std::map<std::string, double>& L = res.layer;
  L["vdps.delta_ms_p50"] = Quantile(delta_v, 0.5);
  L["vdps.delta_ms_p99"] = Quantile(delta_v, 0.99);
  L["vdps.delta_neighborhood_dps"] = MeanOf(nbr_v);
  L["vdps.delta_subenum_states"] = MeanOf(subenum_v);
  L["vdps.delta_entries_added"] = MeanOf(added_v);
  L["vdps.delta_entries_removed"] = MeanOf(removed_v);
  L["vdps.regens"] = static_cast<double>(regens);
  L["vdps.generate_ms"] = MeanOf(gen_v);
  L["game.fgt_ms"] = MeanOf(solve_v);
  L["game.solve_ms_p50"] = Quantile(solve_v, 0.5);
  L["game.solve_ms_p99"] = Quantile(solve_v, 0.99);
  L["game.fgt_rounds"] = MeanOf(rounds_v);
  L["game.converged_frac"] = converged / batches;
  L["stream.tick_ms_p50"] = Quantile(tick_v, 0.5);
  L["stream.tick_ms_p99"] = Quantile(tick_v, 0.99);
  L["stream.project_ms_mean"] = MeanOf(project_v);
  L["stream.other_ms_mean"] = MeanOf(other_v);
  L["stream.churn_frac"] = MeanOf(churn_v);
  L["stream.live_workers_mean"] = MeanOf(workers_v);
  L["stream.live_dps_mean"] = MeanOf(dps_v);
  double busy_total = 0.0, busy_max = 0.0;
  for (double b : busy) {
    busy_total += b;
    busy_max = std::max(busy_max, b);
  }
  L["serve.shard_busy_imbalance"] =
      busy_total > 0.0 ? busy_max / (busy_total / static_cast<double>(n)) : 0.0;
  L["serve.runner_busy_frac"] =
      busy_total / (static_cast<double>(config.num_threads) * measured_ms);
  L["serve.requests_per_batch"] = MeanOf(coalesced_v);
  L["serve.queue_full"] = static_cast<double>(queue_full);
  std::vector<double> submit_us;
  submit_us.reserve(total - first);
  for (size_t i = first; i < total; ++i) {
    submit_us.push_back((sub_end[i] - sub_start[i]) * 1e3);
  }
  L["serve.submit_us_p50"] = Quantile(submit_us, 0.5);
  L["serve.submit_us_p99"] = Quantile(submit_us, 0.99);
  L["serve.slo_miss_frac"] =
      static_cast<double>(slo_miss) / static_cast<double>(res.attempted);
  L["driver.lag_p99_ms"] = lag_p99;

  // ---- Traced runs: spans assembled after the measured phase from the
  // timestamps both kinds of run record, so tracing adds nothing to that
  // phase and trace.overhead_frac is 0 here by construction. serve.wait is
  // the self time of serve.batch: seal to response, minus stream.tick. ----
  std::vector<double> wait_v;
  if (spec.spans != nullptr) {
    SpanLog& log = *spec.spans;
    // Seal and first admission of each batch, from the driver's clock.
    std::vector<std::vector<double>> seal(n, std::vector<double>(ticks, 0.0));
    std::vector<std::vector<double>> first_admit(
        n, std::vector<double>(ticks, -1.0));
    for (size_t i = first; i < total; ++i) {
      const fta::ServeRequest& r = reqs[i];
      if (first_admit[r.center][r.tick] < 0.0) {
        first_admit[r.center][r.tick] = sub_start[i];
      }
      if (r.final_in_tick) seal[r.center][r.tick] = sub_end[i];
    }
    std::vector<std::vector<uint64_t>> batch_id(
        n, std::vector<uint64_t>(ticks, 0));
    size_t off_tolerance = 0;
    for (uint32_t c = 0; c < n; ++c) {
      const std::vector<fta::ServeResponse>& rs = server.responses(c);
      for (uint64_t t = warmup; t < ticks; ++t) {
        const fta::TickStats& s = rs[t].stats;
        const uint64_t key = c * ticks + t;
        const double end = resp_ms[c][t];
        const double begin = seal[c][t];
        const uint64_t b = log.Add("serve.batch", 0, key, begin, end - begin);
        batch_id[c][t] = b;
        const double tick_begin = end - s.tick_ms;
        const uint64_t tk =
            log.Add("stream.tick", b, key, tick_begin, s.tick_ms);
        // TickEngine runs ingest, catalog, projection, solve, digest in
        // that order; the durations are the batch's own TickStats, the
        // placement inside the tick is approximate.
        double at = tick_begin;
        log.Add(s.used_delta ? "vdps.delta" : "vdps.generate", tk, key, at,
                s.catalog_ms);
        at += s.catalog_ms;
        log.Add("stream.project", tk, key, at, s.project_ms);
        at += s.project_ms;
        log.Add("game.solve", tk, key, at, s.solve_ms);
        // Stage-sum check against the server's own stopwatch, which runs
        // from first admission to response emission.
        const double server_seal_to_emit =
            rs[t].latency_ms - (begin - first_admit[c][t]);
        if (std::abs((end - begin) - server_seal_to_emit) >
            kStageSumToleranceMs) {
          ++off_tolerance;
        }
      }
    }
    for (size_t i = first; i < total; ++i) {
      const fta::ServeRequest& r = reqs[i];
      log.Add("serve.submit", batch_id[r.center][r.tick],
              r.center * ticks + r.tick, sub_start[i],
              sub_end[i] - sub_start[i]);
    }
    const size_t checked = n * measured;
    std::fprintf(stderr,
                 "stage sums: %zu of %zu batches off by more than %.1f ms\n",
                 off_tolerance, checked, kStageSumToleranceMs);
    if (static_cast<double>(off_tolerance) >
        kStageSumSlack * static_cast<double>(checked)) {
      res.Fail(std::to_string(off_tolerance) + " of " +
               std::to_string(checked) +
               " batches: serve.wait + stream.tick differ from the server's "
               "seal-to-response time by more than " +
               std::to_string(kStageSumToleranceMs) + " ms");
    }
    wait_v = log.SelfTimes()["serve.batch"];
  }
  L["serve.wait_ms_p50"] = Quantile(wait_v, 0.5);
  L["serve.wait_ms_p99"] = Quantile(wait_v, 0.99);
  L["trace.overhead_frac"] = 0.0;

  std::fprintf(stderr,
               "%s: setup %.2f s; batch tick p50 %.3f ms p99 %.3f ms; "
               "runner busy %.3f; slo miss %.4f; live workers %.1f dps %.1f\n",
               rush ? "serve-rush" : "serve-steady", res.e2e["setup_s"],
               L["stream.tick_ms_p50"], L["stream.tick_ms_p99"],
               L["serve.runner_busy_frac"], L["serve.slo_miss_frac"],
               L["stream.live_workers_mean"], L["stream.live_dps_mean"]);
  return res;
}

}  // namespace perfbench

// syn-batch: the paper's SYN experiment at full scale (50 centers, 2000
// workers, 5000 delivery points, 100K tasks, eps = 2 km, maxDP = 3,
// e = 2 h). One repetition builds every center's catalog with
// VdpsCatalog::Generate and solves it with SolveFgt and then SolveIegt,
// one center per job on a pool of kThreads. A center job's latency is its
// own wall time, Generate through SolveIegt.
//
// Set-up (timed as setup_s): generate the instances, solve each once with
// RunOnMulti(kFgt) as the cross-check reference, and run one unmeasured
// warm-up repetition per instance.

#include <cstdio>
#include <string>
#include <vector>

#include "datagen/synthetic.h"
#include "exp/runner.h"
#include "game/fgt.h"
#include "game/iegt.h"
#include "model/assignment.h"
#include "util/math_util.h"
#include "util/thread_pool.h"
#include "vdps/catalog.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// SYN instances drawn from one run's seed; repetitions cycle through
/// them and the reported numbers average over them, so no single draw of
/// center sizes sets a run's result.
constexpr size_t kInstances = 8;
/// Minimum measured repetitions per instance, even when they outlast
/// --seconds.
constexpr size_t kMinReps = 3;

/// Everything one center job produces.
struct CenterRun {
  double start_ms = 0.0;
  double gen_ms = 0.0;
  double fgt_ms = 0.0;
  double iegt_ms = 0.0;
  double end_ms = 0.0;
  fta::GenerationCounters gen;
  fta::GameResult fgt;
  fta::GameResult iegt;
};

/// The solver options RunOnMulti is given; CenterSeed reproduces its
/// per-center seed derivation so the pooled FGT result must match it.
fta::SolverOptions Options() {
  fta::SolverOptions options;
  options.vdps.epsilon = 2.0;
  options.vdps.max_set_size = 3;
  return options;
}

uint64_t CenterSeed(const fta::SolverOptions& options, size_t c) {
  return options.seed * 1000003 + c;
}

std::string InstanceDigest(const fta::MultiCenterInstance& multi) {
  std::string bytes;
  auto put = [&bytes](double v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (const fta::Instance& inst : multi.centers) {
    put(inst.center().x);
    put(inst.center().y);
    for (const fta::Worker& w : inst.workers()) {
      put(w.location.x);
      put(w.location.y);
      put(static_cast<double>(w.max_delivery_points));
    }
    for (const fta::DeliveryPoint& dp : inst.delivery_points()) {
      put(dp.location().x);
      put(dp.location().y);
      put(static_cast<double>(dp.task_count()));
      put(dp.earliest_expiry());
    }
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a(bytes)));
  return hex;
}

}  // namespace

WorkloadResult RunSynBatch(const RunSpec& spec) {
  WorkloadResult res;
  const double setup_start = NowMs();
  std::vector<fta::MultiCenterInstance> instances;
  std::string digests;
  for (size_t k = 0; k < kInstances; ++k) {
    fta::SynConfig syn;  // the paper's defaults
    syn.seed = spec.seed * kInstances + k;
    if (spec.toy) syn = fta::ScaleSyn(syn, 0.02);
    instances.push_back(fta::GenerateSyn(syn));
    digests += InstanceDigest(instances.back());
  }
  if (spec.input_digest_only) {
    std::printf("input_digest %s\n", digests.c_str());
    return res;
  }
  const fta::SolverOptions options = Options();
  std::vector<fta::RunMetrics> refs;
  for (const fta::MultiCenterInstance& multi : instances) {
    refs.push_back(
        fta::RunOnMulti(fta::Algorithm::kFgt, multi, options, kThreads));
  }
  if (spec.corrupt_reference) refs[0].payoff_difference += 1.0;

  fta::ThreadPool pool(kThreads);
  const fta::MultiCenterInstance* multi = &instances[0];
  std::vector<CenterRun> runs;
  uint64_t rep_span = 0;
  auto job = [&](size_t c) {
    const fta::Instance& inst = multi->centers[c];
    CenterRun& r = runs[c];
    r.start_ms = NowMs();
    const fta::VdpsCatalog catalog =
        fta::VdpsCatalog::Generate(inst, options.vdps);
    const double t1 = NowMs();
    fta::FgtConfig fgt = options.fgt;
    fgt.seed ^= CenterSeed(options, c);
    r.fgt = fta::SolveFgt(inst, catalog, fgt);
    const double t2 = NowMs();
    fta::IegtConfig iegt = options.iegt;
    iegt.seed ^= CenterSeed(options, c);
    r.iegt = fta::SolveIegt(inst, catalog, iegt);
    r.end_ms = NowMs();
    r.gen = catalog.generation();
    r.gen_ms = t1 - r.start_ms;
    r.fgt_ms = t2 - t1;
    r.iegt_ms = r.end_ms - t2;
    if (spec.spans != nullptr) {
      spec.spans->Add("vdps.generate", rep_span, c, r.start_ms, r.gen_ms);
      spec.spans->Add("game.fgt", rep_span, c, t1, r.fgt_ms);
      spec.spans->Add("game.iegt", rep_span, c, t2, r.iegt_ms);
    }
  };

  // Checks one finished repetition of instance k: every assignment valid,
  // the pooled FGT fairness equal to RunOnMulti's, IEGT equal across
  // repetitions.
  std::vector<double> iegt_pdif(kInstances, -1.0), iegt_payoff(kInstances);
  auto check = [&](size_t k) {
    std::vector<double> fgt_pay, iegt_pay;
    for (size_t c = 0; c < runs.size(); ++c) {
      const fta::Instance& inst = instances[k].centers[c];
      for (const fta::GameResult* g : {&runs[c].fgt, &runs[c].iegt}) {
        const fta::Status st = g->assignment.Validate(inst);
        if (!st.ok()) {
          res.Fail("center " + std::to_string(c) +
                   " assignment invalid: " + st.ToString());
          return;
        }
      }
      const std::vector<double> f = runs[c].fgt.assignment.Payoffs(inst);
      const std::vector<double> i = runs[c].iegt.assignment.Payoffs(inst);
      fgt_pay.insert(fgt_pay.end(), f.begin(), f.end());
      iegt_pay.insert(iegt_pay.end(), i.begin(), i.end());
    }
    if (fta::MeanAbsolutePairwiseDifference(fgt_pay) !=
            refs[k].payoff_difference ||
        fta::Mean(fgt_pay) != refs[k].average_payoff) {
      res.Fail("pooled FGT P_dif / average payoff differ from RunOnMulti");
      return;
    }
    const double ip = fta::MeanAbsolutePairwiseDifference(iegt_pay);
    const double ia = fta::Mean(iegt_pay);
    if (iegt_pdif[k] >= 0.0 && (ip != iegt_pdif[k] || ia != iegt_payoff[k])) {
      res.Fail("IEGT result changed between repetitions");
      return;
    }
    iegt_pdif[k] = ip;
    iegt_payoff[k] = ia;
  };
  // One repetition: every center of instance k, one pool job per center.
  auto solve = [&](size_t k) {
    multi = &instances[k];
    runs.assign(multi->centers.size(), CenterRun());
    pool.RunBatch(runs.size(), job);
  };

  // Warm-up: one unmeasured (but checked) repetition per instance.
  for (size_t k = 0; k < kInstances && res.correct; ++k) {
    solve(k);
    check(k);
  }
  if (!res.correct) return res;
  res.e2e["setup_s"] = (NowMs() - setup_start) / 1e3;

  // ---- Measured repetitions. ----
  std::vector<std::vector<double>> rep_ms(kInstances);
  std::vector<double> job_latency, lag;
  std::vector<double> gen_ms, adj_ms, enum_ms, fin_ms, strat_ms, states,
      entries, strategies;
  std::vector<double> fgt_ms, iegt_ms, solve_ms, fgt_rounds, iegt_rounds,
      scanned, skips;
  double converged = 0.0, solves = 0.0;
  const double rec_before =
      spec.spans != nullptr ? spec.spans->recording_ms() : 0.0;
  const double begin = NowMs();
  double prev_end = begin;
  size_t reps = 0;
  while (res.correct && (reps < kMinReps * kInstances ||
                         NowMs() - begin < spec.seconds * 1e3)) {
    const size_t k = reps % kInstances;
    const double rep_start = NowMs();
    lag.push_back(rep_start - prev_end);
    const uint64_t key = reps++;
    if (spec.spans != nullptr) {
      // The rep span is opened before its children run and its duration
      // patched in below; children only need its id.
      rep_span = spec.spans->Add("batch.rep", 0, key, rep_start, 0.0);
    }
    solve(k);
    prev_end = NowMs();
    rep_ms[k].push_back(prev_end - rep_start);
    if (spec.spans != nullptr) {
      spec.spans->SetDuration(rep_span, prev_end - rep_start);
    }
    check(k);
    for (const CenterRun& r : runs) {
      job_latency.push_back(r.end_ms - r.start_ms);
      gen_ms.push_back(r.gen_ms);
      adj_ms.push_back(r.gen.adjacency_ms);
      enum_ms.push_back(r.gen.enumerate_ms);
      fin_ms.push_back(r.gen.finalize_ms);
      strat_ms.push_back(r.gen.strategies_ms);
      states.push_back(static_cast<double>(r.gen.states_expanded));
      entries.push_back(static_cast<double>(r.gen.entries));
      strategies.push_back(static_cast<double>(r.gen.strategies));
      fgt_ms.push_back(r.fgt_ms);
      iegt_ms.push_back(r.iegt_ms);
      solve_ms.push_back(r.fgt_ms);
      solve_ms.push_back(r.iegt_ms);
      fgt_rounds.push_back(r.fgt.rounds);
      iegt_rounds.push_back(r.iegt.rounds);
      for (const fta::GameResult* g : {&r.fgt, &r.iegt}) {
        scanned.push_back(static_cast<double>(g->engine.strategies_scanned));
        skips.push_back(static_cast<double>(g->engine.cache_skips));
        converged += g->converged ? 1.0 : 0.0;
        solves += 1.0;
      }
    }
  }
  const double measured_ms = NowMs() - begin;
  if (!res.correct) return res;

  res.attempted = job_latency.size();
  res.failed = 0;
  double solve_ms_sum = 0.0, pdif = 0.0, payoff = 0.0;
  for (size_t k = 0; k < kInstances; ++k) {
    solve_ms_sum += Quantile(rep_ms[k], 0.5);
    pdif += refs[k].payoff_difference;
    payoff += refs[k].average_payoff;
  }
  const double instances_d = static_cast<double>(kInstances);
  res.e2e["latency_p50_ms"] = Quantile(job_latency, 0.5);
  res.e2e["latency_p99_ms"] = Quantile(job_latency, 0.99);
  res.e2e["batch_solve_ms"] = solve_ms_sum / instances_d;
  res.e2e["fgt.pdif"] = pdif / instances_d;
  res.e2e["fgt.avg_payoff"] = payoff / instances_d;
  res.e2e["peak_rss_mb"] = PeakRssMb();

  double states_sum = 0.0, entries_sum = 0.0, scanned_sum = 0.0,
         skips_sum = 0.0;
  for (double v : states) states_sum += v;
  for (double v : entries) entries_sum += v;
  for (double v : scanned) scanned_sum += v;
  for (double v : skips) skips_sum += v;
  std::map<std::string, double>& L = res.layer;
  L["vdps.generate_ms"] = MeanOf(gen_ms);
  L["vdps.adjacency_ms"] = MeanOf(adj_ms);
  L["vdps.enumerate_ms"] = MeanOf(enum_ms);
  L["vdps.finalize_ms"] = MeanOf(fin_ms);
  L["vdps.strategies_ms"] = MeanOf(strat_ms);
  L["vdps.states_expanded"] = MeanOf(states);
  L["vdps.entries"] = MeanOf(entries);
  L["vdps.strategies"] = MeanOf(strategies);
  L["vdps.entries_per_state"] =
      states_sum > 0.0 ? entries_sum / states_sum : 0.0;
  L["game.fgt_ms"] = MeanOf(fgt_ms);
  L["game.iegt_ms"] = MeanOf(iegt_ms);
  L["game.solve_ms_p50"] = Quantile(solve_ms, 0.5);
  L["game.solve_ms_p99"] = Quantile(solve_ms, 0.99);
  L["game.fgt_rounds"] = MeanOf(fgt_rounds);
  L["game.iegt_rounds"] = MeanOf(iegt_rounds);
  L["game.strategies_scanned"] = MeanOf(scanned);
  L["game.cache_skips"] = MeanOf(skips);
  L["game.cache_hit_frac"] = scanned_sum + skips_sum > 0.0
                                 ? skips_sum / (scanned_sum + skips_sum)
                                 : 0.0;
  L["game.converged_frac"] = solves > 0.0 ? converged / solves : 0.0;
  L["game.iegt_pdif"] = MeanOf(iegt_pdif);
  L["game.iegt_avg_payoff"] = MeanOf(iegt_payoff);
  L["driver.lag_p99_ms"] = Quantile(lag, 0.99);
  L["trace.overhead_frac"] =
      spec.spans != nullptr
          ? (spec.spans->recording_ms() - rec_before) / measured_ms
          : 0.0;

  std::fprintf(stderr,
               "syn-batch: %zu centers, %zu reps; rep median %.1f ms, job "
               "p50 %.1f ms p99 %.1f ms; generate %.1f ms, fgt %.1f ms, "
               "iegt %.1f ms per center\n",
               instances[0].centers.size(), reps, res.e2e["batch_solve_ms"],
               res.e2e["latency_p50_ms"], res.e2e["latency_p99_ms"],
               L["vdps.generate_ms"], L["game.fgt_ms"], L["game.iegt_ms"]);
  return res;
}

}  // namespace perfbench

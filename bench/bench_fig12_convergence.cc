// Figure 12: convergence of the game-theoretic approaches. Prints the
// per-iteration payoff difference and average payoff of FGT and IEGT on
// the default configuration of both datasets, plus FGT's exact potential
// (which must be monotonically non-decreasing — the convergence guarantee
// of the refined Lemma 2).

#include "bench/common.h"

namespace fta {
namespace bench {
namespace {

void PrintTrace(const char* name, const GameResult& result,
                bool with_potential) {
  std::vector<std::string> header{"metric"};
  for (const IterationStats& s : result.trace) {
    header.push_back(StrFormat("it%d", s.iteration));
  }
  ResultTable t(std::string(name) +
                    StrFormat(" (converged=%s, %d rounds)",
                              result.converged ? "yes" : "no",
                              result.rounds),
                header);
  std::vector<double> pdif, avg, phi, changes, scanned;
  for (const IterationStats& s : result.trace) {
    pdif.push_back(s.payoff_difference);
    avg.push_back(s.average_payoff);
    phi.push_back(s.potential);
    changes.push_back(static_cast<double>(s.num_changes));
    scanned.push_back(static_cast<double>(s.engine.strategies_scanned));
  }
  t.AddNumericRow("P_dif", pdif);
  t.AddNumericRow("avg payoff", avg);
  if (with_potential) t.AddNumericRow("potential", phi);
  t.AddNumericRow("moves", changes);
  t.AddNumericRow("scanned", scanned);
  std::printf("%s\n", t.ToText().c_str());
}

void RunOn(const char* dataset, const Instance& instance,
           const SolverOptions& options) {
  const VdpsCatalog catalog = VdpsCatalog::Generate(instance, options.vdps);
  std::printf("[%s] %s\n\n", dataset, catalog.Summary().c_str());

  FgtConfig fgt = options.fgt;
  fgt.record_trace = true;
  PrintTrace((std::string("Fig 12 — FGT convergence on ") + dataset).c_str(),
             SolveFgt(instance, catalog, fgt), /*with_potential=*/true);

  IegtConfig iegt = options.iegt;
  iegt.record_trace = true;
  PrintTrace(
      (std::string("Fig 12 — IEGT convergence on ") + dataset).c_str(),
      SolveIegt(instance, catalog, iegt), /*with_potential=*/false);
}

void Main() {
  PrintHeader("Figure 12 — convergence of FGT and IEGT");
  RunOn("GM", GenerateGMissionLike(GmDefault(), GmPrepDefault()),
        GmOptions());
  const MultiCenterInstance syn = GenerateSyn(SynDefault());
  // Trace the most populated center (traces are per-population).
  size_t biggest = 0;
  for (size_t c = 1; c < syn.centers.size(); ++c) {
    if (syn.centers[c].num_workers() >
        syn.centers[biggest].num_workers()) {
      biggest = c;
    }
  }
  RunOn("SYN (largest center)", syn.centers[biggest], SynOptions());
}

}  // namespace
}  // namespace bench
}  // namespace fta

int main() { fta::bench::Main(); }

#include "game/iegt.h"

#include <vector>

#include "game/best_response.h"
#include "game/init.h"
#include "game/solver_metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace fta {

std::vector<double> ReplicatorDynamics(const JointState& state) {
  const std::vector<double>& payoffs = state.payoffs();
  const size_t n = payoffs.size();
  std::vector<double> dynamics(n, 0.0);
  if (n == 0) return dynamics;
  const double avg = Mean(payoffs);
  const double share = 1.0 / static_cast<double>(n);  // σ_km, Equations 12-13
  for (size_t w = 0; w < n; ++w) {
    // Workers on the null strategy hold no population share of any VDPS.
    const double sigma = state.strategy_of(w) == kNullStrategy ? 0.0 : share;
    dynamics[w] = sigma * (payoffs[w] - avg);  // Equation 11
  }
  return dynamics;
}

namespace {

IterationStats Snapshot(const JointState& state, int iteration,
                        size_t num_changes, double p_dif,
                        const BestResponseCounters& engine_delta) {
  // `p_dif` comes from the engine's payoff ledger, computed once per round
  // and shared with the early-stop rule (see SolveFgt).
  IterationStats s;
  s.iteration = iteration;
  s.payoff_difference = p_dif;
  s.average_payoff = Mean(state.payoffs());
  s.num_changes = num_changes;
  s.engine = engine_delta;
  return s;
}

}  // namespace

GameResult SolveIegt(const Instance& instance, const VdpsCatalog& catalog,
                     const IegtConfig& config) {
  FTA_SPAN("game/iegt/solve");
  JointState state(instance, catalog);
  Rng rng(config.seed);
  if (config.warm_start != nullptr) {
    // See SolveFgt: the seed comes from the dispatcher's delta projection,
    // so invalidity is a programming error.
    FTA_CHECK_OK(SeedInit(state, *config.warm_start));
  } else {
    RandomSingletonInit(state, rng);
  }
  BestResponseEngine engine(state, IauParams(), config.engine);

  GameResult result;
  if (config.record_trace) {
    result.trace.push_back(Snapshot(state, 0, 0,
                                    engine.ledger().PayoffDifference(),
                                    BestResponseCounters()));
  }

  std::vector<int32_t> better;  // reused candidate buffer
  EarlyStopMonitor early(config.early_stop);
  for (int round = 1; round <= config.max_rounds; ++round) {
    FTA_SPAN("game/iegt/round");
    // Ū is computed once per iteration: all players compare their utility
    // with the average utility of the whole population (Section VI-C).
    const double avg = Mean(state.payoffs());
    const BestResponseCounters round_start = engine.counters();
    size_t changes = 0;
    for (size_t w = 0; w < instance.num_workers(); ++w) {
      // σ̇_km < 0 ⇔ the worker's payoff is below the population average
      // (null-strategy workers have σ = 0 but may still enter the game by
      // natural selection when any positive-payoff strategy is available —
      // σ̇ = 0 with payoff 0 is never better than evolving).
      const double payoff = state.payoff_of(w);
      const bool pressured = payoff < avg - kEps;
      if (!pressured) continue;
      engine.AvailableAbovePayoff(w, payoff, better);
      if (!better.empty()) {
        engine.Apply(w, better[rng.Index(better.size())]);
        ++changes;
      }
    }
    result.rounds = round;
    // Round-boundary contracts (see SolveFgt): bookkeeping and the payoff
    // ledger stay exact across evolution moves.
    FTA_DCHECK_OK(state.ValidateInvariants());
    FTA_DCHECK_OK(engine.ValidateLedger());
    // One sort-free P_dif per round, shared by the trace snapshot and the
    // early-stop rule.
    const double p_dif = engine.ledger().PayoffDifference();
    if (config.record_trace) {
      result.trace.push_back(Snapshot(state, round, changes, p_dif,
                                      engine.counters() - round_start));
    }
    if (changes == 0) {
      // Improved evolutionary equilibrium: σ̇_k(t) = 0 or st^t == st^{t-1}.
      result.converged = true;
      break;
    }
    if (early.ShouldStop(p_dif)) {
      result.early_stopped = true;
      break;
    }
  }
  result.assignment = state.ToAssignment();
  result.engine = engine.counters();
  PublishGameRun("game/iegt", result);
  return result;
}

}  // namespace fta

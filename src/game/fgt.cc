#include "game/fgt.h"

#include <algorithm>
#include <vector>

#include "game/best_response.h"
#include "game/init.h"
#include "game/potential.h"
#include "game/solver_metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace fta {
namespace {

IterationStats Snapshot(const JointState& state, int iteration,
                        size_t num_changes, double alpha, double p_dif,
                        const BestResponseCounters& engine_delta) {
  // `p_dif` is the round's payoff difference, served sort-free by the
  // engine's payoff ledger and computed exactly once per round — the trace
  // row, the potential, and the early-stop rule all share it (it used to be
  // recomputed per consumer, each time with a fresh sort).
  IterationStats s;
  s.iteration = iteration;
  s.payoff_difference = p_dif;
  s.average_payoff = Mean(state.payoffs());
  s.potential = ExactPotential(state.payoffs(), alpha, p_dif);
  s.num_changes = num_changes;
  s.engine = engine_delta;
  return s;
}

}  // namespace

int32_t BestResponse(const JointState& state, size_t w,
                     const IauParams& params) {
  // One-shot scan, serial. Evaluate never mutates the state.
  BestResponseConfig config;
  config.num_threads = 1;
  BestResponseEngine engine(const_cast<JointState&>(state), params, config);
  return engine.BestResponse(w);
}

GameResult SolveFgt(const Instance& instance, const VdpsCatalog& catalog,
                    const FgtConfig& config) {
  FTA_SPAN("game/fgt/solve");
  JointState state(instance, catalog);
  Rng rng(config.seed);
  if (config.warm_start != nullptr) {
    // The dispatcher projects the previous equilibrium through the catalog
    // delta, so an invalid seed is a programming error, not bad input.
    FTA_CHECK_OK(SeedInit(state, *config.warm_start));
  } else {
    RandomSingletonInit(state, rng);
  }
  BestResponseEngine engine(state, config.iau, config.engine);

  GameResult result;
  if (config.record_trace) {
    result.trace.push_back(Snapshot(state, 0, 0, config.iau.alpha,
                                    engine.ledger().PayoffDifference(),
                                    BestResponseCounters()));
  }

  // Sequential asynchronous best responses (lines 18-24): one worker moves
  // at a time; a full round with zero moves is the Nash equilibrium
  // condition W.st^t == W.st^{t-1}.
  EarlyStopMonitor early(config.early_stop);
  std::vector<size_t> order(instance.num_workers());
  for (size_t w = 0; w < order.size(); ++w) order[w] = w;
  for (int round = 1; round <= config.max_rounds; ++round) {
    FTA_SPAN("game/fgt/round");
    switch (config.order) {
      case UpdateOrder::kSequential:
        break;  // keep worker-id order
      case UpdateOrder::kRandomPermutation:
        rng.Shuffle(order);
        break;
      case UpdateOrder::kLowestPayoffFirst:
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                           return state.payoff_of(a) < state.payoff_of(b);
                         });
        break;
    }
    const BestResponseCounters round_start = engine.counters();
    size_t changes = 0;
    for (size_t w : order) {
      if (engine.Step(w)) ++changes;
    }
    result.rounds = round;
    // Round-boundary contracts: state bookkeeping and the payoff ledger
    // must be exact after every full round of moves.
    FTA_DCHECK_OK(state.ValidateInvariants());
    FTA_DCHECK_OK(engine.ValidateLedger());
    // One sort-free P_dif per round, shared by the trace snapshot and the
    // early-stop rule (each used to pay its own copy-and-sort).
    const double p_dif = engine.ledger().PayoffDifference();
    if (config.record_trace) {
      result.trace.push_back(Snapshot(state, round, changes, config.iau.alpha,
                                      p_dif, engine.counters() - round_start));
    }
    if (changes == 0) {
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
  PublishGameRun("game/fgt", result);
  return result;
}

}  // namespace fta

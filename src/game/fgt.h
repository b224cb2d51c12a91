#ifndef FTA_GAME_FGT_H_
#define FTA_GAME_FGT_H_

#include <vector>

#include "game/best_response.h"
#include "game/iau.h"
#include "game/joint_state.h"
#include "game/trace.h"
#include "model/instance.h"
#include "vdps/catalog.h"

namespace fta {

/// Order in which workers take their best-response turns within a round.
/// The potential-game convergence guarantee holds for any order; the order
/// selects *which* equilibrium is reached (and how fast).
enum class UpdateOrder {
  /// Fixed worker-id order — the paper's "played in sequence".
  kSequential,
  /// A fresh uniformly random permutation every round.
  kRandomPermutation,
  /// Workers with the lowest current payoff move first each round (gives
  /// disadvantaged workers first pick; an equilibrium-selection heuristic).
  kLowestPayoffFirst,
};

/// Configuration of the Fairness-aware Game-Theoretic solver (Algorithm 2).
struct FgtConfig {
  /// Inequity-aversion weights; the paper uses 0.5 / 0.5. An exact
  /// potential (guaranteed Nash convergence) requires alpha == beta.
  IauParams iau;
  /// Best-response turn order within a round.
  UpdateOrder order = UpdateOrder::kSequential;
  /// Hard cap on best-response rounds (a round updates every worker once).
  int max_rounds = 200;
  /// Seed for the random initial singleton assignment.
  uint64_t seed = 42;
  /// Record per-round statistics (Figure 12).
  bool record_trace = false;
  /// Optional early termination (patience = 0 disables; see EarlyStopRule).
  EarlyStopRule early_stop;
  /// Best-response engine tuning (threads, payoff ledger).
  /// Assignments are bit-identical across all engine settings.
  BestResponseConfig engine;
  /// Warm-start joint strategy (one index into the catalog's per-worker
  /// strategy lists, kNullStrategy for idle; must be Definition-8 valid).
  /// When set it replaces the random singleton initialization — the
  /// streaming dispatcher seeds each tick's solve from the previous
  /// equilibrium projected through the catalog delta. Not owned; must
  /// outlive the solve call.
  const std::vector<int32_t>* warm_start = nullptr;
};

/// Fairness-aware Game-Theoretic approach (Algorithm 2): random singleton
/// initialization, then sequential asynchronous best responses on IAU until
/// no worker changes strategy (pure Nash equilibrium) or max_rounds.
GameResult SolveFgt(const Instance& instance, const VdpsCatalog& catalog,
                    const FgtConfig& config = FgtConfig());

/// The best-response strategy index of worker w in the given state
/// (Equation 10): the available VDPS (or kNullStrategy) maximizing the
/// worker's IAU against the other workers' current payoffs. Ties keep the
/// current strategy; remaining ties pick the lowest index. Convenience
/// wrapper over a one-shot BestResponseEngine scan.
int32_t BestResponse(const JointState& state, size_t w,
                     const IauParams& params);

}  // namespace fta

#endif  // FTA_GAME_FGT_H_

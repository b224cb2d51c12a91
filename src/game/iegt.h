#ifndef FTA_GAME_IEGT_H_
#define FTA_GAME_IEGT_H_

#include <vector>

#include "game/best_response.h"
#include "game/joint_state.h"
#include "game/trace.h"
#include "model/instance.h"
#include "vdps/catalog.h"

namespace fta {

/// Configuration of the Improved Evolutionary Game-Theoretic solver
/// (Algorithm 3).
struct IegtConfig {
  /// Hard cap on evolution iterations.
  int max_rounds = 500;
  /// Seed for the initial assignment and the random strategy mutations.
  uint64_t seed = 42;
  /// Record per-iteration statistics (Figure 12).
  bool record_trace = false;
  /// Optional early termination (patience = 0 disables; see EarlyStopRule).
  EarlyStopRule early_stop;
  /// Shared engine tuning (threads, payoff ledger); the candidate set is
  /// unchanged by it.
  BestResponseConfig engine;
  /// Warm-start joint strategy (see FgtConfig::warm_start): replaces the
  /// random singleton initialization when set. Not owned; must outlive the
  /// solve call.
  const std::vector<int32_t>* warm_start = nullptr;
};

/// Per-worker replicator dynamics σ̇_km(t) (Equation 11) of the current
/// joint strategy: σ̇ for worker i is σ_km (U_i − Ū) with σ_km the
/// population share of the worker's strategy (Equations 12-13, = 1/|G_k|
/// for an in-use strategy since strategies are distinct per worker) and Ū
/// the population's average utility (Equation 14). Workers on the null
/// strategy have utility 0. Negative σ̇ marks workers pressured to evolve.
std::vector<double> ReplicatorDynamics(const JointState& state);

/// Improved Evolutionary Game-Theoretic approach (Algorithm 3): random
/// singleton initialization, then repeated evolution — every worker whose
/// replicator dynamics is negative (payoff below the population average)
/// switches to a uniformly random available VDPS with a strictly higher
/// payoff, when one exists. Terminates at the improved evolutionary
/// equilibrium: σ̇ = 0 (all payoffs equal) or a fixed joint strategy.
GameResult SolveIegt(const Instance& instance, const VdpsCatalog& catalog,
                     const IegtConfig& config = IegtConfig());

}  // namespace fta

#endif  // FTA_GAME_IEGT_H_

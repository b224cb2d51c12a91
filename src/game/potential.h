#ifndef FTA_GAME_POTENTIAL_H_
#define FTA_GAME_POTENTIAL_H_

#include <vector>

namespace fta {

/// Exact potential of the FTA game for symmetric inequity aversion
/// (alpha == beta == a), a refinement of the paper's Lemma 2:
///
///   Φ(st) = Σ_k P_k − (a / (|W|−1)) · Σ_{k<l} |P_k − P_l|
///
/// A unilateral payoff change of worker i changes Φ by exactly
/// ΔU_i = ΔP_i − (a/(|W|−1)) Σ_{j≠i} Δ|P_i − P_j|, so best responses
/// monotonically increase Φ and a pure Nash equilibrium exists.
///
/// Equivalently Φ = |W|·avgPayoff − (a·|W|/2)·P_dif: the potential rewards
/// average payoff and penalizes unfairness — precisely the FTA objectives.
///
/// The paper's own potential Σ_i IAU_i (Equation 9) is exact only under the
/// approximation that other workers' IAU terms are unaffected; this Φ is
/// exact without that approximation. For alpha != beta no exact potential
/// is known; FGT then still runs but convergence is enforced by a round cap.
double ExactPotential(const std::vector<double>& payoffs, double alpha);

/// Same Φ computed from an already-known P_dif, which must equal
/// MeanAbsolutePairwiseDifference(payoffs) — the callers that already
/// paid for the per-round P_dif (FGT snapshots, the payoff ledger) reuse
/// it here instead of re-sorting. Bit-identical to the two-argument
/// overload by construction: both run the same expressions on the same
/// values.
double ExactPotential(const std::vector<double>& payoffs, double alpha,
                      double payoff_difference);

}  // namespace fta

#endif  // FTA_GAME_POTENTIAL_H_

#ifndef FTA_GAME_IAU_H_
#define FTA_GAME_IAU_H_

#include <cstddef>
#include <vector>

namespace fta {

/// Parameters of the Inequity Aversion based Utility (Equation 5). The
/// paper's experiments fix alpha = beta = 0.5; alpha weights disadvantageous
/// inequity (others earn more: MP), beta advantageous inequity (LP).
struct IauParams {
  double alpha = 0.5;
  double beta = 0.5;
};

/// IAU of a worker with payoff `own` among `others` (the remaining |W|-1
/// workers' payoffs), directly from Equations 5-7. O(|others|).
///
/// TEST ORACLE ONLY. Production code evaluates through SortedIau /
/// SortedIauBatchArgmax (one shared expression tree, bit-identical across
/// the ledger and rebuild views); this naive transliteration of
/// the paper's equations survives as the independent cross-check in
/// game_test / payoff_ledger_test / property_test and the BM_IauNaive
/// baseline. Its accumulation order differs from the sorted kernels', so
/// results agree only to tolerance, never bit for bit.
double Iau(double own, const std::vector<double>& others,
           const IauParams& params);

/// Shared evaluation kernels over an ascending payoff sequence with prefix
/// sums (prefix[k] = sum of the first k values; prefix has n + 1 entries).
/// Both OthersView and the PayoffLedger's exclude-one scratch view
/// (game/payoff_ledger.h) evaluate through exactly these functions — one
/// compiled instance — which is what makes the ledger fast path
/// bit-identical to the rebuild path by construction.
double SortedMp(const double* values, size_t n, const double* prefix,
                double own);
double SortedLp(const double* values, size_t n, const double* prefix,
                double own);
double SortedIau(const double* values, size_t n, const double* prefix,
                 double own, const IauParams& params);

/// Precomputed view over the *other* workers' payoffs that evaluates IAU of
/// a candidate own-payoff in O(log |others|). Build once per best-response
/// call, evaluate once per candidate strategy.
class OthersView {
 public:
  /// `others` are the payoffs of every worker except the responder.
  explicit OthersView(std::vector<double> others);

  size_t size() const { return sorted_.size(); }

  /// MP (Equation 6): total payoff excess of others above `own`.
  double Mp(double own) const;
  /// LP (Equation 7): total payoff excess of `own` above others.
  double Lp(double own) const;
  /// IAU (Equation 5) for a candidate own payoff.
  double Iau(double own, const IauParams& params) const;

  /// Raw ascending values / prefix sums (size() and size() + 1 elements) —
  /// the inputs SortedIauBatchArgmax streams for the engine's batched
  /// candidate scan.
  const double* sorted_values() const { return sorted_.data(); }
  const double* prefix_sums() const { return prefix_.data(); }

 private:
  std::vector<double> sorted_;  // ascending
  std::vector<double> prefix_;  // prefix_[k] = sum of first k
};

}  // namespace fta

#endif  // FTA_GAME_IAU_H_

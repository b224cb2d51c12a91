#ifndef FTA_GAME_PAYOFF_LEDGER_H_
#define FTA_GAME_PAYOFF_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "game/iau.h"
#include "util/status.h"

namespace fta {

/// Work savings of the sorted payoff ledger versus the legacy rebuild path
/// (one heap-allocated, freshly sorted OthersView per best-response call).
/// Purely observational: two runs that differ only in these counters
/// produced identical assignments.
struct LedgerCounters {
  /// Exclude-one views and sorted metric evaluations served without a
  /// sort (each would have been an O(n log n) std::sort on the rebuild
  /// path).
  uint64_t sorts_eliminated = 0;
  /// Bytes the rebuild path would have heap-allocated for the views the
  /// ledger served from its reusable scratch instead.
  uint64_t bytes_not_allocated = 0;
  /// Elements shifted by Update() memmoves to keep the array sorted.
  uint64_t memmove_elements = 0;
  /// Exclude-one views served from the reusable scratch buffer, which is
  /// sized once at Reset() — every one of these was allocation-free (the
  /// steady-state zero-allocation regime).
  uint64_t scratch_reuses = 0;

  LedgerCounters& operator+=(const LedgerCounters& o) {
    sorts_eliminated += o.sorts_eliminated;
    bytes_not_allocated += o.bytes_not_allocated;
    memmove_elements += o.memmove_elements;
    scratch_reuses += o.scratch_reuses;
    return *this;
  }
  friend LedgerCounters operator-(LedgerCounters a, const LedgerCounters& b) {
    a.sorts_eliminated -= b.sorts_eliminated;
    a.bytes_not_allocated -= b.bytes_not_allocated;
    a.memmove_elements -= b.memmove_elements;
    a.scratch_reuses -= b.scratch_reuses;
    return a;
  }
};

/// Read-only exclude-one view over the ledger: the other workers' payoffs
/// in ascending order plus their prefix sums, evaluated through exactly the
/// same kernels as OthersView (game/iau.h), so Mp/Lp/IAU results are
/// bit-identical to a freshly built view. Valid until the next Exclude()
/// or Update() on the owning ledger.
class LedgerView {
 public:
  // FTA_HOT_BEGIN(ledger-view)
  // These accessors sit inside the per-candidate inner loop; fta_lint's
  // hot-path-allocation rule keeps them allocation-free.
  size_t size() const { return values_.size(); }
  double Mp(double own) const {
    return SortedMp(values_.data(), values_.size(), prefix_.data(), own);
  }
  double Lp(double own) const {
    return SortedLp(values_.data(), values_.size(), prefix_.data(), own);
  }
  double Iau(double own, const IauParams& params) const {
    return SortedIau(values_.data(), values_.size(), prefix_.data(), own,
                     params);
  }

  /// Raw ascending values / prefix sums (size() and size() + 1 elements) —
  /// the inputs SortedIauBatchArgmax streams for the engine's batched
  /// candidate scan.
  const double* sorted_values() const { return values_.data(); }
  const double* prefix_sums() const { return prefix_.data(); }
  // FTA_HOT_END(ledger-view)

 private:
  friend class PayoffLedger;
  std::vector<double> values_;  // ascending, |W|-1 once sized
  std::vector<double> prefix_;  // prefix_[k] = sum of first k values
};

/// Incrementally maintained sorted array of all |W| current payoffs plus
/// each worker's slot. Replaces the per-Evaluate rebuild (allocate an
/// `others` vector, sort it, allocate prefix sums — O(|W| log |W|) and two
/// allocations per best-response call) with:
///
///   Update(w, p)   O(shift) memmove, no sort, no allocation;
///   Exclude(w)     copy-minus-one-slot into reusable scratch + one
///                  left-to-right prefix pass, O(|W|), zero allocations
///                  after the first call.
///
/// Bit-identity: Exclude(w) materializes *the same ascending value
/// sequence* std::sort produces from the other workers' payoffs, and the
/// prefix sums follow the canonical blocked accumulation order over that
/// sequence exactly as OthersView does (BlockedPrefixSum in
/// util/math_util.h), so every Mp/Lp/IAU result — and therefore every
/// chosen strategy — matches the rebuild path bit for bit
/// (tests/game_ledger_identity_test.cc pins this across seeds and thread
/// counts). The sorted array also serves the round metrics sort-free:
/// PayoffDifference() and the potential overload reuse the same
/// accumulation MeanAbsolutePairwiseDifference performs after its sort.
///
/// Not thread-safe; owned and serialized by one BestResponseEngine.
class PayoffLedger {
 public:
  PayoffLedger() = default;
  explicit PayoffLedger(const std::vector<double>& payoffs) {
    Reset(payoffs);
  }

  /// Rebuilds the ledger from scratch (O(n log n)); the only sort the
  /// ledger ever performs. Counters persist across resets.
  void Reset(const std::vector<double>& payoffs);

  /// Worker w's payoff changed to `payoff`: slides its slot to the new
  /// position with a memmove. O(distance moved); no sort, no allocation.
  void Update(size_t w, double payoff);

  size_t size() const { return sorted_.size(); }
  /// Current payoff of worker w as recorded in the ledger.
  double value_of(size_t w) const { return sorted_[pos_[w]]; }
  /// All payoffs, ascending.
  const std::vector<double>& sorted() const { return sorted_; }

  /// The exclude-w view (every other worker's payoff, ascending, with
  /// prefix sums) served from reusable scratch. Invalidated by the next
  /// Exclude() or Update().
  const LedgerView& Exclude(size_t w);

  /// P_dif (Equation 2) over the current payoffs, sort-free: exactly the
  /// accumulation MeanAbsolutePairwiseDifference runs after its sort.
  /// const: only the (mutable, observational) counters change.
  double PayoffDifference() const;
  /// Gini over the current payoffs, sort-free (GiniSorted semantics: the
  /// mean accumulates over the ascending sequence).
  double Gini() const;
  /// Exact potential Φ (game/potential.h) with the pairwise term served
  /// by the ledger. `payoffs` must be the same multiset in worker-index
  /// order (the total accumulates over it, exactly as the sorting
  /// overload does).
  double ExactPotential(const std::vector<double>& payoffs,
                        double alpha) const;

  const LedgerCounters& counters() const { return counters_; }

  /// Deep self-check against the authoritative payoff vector
  /// (FTA_VALIDATE contract, called at solver round boundaries): sorted_
  /// ascending, pos_/worker_at_ a consistent bijection, and every slot
  /// bit-identical to its worker's payoff.
  Status Validate(const std::vector<double>& payoffs) const;

 private:
  std::vector<double> sorted_;      // ascending payoffs
  std::vector<uint32_t> worker_at_;  // worker occupying each sorted slot
  std::vector<uint32_t> pos_;        // pos_[w]: slot of worker w
  LedgerView scratch_;
  /// mutable: the const metric getters account the sorts they eliminate.
  mutable LedgerCounters counters_;
};

}  // namespace fta

#endif  // FTA_GAME_PAYOFF_LEDGER_H_

#include "game/payoff_ledger.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "game/potential.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace fta {

void PayoffLedger::Reset(const std::vector<double>& payoffs) {
  const size_t n = payoffs.size();
  // Sort (payoff, worker) pairs by payoff; ties keep worker order for a
  // deterministic slot assignment (slot order among ties never affects
  // values, but determinism keeps Validate and tests simple).
  std::vector<std::pair<double, uint32_t>> order(n);
  for (size_t w = 0; w < n; ++w) {
    order[w] = {payoffs[w], static_cast<uint32_t>(w)};
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  sorted_.resize(n);
  worker_at_.resize(n);
  pos_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    sorted_[i] = order[i].first;
    worker_at_[i] = order[i].second;
    pos_[order[i].second] = static_cast<uint32_t>(i);
  }
  // Size the scratch once; Exclude() never reallocates afterwards.
  scratch_.values_.assign(n == 0 ? 0 : n - 1, 0.0);
  scratch_.prefix_.assign(n == 0 ? 1 : n, 0.0);
}

// FTA_HOT_BEGIN(ledger-steady-state)
// Steady-state region (fta_lint hot-path-allocation): Update/Exclude/
// metric reads run once per accepted move. Reset() above is the one
// sanctioned allocation point — it sizes the scratch these reuse.

void PayoffLedger::Update(size_t w, double payoff) {
  const size_t p = pos_[w];
  const double old = sorted_[p];
  if (payoff > old) {
    // Slide w's slot right to just before the first element > payoff.
    const double* begin = sorted_.data();
    const size_t q = static_cast<size_t>(
        std::upper_bound(begin + p + 1, begin + sorted_.size(), payoff) -
        begin) - 1;
    if (q > p) {
      std::memmove(&sorted_[p], &sorted_[p + 1], (q - p) * sizeof(double));
      for (size_t i = p; i < q; ++i) {
        worker_at_[i] = worker_at_[i + 1];
        pos_[worker_at_[i]] = static_cast<uint32_t>(i);
      }
      counters_.memmove_elements += q - p;
    }
    sorted_[q] = payoff;
    worker_at_[q] = static_cast<uint32_t>(w);
    pos_[w] = static_cast<uint32_t>(q);
  } else if (payoff < old) {
    // Slide left to the first element >= payoff.
    const double* begin = sorted_.data();
    const size_t q = static_cast<size_t>(
        std::lower_bound(begin, begin + p, payoff) - begin);
    if (p > q) {
      std::memmove(&sorted_[q + 1], &sorted_[q], (p - q) * sizeof(double));
      for (size_t i = p; i > q; --i) {
        worker_at_[i] = worker_at_[i - 1];
        pos_[worker_at_[i]] = static_cast<uint32_t>(i);
      }
      counters_.memmove_elements += p - q;
    }
    sorted_[q] = payoff;
    worker_at_[q] = static_cast<uint32_t>(w);
    pos_[w] = static_cast<uint32_t>(q);
  } else {
    // Equal by value (possibly a different zero sign): position holds.
    sorted_[p] = payoff;
  }
}

const LedgerView& PayoffLedger::Exclude(size_t w) {
  const size_t n = sorted_.size();
  const size_t p = pos_[w];
  double* out = scratch_.values_.data();
  if (p > 0) std::memcpy(out, sorted_.data(), p * sizeof(double));
  if (p + 1 < n) {
    std::memcpy(out + p, sorted_.data() + p + 1, (n - 1 - p) * sizeof(double));
  }
  // Exactly OthersView's accumulation over exactly its sorted sequence:
  // the canonical blocked prefix sums (util/math_util.h).
  BlockedPrefixSum(out, n == 0 ? 0 : n - 1, scratch_.prefix_.data());
  ++counters_.sorts_eliminated;
  ++counters_.scratch_reuses;
  // The rebuild path allocates the (n-1)-element `others` vector and the
  // n-element prefix array afresh on every call.
  counters_.bytes_not_allocated +=
      (n == 0 ? 0 : (2 * n - 1)) * sizeof(double);
  return scratch_;
}

double PayoffLedger::PayoffDifference() const {
  ++counters_.sorts_eliminated;
  counters_.bytes_not_allocated += sorted_.size() * sizeof(double);
  return MeanAbsolutePairwiseDifferenceSorted(sorted_);
}

double PayoffLedger::Gini() const {
  ++counters_.sorts_eliminated;
  counters_.bytes_not_allocated += sorted_.size() * sizeof(double);
  return GiniSorted(sorted_);
}

double PayoffLedger::ExactPotential(const std::vector<double>& payoffs,
                                    double alpha) const {
  return fta::ExactPotential(payoffs, alpha, PayoffDifference());
}

// FTA_HOT_END(ledger-steady-state)

Status PayoffLedger::Validate(const std::vector<double>& payoffs) const {
  if (payoffs.size() != sorted_.size() || pos_.size() != sorted_.size() ||
      worker_at_.size() != sorted_.size()) {
    return Status::Internal(
        StrFormat("payoff ledger sized %zu against %zu payoffs",
                  sorted_.size(), payoffs.size()));
  }
  for (size_t i = 0; i + 1 < sorted_.size(); ++i) {
    if (sorted_[i] > sorted_[i + 1]) {
      return Status::Internal(StrFormat(
          "ledger out of order at slot %zu: %.17g > %.17g", i, sorted_[i],
          sorted_[i + 1]));
    }
  }
  for (size_t i = 0; i < sorted_.size(); ++i) {
    const uint32_t w = worker_at_[i];
    if (w >= pos_.size() || pos_[w] != i) {
      return Status::Internal(StrFormat(
          "ledger slot %zu names worker %u whose pos is inconsistent", i,
          w));
    }
  }
  for (size_t w = 0; w < payoffs.size(); ++w) {
    const double recorded = sorted_[pos_[w]];
    if (std::bit_cast<uint64_t>(recorded) !=
        std::bit_cast<uint64_t>(payoffs[w])) {
      return Status::Internal(StrFormat(
          "ledger stale for worker %zu: recorded %.17g, actual %.17g", w,
          recorded, payoffs[w]));
    }
  }
  return Status::Ok();
}

}  // namespace fta

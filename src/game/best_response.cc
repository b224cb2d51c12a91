#include "game/best_response.h"

#include <algorithm>
#include <cmath>

#include "game/iau_kernels.h"
#include "obs/trace.h"
#include "util/math_util.h"
#include "util/simd.h"
#include "vdps/catalog.h"

namespace fta {

BestResponseEngine::BestResponseEngine(JointState& state,
                                       const IauParams& params,
                                       const BestResponseConfig& config)
    : state_(&state), params_(params), config_(config) {
  if (config_.pool != nullptr) {
    // Injected pool: reuse the caller's workers. A 1-thread pool keeps
    // the scan serial, matching the num_threads <= 1 contract.
    if (config_.pool->num_threads() > 1) pool_ = config_.pool;
  } else if (config_.num_threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(config_.num_threads);
    pool_ = owned_pool_.get();
  }
  // The ledger is maintained unconditionally (Apply keeps it coherent
  // either way); use_payoff_ledger only selects which view Evaluate reads.
  // Maintenance costs O(moved elements) per Apply — negligible next to the
  // candidate scan — and keeps the solvers' sort-free round metrics
  // (P_dif, Gini, Φ) available even in the A/B rebuild configuration.
  ledger_.Reset(state_->payoffs());
  // Batch scratch, sized once so the candidate scan never allocates: one
  // slot per potential shard (the Evaluate fan-out uses at most
  // num_threads * 4 shards), each able to hold a full worker's catalog.
  const size_t max_strategies = state_->catalog().MaxStrategiesPerWorker();
  const size_t shard_slots =
      pool_ != nullptr ? pool_->num_threads() * 4 : size_t{1};
  scratch_.resize(std::max<size_t>(size_t{1}, shard_slots));
  for (KernelScratch& s : scratch_) {
    s.owns.assign(max_strategies, 0.0);
    s.indices.assign(max_strategies, 0);
  }
  winners_.resize(scratch_.size());
  shard_counters_.resize(scratch_.size());
}

BestResponseEngine::~BestResponseEngine() = default;

bool BestResponseEngine::Available(size_t w, int32_t idx,
                                   BestResponseCounters& counters) {
  ++counters.strategies_scanned;
  return state_->IsAvailable(w, idx);
}

void BestResponseEngine::Apply(size_t w, int32_t idx) {
  if (state_->strategy_of(w) == idx) return;
  state_->Apply(w, idx);
  ledger_.Update(w, state_->payoff_of(w));
}

// FTA_HOT_BEGIN(best-response-scan)
// Steady-state region (fta_lint hot-path-allocation): Evaluate through
// AvailableAbovePayoff run once per candidate move, every round. Scratch
// is sized in the constructor; nothing here may allocate per call.

BestResponseOutcome BestResponseEngine::Evaluate(size_t w) {
  FTA_SPAN("game/best_response");
  if (config_.use_payoff_ledger) {
    // Sort-free, allocation-free path: the ledger copies its sorted array
    // minus w's slot into reusable scratch and recomputes prefix sums —
    // O(|W|) with zero heap traffic, versus the rebuild path's
    // O(|W| log |W|) sort plus two allocations (DESIGN.md §9).
    return EvaluateWithView(w, ledger_.Exclude(w));
  }
  // A/B rebuild path (bench_micro --bench=game, identity tests): gather
  // the other workers' payoffs and sort them from scratch.
  const std::vector<double>& payoffs = state_->payoffs();
  std::vector<double> others;
  others.reserve(payoffs.empty() ? 0 : payoffs.size() - 1);
  for (size_t j = 0; j < payoffs.size(); ++j) {
    if (j != w) others.push_back(payoffs[j]);
  }
  return EvaluateWithView(w, OthersView(std::move(others)));
}

template <typename View>
BestResponseOutcome BestResponseEngine::EvaluateWithView(size_t w,
                                                         const View& view) {
  const int32_t current = state_->strategy_of(w);
  const double own = state_->payoff_of(w);
  const double incumbent_u = view.Iau(own, params_);

  // The null strategy (always available) seeds the challenger reduce; its
  // index kNullStrategy = -1 sorts below every catalog index, preserving
  // the "null first" candidate order of Equation 10.
  Candidate challenger;
  if (current != kNullStrategy) {
    challenger = Candidate{view.Iau(0.0, params_), kNullStrategy, true};
  }

  // Candidate payoffs stream from the catalog's SoA array (contiguous
  // doubles, no striding through WorkerStrategy structs), and each gather
  // is reduced by ONE fused SortedIauBatchArgmax instead of a view.Iau per
  // candidate. Bit-identity: the kernel's per-lane expression tree is
  // exactly SortedIau's (game/iau_kernels.h) and its earliest-max reduce
  // is exactly the Better() fold over ascending indices, so
  // Better(cand, winner) equals the per-candidate fold — the max is a
  // total order, so folding a batch's own maximum first cannot change it.
  const size_t n = state_->catalog().strategies(w).size();
  const double* payoffs = state_->catalog().strategy_payoffs(w).data();
  const bool avx2 = simd::ActiveSimdMode() == simd::SimdMode::kAvx2;
  auto band_at = [&](double reference) {
    return SortedIauMonotoneBand(view.sorted_values(), view.size(),
                                 view.prefix_sums(), params_, reference);
  };
  // Gathers and scores the available strategies of [lo, hi) — with the
  // monotone early exit (DESIGN.md §2) unless `band` is +inf: the walk
  // stops at the first payoff below reference - band, the reference being
  // the larger of the incumbent's payoff and the first available
  // strategy's (the catalog is payoff-descending). A dropped strategy then
  // scores strictly below the first available one, which is scored, or
  // below the incumbent, which no challenger it could become would beat —
  // so the outcome equals the full scan's. A negative `band` is computed
  // at the first payoff below the reference, after which the reference no
  // longer moves; a list that never falls below it never pays for it.
  auto scan = [&](size_t lo, size_t hi, double band, KernelScratch& scratch,
                  Candidate& cand, BestResponseCounters& counters) {
    double reference = own;
    bool found = false;
    size_t cnt = 0;
    for (size_t i = lo; i < hi; ++i) {
      if (payoffs[i] < reference) {
        if (band < 0.0) band = band_at(reference);
        if (payoffs[i] < reference - band) break;
      }
      const int32_t idx = static_cast<int32_t>(i);
      if (idx == current) continue;  // evaluated as the incumbent
      if (!Available(w, idx, counters)) continue;
      if (!found && payoffs[i] > reference) reference = payoffs[i];
      found = true;
      scratch.owns[cnt] = payoffs[i];
      scratch.indices[cnt] = idx;
      ++cnt;
    }
    if (cnt == 0) return;
    double best_u = 0.0;
    const size_t pos = SortedIauBatchArgmax(
        view.sorted_values(), view.size(), view.prefix_sums(), params_,
        scratch.owns.data(), cnt, &best_u);
    ++counters.simd_batches;
    counters.simd_lanes += cnt;
    if (avx2) ++counters.simd_avx2_batches;
    cand = Better(cand, Candidate{best_u, scratch.indices[pos], true});
  };

  if (pool_ == nullptr || n < config_.min_parallel_candidates ||
      std::isfinite(band_at(own))) {
    // The early exit never fans out, so its work counters are the same at
    // any thread count.
    scan(0, n, -1.0, scratch_[0], challenger, counters_);
  } else {
    // Full scan (beta >= 1) sharded with a deterministic reduce: each
    // shard folds its own range, then the shard winners fold in shard
    // order. Better() is a max under the total order (utility desc, index
    // asc), so the result is independent of the shard partition and of
    // execution interleaving.
    const size_t shards = std::min(n, pool_->num_threads() * 4);
    const size_t chunk = (n + shards - 1) / shards;
    for (size_t s = 0; s < shards; ++s) {
      winners_[s] = Candidate();
      shard_counters_[s] = BestResponseCounters();
    }
    FTA_SPAN("game/br_batch");
    pool_->RunBatch(shards, [&](size_t s) {
      FTA_SPAN("game/br_shard");
      const size_t lo = s * chunk;
      const size_t hi = std::min(n, lo + chunk);
      if (lo < hi) {
        scan(lo, hi, kInfinity, scratch_[s], winners_[s], shard_counters_[s]);
      }
    });
    ++counters_.parallel_batches;
    for (size_t s = 0; s < shards; ++s) {
      challenger = Better(challenger, winners_[s]);
      counters_ += shard_counters_[s];
    }
  }

  BestResponseOutcome out;
  out.incumbent_utility = incumbent_u;
  out.best_utility = challenger.valid
                         ? std::max(incumbent_u, challenger.utility)
                         : incumbent_u;
  if (challenger.valid && DefinitelyGreater(challenger.utility, incumbent_u)) {
    out.strategy = challenger.index;
    out.utility = challenger.utility;
  } else {
    out.strategy = current;
    out.utility = incumbent_u;
  }
  return out;
}

bool BestResponseEngine::Step(size_t w) {
  const BestResponseOutcome outcome = Evaluate(w);
  if (outcome.strategy == state_->strategy_of(w)) return false;
  Apply(w, outcome.strategy);
  return true;
}

void BestResponseEngine::AvailableAbovePayoff(size_t w,
                                              double payoff_threshold,
                                              std::vector<int32_t>& out) {
  out.clear();
  const int32_t current = state_->strategy_of(w);
  const std::vector<double>& payoffs = state_->catalog().strategy_payoffs(w);
  for (size_t i = 0; i < payoffs.size(); ++i) {
    const int32_t idx = static_cast<int32_t>(i);
    if (idx == current) continue;
    if (payoffs[i] <= payoff_threshold + kEps) break;  // sorted desc
    // Caller-owned buffer, reused across calls (out.clear() above keeps
    // capacity): growth amortizes to zero in steady state.
    if (Available(w, idx, counters_)) out.push_back(idx);  // NOLINT(fta-alloc)
  }
}

// FTA_HOT_END(best-response-scan)

Status BestResponseEngine::ValidateLedger() const {
  return ledger_.Validate(state_->payoffs());
}

bool BestResponseEngine::IsNash() {
  for (size_t w = 0; w < state_->payoffs().size(); ++w) {
    if (Evaluate(w).strategy != state_->strategy_of(w)) return false;
  }
  return true;
}

}  // namespace fta

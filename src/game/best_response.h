#ifndef FTA_GAME_BEST_RESPONSE_H_
#define FTA_GAME_BEST_RESPONSE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "game/iau.h"
#include "game/joint_state.h"
#include "game/payoff_ledger.h"
#include "game/trace.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fta {

/// Tuning of the shared best-response engine.
struct BestResponseConfig {
  /// Threads for candidate-strategy evaluation; <= 1 keeps every scan on
  /// the calling thread. Results are bit-identical at any thread count:
  /// the reduce applies a total order (utility desc, strategy index asc,
  /// null below index 0) that no shard boundary can disturb.
  size_t num_threads = 1;
  /// Non-owning external pool for the candidate scan. When set it
  /// overrides `num_threads` (an injected 1-thread pool keeps the scan
  /// serial) and MUST outlive the engine — long-lived callers (the
  /// serving layer, benches repeating solves) reuse one pool instead of
  /// paying a thread spawn/join per engine construction. Results are
  /// bit-identical either way.
  ThreadPool* pool = nullptr;
  /// Candidate count below which a full scan stays serial even when a pool
  /// is available (fan-out overhead dominates tiny catalogs). The monotone
  /// early exit never fans out.
  size_t min_parallel_candidates = 64;
  /// Serve Evaluate's exclude-one view from the incrementally sorted
  /// payoff ledger (no sort, no allocation) instead of rebuilding an
  /// OthersView per call. Results are bit-identical either way
  /// (tests/game_ledger_identity_test.cc); `false` exists only for the
  /// A/B benchmark (bench_micro --bench=game) and the identity tests —
  /// production code has no reason to turn the ledger off.
  bool use_payoff_ledger = true;
};

/// Outcome of one best-response scan.
struct BestResponseOutcome {
  /// The best response (Equation 10 tie-breaking: a challenger must beat
  /// the incumbent's utility beyond tolerance, exact utility ties among
  /// challengers go to the lowest strategy index, kNullStrategy ordering
  /// below index 0).
  int32_t strategy = kNullStrategy;
  /// IAU of `strategy`.
  double utility = 0.0;
  /// IAU of the incumbent strategy.
  double incumbent_utility = 0.0;
  /// Max IAU over the incumbent, the null strategy, and every available
  /// deviation — the best-response utility of equilibrium analysis. Can
  /// exceed `utility` only within the strict-improvement tolerance.
  double best_utility = 0.0;
};

/// The shared inner loop of the game solvers (FGT, IEGT, equilibrium
/// analysis, pure-NE enumeration): evaluates candidate strategies against
/// the current joint state. Where the IAU strictly increases in the
/// worker's own payoff (alpha >= 0, beta < 1 — the paper's
/// alpha = beta = 0.5) a best response is the highest-payoff available
/// strategy, so Evaluate walks the payoff-sorted list serially and stops
/// a proven band below it (SortedIauMonotoneBand); otherwise it scans
/// every strategy, fanning out over a thread pool with a deterministic
/// sharded reduce. Both paths produce bit-identical outcomes.
///
/// All joint-state mutations must go through Apply() so the payoff ledger
/// stays coherent. The engine never mutates the state on its own.
/// Not thread-safe: one engine serves one solver loop; internal parallelism
/// is the engine's own business.
class BestResponseEngine {
 public:
  /// Binds the engine to a state. `state` and the catalog it references
  /// must outlive the engine.
  explicit BestResponseEngine(JointState& state,
                              const IauParams& params = IauParams(),
                              const BestResponseConfig& config =
                                  BestResponseConfig());
  ~BestResponseEngine();

  BestResponseEngine(const BestResponseEngine&) = delete;
  BestResponseEngine& operator=(const BestResponseEngine&) = delete;

  /// Full best-response scan of worker w (Equation 10), with utilities.
  BestResponseOutcome Evaluate(size_t w);

  /// The best-response strategy index of worker w.
  int32_t BestResponse(size_t w) { return Evaluate(w).strategy; }

  /// Computes worker w's best response and applies it when it differs from
  /// the incumbent. Returns true if the strategy changed.
  bool Step(size_t w);

  /// Switches worker w to strategy `idx` (must be available), keeping the
  /// payoff ledger coherent. The only sanctioned mutation path.
  void Apply(size_t w, int32_t idx);

  /// Appends (ascending index order, incumbent excluded) every available
  /// strategy of w whose payoff strictly exceeds `payoff_threshold` beyond
  /// tolerance. Strategies are payoff-sorted, so the scan early-exits at
  /// the first non-qualifying payoff. IEGT's evolution candidates.
  void AvailableAbovePayoff(size_t w, double payoff_threshold,
                            std::vector<int32_t>& out);

  /// True if no worker has a strictly improving available deviation.
  bool IsNash();

  /// Exactness contract of the payoff ledger (FTA_VALIDATE, called at
  /// solver round boundaries): the ledger's sorted array and position maps
  /// must be a bit-exact permutation of the live payoffs. Trivially OK
  /// when the ledger is off.
  Status ValidateLedger() const;

  /// The incrementally sorted payoff ledger (always maintained; Evaluate
  /// consults it only when config.use_payoff_ledger). Solvers use it for
  /// sort-free per-round P_dif / Gini / potential.
  const PayoffLedger& ledger() const { return ledger_; }

  const BestResponseCounters& counters() const {
    counters_.ledger = ledger_.counters();
    return counters_;
  }
  const JointState& state() const { return *state_; }
  const IauParams& params() const { return params_; }

 private:
  // FTA_HOT_BEGIN(candidate-fold)
  /// Candidate in the deterministic reduce; ordered by (utility desc,
  /// index asc). `valid` is false for the identity element. Runs once per
  /// shard winner per Evaluate — allocation-free by construction, checked
  /// by fta_lint's hot-path-allocation rule.
  struct Candidate {
    double utility = 0.0;
    int32_t index = 0;
    bool valid = false;
  };
  static Candidate Better(const Candidate& a, const Candidate& b) {
    if (!a.valid) return b;
    if (!b.valid) return a;
    if (a.utility != b.utility) return a.utility > b.utility ? a : b;
    return a.index <= b.index ? a : b;
  }
  // FTA_HOT_END(candidate-fold)

  /// Reusable gather scratch of the batched candidate scan (one slot per
  /// potential shard, sized once in the constructor to the catalog's max
  /// strategies per worker — Evaluate never allocates in steady state):
  /// available candidates' payoffs stream from the catalog's SoA array into
  /// `owns`, one fused SortedIauBatchArgmax call reduces them, and
  /// `indices` maps the winning position back to its strategy index.
  struct KernelScratch {
    std::vector<double> owns;
    std::vector<int32_t> indices;
  };

  /// JointState::IsAvailable, counted into `counters` (per-shard
  /// accumulators during a parallel scan; counters_ otherwise).
  bool Available(size_t w, int32_t idx, BestResponseCounters& counters);

  /// Shared candidate-scan body of Evaluate(); `view` is either the
  /// ledger's exclude-one view or a freshly built OthersView — both expose
  /// Mp/Lp/Iau over the same sorted sequence, so the outcome is
  /// bit-identical (DESIGN.md §9).
  template <typename View>
  BestResponseOutcome EvaluateWithView(size_t w, const View& view);

  JointState* state_;
  IauParams params_;
  BestResponseConfig config_;
  std::unique_ptr<ThreadPool> owned_pool_;  // only when no injected pool
  ThreadPool* pool_ = nullptr;  // injected or owned_pool_.get(); may be null
  /// Per-shard batch scratch; scratch_[0] serves the serial paths.
  std::vector<KernelScratch> scratch_;
  /// Per-shard winners and counters of the fan-out, sized with scratch_.
  std::vector<Candidate> winners_;
  std::vector<BestResponseCounters> shard_counters_;
  /// Incrementally sorted payoffs; kept coherent by Apply().
  PayoffLedger ledger_;
  /// mutable: counters() is conceptually const but folds the ledger's own
  /// counters in on read so round deltas include them.
  mutable BestResponseCounters counters_;
};

}  // namespace fta

#endif  // FTA_GAME_BEST_RESPONSE_H_

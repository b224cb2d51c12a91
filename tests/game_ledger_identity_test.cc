// Pins the payoff ledger's bit-identity contract: with the ledger serving
// Evaluate's exclude-one views (use_payoff_ledger = true, the default) and
// with the legacy OthersView rebuild (false, the A/B switch), FGT and IEGT
// must produce byte-for-byte the same runs — same routes, same rounds, and
// the same IEEE-754 bit patterns in every traced P_dif / payoff / potential.
//
// The comparison digests the *whole run* (assignment, convergence flags,
// and the full per-round trace) with FNV-1a over 64-bit words, across 12
// seeds and {1, 2, 8} threads, so a single-ulp divergence anywhere in any
// round of any configuration fails the test. There are no golden constants
// here on purpose: the contract is rebuild == ledger, not a frozen value —
// tests/validate_identity_test.cc pins the absolute bits.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "game/best_response.h"
#include "game/fgt.h"
#include "game/iegt.h"
#include "model/builder.h"
#include "util/rng.h"
#include "vdps/catalog.h"

namespace fta {
namespace {

// FNV-1a over explicit 64-bit words; doubles enter via their bit patterns.
class Digest {
 public:
  void Fold(uint64_t word) {
    hash_ ^= word;
    hash_ *= 1099511628211ull;
  }
  void Fold(double value) { Fold(std::bit_cast<uint64_t>(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

Instance RandomInstance(uint64_t seed, size_t num_dps, size_t num_workers) {
  Rng rng(seed);
  InstanceBuilder builder(Point{4, 4});
  builder.Speed(5.0);
  for (size_t d = 0; d < num_dps; ++d) {
    builder.DeliveryPoint({rng.Uniform(0, 8), rng.Uniform(0, 8)},
                          1 + rng.Index(4), rng.Uniform(1.0, 4.0));
  }
  for (size_t w = 0; w < num_workers; ++w) {
    builder.Worker({rng.Uniform(0, 8), rng.Uniform(0, 8)});
  }
  return builder.Build();
}

uint64_t DigestRun(const Instance& instance, const GameResult& result) {
  Digest d;
  d.Fold(static_cast<uint64_t>(result.rounds));
  d.Fold(static_cast<uint64_t>(result.converged));
  d.Fold(static_cast<uint64_t>(result.early_stopped));
  for (const Route& route : result.assignment.routes()) {
    d.Fold(static_cast<uint64_t>(route.size()));
    for (uint32_t dp : route) d.Fold(static_cast<uint64_t>(dp));
  }
  for (double p : result.assignment.Payoffs(instance)) d.Fold(p);
  for (const IterationStats& it : result.trace) {
    d.Fold(static_cast<uint64_t>(it.iteration));
    d.Fold(it.payoff_difference);
    d.Fold(it.average_payoff);
    d.Fold(it.potential);
    d.Fold(static_cast<uint64_t>(it.num_changes));
  }
  return d.value();
}

class LedgerIdentitySeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LedgerIdentitySeeds, FgtLedgerAndRebuildRunsAreBitIdentical) {
  const uint64_t seed = GetParam();
  const Instance inst = RandomInstance(seed, 14, 6);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    FgtConfig config;
    config.record_trace = true;
    config.seed = seed * 31 + 7;
    config.engine.num_threads = threads;
    config.engine.min_parallel_candidates = 1;
    config.early_stop.patience = 3;  // exercise the shared-P_dif path too
    const GameResult ledger_run = SolveFgt(inst, catalog, config);

    FgtConfig rebuild = config;
    rebuild.engine.use_payoff_ledger = false;
    const GameResult rebuild_run = SolveFgt(inst, catalog, rebuild);

    EXPECT_EQ(DigestRun(inst, ledger_run), DigestRun(inst, rebuild_run))
        << "seed " << seed << " threads " << threads;
    // The ledger path never rebuilds a view: every Evaluate is a sort it
    // did not run, and the rebuild path reports no such savings.
    EXPECT_GT(ledger_run.engine.ledger.sorts_eliminated, 0u);
    EXPECT_EQ(rebuild_run.engine.ledger.scratch_reuses, 0u);
  }
}

TEST_P(LedgerIdentitySeeds, IegtLedgerAndRebuildRunsAreBitIdentical) {
  const uint64_t seed = GetParam() + 4000;
  const Instance inst = RandomInstance(seed, 14, 6);
  const VdpsCatalog catalog = VdpsCatalog::Generate(inst, VdpsConfig{});
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    IegtConfig config;
    config.record_trace = true;
    config.seed = seed * 17 + 3;
    config.engine.num_threads = threads;
    config.engine.min_parallel_candidates = 1;
    config.early_stop.patience = 3;
    const GameResult ledger_run = SolveIegt(inst, catalog, config);

    IegtConfig rebuild = config;
    rebuild.engine.use_payoff_ledger = false;
    const GameResult rebuild_run = SolveIegt(inst, catalog, rebuild);

    EXPECT_EQ(DigestRun(inst, ledger_run), DigestRun(inst, rebuild_run))
        << "seed " << seed << " threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerIdentitySeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

}  // namespace
}  // namespace fta

// Adversarial oracle suite of the batch kernel layer (the canonical sums
// in util/math_util.h, the rank and argmax kernels in game/iau_kernels.h):
// ranks must equal std::lower_bound on every input — including exact ties,
// signed zeros, denormals, and infinities — the fused argmax must
// reproduce the per-lane SortedIau fold bit for bit at every batch size,
// and the blocked sums must keep their serial semantics on short inputs
// and agree with plain and quadratic sums to tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "game/iau.h"
#include "game/iau_kernels.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace fta {
namespace {

// The adversarial size ladder: empty, sub-block, exact block, block+tail,
// and the |W| ≈ 256 regime the bench gate measures (255/256/257 cover the
// full-blocks, exact-multiple, and trailing-lane cases).
const size_t kSizes[] = {0, 1, 3, 4, 5, 255, 256, 257};

/// Ascending sequence with long tie runs, both zero signs, and denormals —
/// every hazard the compare/accumulate kernels must handle exactly.
std::vector<double> AdversarialSorted(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(n);
  while (v.size() < n) {
    const double x = rng.Uniform(-4.0, 4.0);
    v.push_back(x);
    for (size_t r = rng.Index(3); r > 0 && v.size() < n; --r) {
      v.push_back(x);  // tie runs
    }
  }
  if (n >= 6) {
    v[rng.Index(n)] = 0.0;
    v[rng.Index(n)] = -0.0;
    v[rng.Index(n)] = std::numeric_limits<double>::denorm_min();
    v[rng.Index(n)] = -std::numeric_limits<double>::denorm_min();
  }
  std::sort(v.begin(), v.end());
  return v;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// ------------------------------------------------- blocked prefix sums --

TEST(BlockedPrefixSumTest, ShortInputsKeepSerialSemantics) {
  // n < 4 has no full block, so the canonical order IS the plain serial
  // left-to-right pass — the pre-kernel semantics.
  const std::vector<double> v = {0.5, -1.25, 3.75};
  for (size_t n = 0; n <= v.size(); ++n) {
    std::vector<double> prefix(n + 1, -7.0);
    BlockedPrefixSum(v.data(), n, prefix.data());
    double carry = 0.0;
    EXPECT_EQ(Bits(prefix[0]), Bits(0.0));
    for (size_t i = 0; i < n; ++i) {
      carry = carry + v[i];
      EXPECT_EQ(Bits(prefix[i + 1]), Bits(carry)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(BlockedPrefixSumTest, PrefixesMatchPlainSumToTolerance) {
  for (size_t n : kSizes) {
    const std::vector<double> v = AdversarialSorted(11 + n, n);
    std::vector<double> prefix(n + 1, 0.0);
    BlockedPrefixSum(v.data(), n, prefix.data());
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += v[i];
      EXPECT_NEAR(prefix[i + 1], sum, 1e-9 * (1.0 + std::abs(sum)))
          << "n=" << n << " i=" << i;
    }
  }
}

// ------------------------------------------------ pairwise-diff totals --

TEST(PairwiseDiffTest, MatchesQuadraticOracleToTolerance) {
  for (size_t n : kSizes) {
    if (n > 300) continue;  // the oracle is O(n²); every size here is fine
    const std::vector<double> v = AdversarialSorted(23 + n, n);
    double oracle = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) oracle += v[j] - v[i];
    }
    const double got = PairwiseDiffTotalSorted(v.data(), n);
    EXPECT_NEAR(got, oracle, 1e-9 * (1.0 + std::abs(oracle))) << "n=" << n;
  }
  // Two full blocks of -0.0 ahead of the tail: lane 0's exclusive prefix is
  // carry + 0.0, and the total is exactly the eight pairs (-0.0, 1.0).
  const std::vector<double> zeros = {-0.0, -0.0, -0.0, -0.0, -0.0,
                                     -0.0, -0.0, -0.0, 1.0};
  EXPECT_EQ(Bits(PairwiseDiffTotalSorted(zeros.data(), zeros.size())),
            Bits(8.0));
}

// ------------------------------------------------------- batched ranks --

uint32_t LowerBoundRank(const std::vector<double>& values, double own) {
  return static_cast<uint32_t>(
      std::lower_bound(values.begin(), values.end(), own) - values.begin());
}

TEST(CountLessBatchTest, ScalarEqualsLowerBoundOnTiesAndSpecials) {
  std::vector<double> values = AdversarialSorted(7, 64);
  values.push_back(std::numeric_limits<double>::infinity());
  values.insert(values.begin(), -std::numeric_limits<double>::infinity());
  std::vector<double> owns = values;  // every tie, both infinities
  owns.push_back(0.0);
  owns.push_back(-0.0);
  owns.push_back(std::numeric_limits<double>::denorm_min());
  std::vector<uint32_t> counts(owns.size(), 0);
  CountLessBatch(values.data(), values.size(), owns.data(), owns.size(),
                 counts.data());
  for (size_t j = 0; j < owns.size(); ++j) {
    EXPECT_EQ(counts[j], LowerBoundRank(values, owns[j])) << "own=" << owns[j];
  }
  // Adversarial sizes, half the owns exact ties against the value array.
  for (size_t n : kSizes) {
    std::vector<double> ladder = AdversarialSorted(41 + n, n);
    if (n >= 6) {
      ladder.front() = -std::numeric_limits<double>::infinity();
      ladder.back() = std::numeric_limits<double>::infinity();
    }
    for (size_t count : kSizes) {
      Rng rng(n * 1000 + count);
      std::vector<double> draws(count);
      for (size_t j = 0; j < count; ++j) {
        draws[j] = (n > 0 && rng.Index(2) == 0) ? ladder[rng.Index(n)]
                                                : rng.Uniform(-5.0, 5.0);
      }
      std::vector<uint32_t> ranks(count + 1, 0);
      CountLessBatch(ladder.data(), n, draws.data(), count, ranks.data());
      for (size_t j = 0; j < count; ++j) {
        ASSERT_EQ(ranks[j], LowerBoundRank(ladder, draws[j]))
            << "n=" << n << " count=" << count << " j=" << j;
      }
    }
  }
}

TEST(CountLessBatchSortedDescTest, MergeEqualsLowerBoundOnBothPaths) {
  for (size_t n : kSizes) {
    std::vector<double> values = AdversarialSorted(61 + n, n);
    if (n >= 6) {
      values.front() = -std::numeric_limits<double>::infinity();
      values.back() = std::numeric_limits<double>::infinity();
    }
    for (size_t count : kSizes) {
      if (count == 0) continue;
      Rng rng(n * 4001 + count);
      std::vector<double> owns(count);
      for (size_t j = 0; j < count; ++j) {
        // Half exact ties against the value array (tie runs included), half
        // fresh draws; sorted descending to satisfy the precondition.
        owns[j] = (n > 0 && rng.Index(2) == 0) ? values[rng.Index(n)]
                                               : rng.Uniform(-5.0, 5.0);
      }
      if (count >= 4) {
        owns[rng.Index(count)] = 0.0;
        owns[rng.Index(count)] = -0.0;
      }
      std::sort(owns.begin(), owns.end(), std::greater<double>());
      ASSERT_TRUE(iau_internal::IsNonIncreasing(owns.data(), count));
      std::vector<uint32_t> merged(count, 0);
      CountLessBatchSortedDesc(values.data(), n, owns.data(), count,
                               merged.data());
      for (size_t j = 0; j < count; ++j) {
        ASSERT_EQ(merged[j], LowerBoundRank(values, owns[j]))
            << "merge n=" << n << " count=" << count << " j=" << j;
      }
    }
  }
}

TEST(CountLessBatchSortedDescTest, ConstantOwnsAndAllTiesStopExactly) {
  // Every own equal, and equal to a long tie run in the values: the shared
  // pointer must stop at the FIRST tie (lower_bound), not inside the run.
  const std::vector<double> values = {-1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0};
  const std::vector<double> owns(9, 2.0);
  std::vector<uint32_t> counts(owns.size(), 77);
  CountLessBatchSortedDesc(values.data(), values.size(), owns.data(),
                           owns.size(), counts.data());
  for (uint32_t c : counts) EXPECT_EQ(c, 1u);
}

// -------------------------------------------------------- batched IAUs --

TEST(SortedIauBatchTest, MatchesSingleSortedIauBitwiseInBothModes) {
  // A one-lane argmax is the lane's utility itself: it must be SortedIau's
  // bits exactly, rank edges and ties included.
  IauParams params;
  params.alpha = 0.4;
  params.beta = 0.25;
  for (size_t n : kSizes) {
    const std::vector<double> values = AdversarialSorted(3 + n, n);
    std::vector<double> prefix(n + 1, 0.0);
    BlockedPrefixSum(values.data(), n, prefix.data());
    Rng rng(n * 31 + 7);
    for (int trial = 0; trial < 64; ++trial) {
      const double own = (n > 0 && rng.Index(2) == 0)
                             ? values[rng.Index(n)]
                             : rng.Uniform(-5.0, 5.0);
      double u = 0.0;
      ASSERT_EQ(SortedIauBatchArgmax(values.data(), n, prefix.data(), params,
                                     &own, 1, &u),
                size_t{0});
      ASSERT_EQ(Bits(u),
                Bits(SortedIau(values.data(), n, prefix.data(), own, params)))
          << "n=" << n << " own=" << own;
    }
  }
}

TEST(SortedIauBatchTest, AgreesWithNaiveIauOracle) {
  IauParams params;  // defaults
  const std::vector<double> values = AdversarialSorted(13, 100);
  std::vector<double> prefix(values.size() + 1, 0.0);
  BlockedPrefixSum(values.data(), values.size(), prefix.data());
  Rng rng(99);
  for (int j = 0; j < 37; ++j) {
    const double own = rng.Uniform(-5.0, 5.0);
    double u = 0.0;
    SortedIauBatchArgmax(values.data(), values.size(), prefix.data(), params,
                         &own, 1, &u);
    EXPECT_NEAR(u, Iau(own, values, params), 1e-12) << "j=" << j;
  }
}

// ------------------------------------------------------- fused argmax --

/// The engine's pre-fusion semantics: per-lane SortedIau, folded in
/// ascending position with strictly-greater replacement (earliest max).
size_t ArgmaxOracle(const double* values, size_t n, const double* prefix,
                    const IauParams& params, const double* owns, size_t count,
                    double* best_u) {
  size_t best = 0;
  *best_u = SortedIau(values, n, prefix, owns[0], params);
  for (size_t j = 1; j < count; ++j) {
    const double u = SortedIau(values, n, prefix, owns[j], params);
    if (u > *best_u) {
      *best_u = u;
      best = j;
    }
  }
  return best;
}

TEST(SortedIauBatchArgmaxTest, MatchesSequentialFoldBitwiseInBothModes) {
  IauParams params;
  params.alpha = 0.3;
  params.beta = 0.2;
  // Counts straddle the internal 128-lane chunking (127/128/129/300);
  // descending owns exercise the merge ranks, shuffled owns the generic
  // fallback.
  const size_t kCounts[] = {1, 2, 3, 4, 5, 8, 127, 128, 129, 300};
  for (size_t n : kSizes) {
    const std::vector<double> values = AdversarialSorted(17 + n, n);
    std::vector<double> prefix(n + 1, 0.0);
    BlockedPrefixSum(values.data(), n, prefix.data());
    for (size_t count : kCounts) {
      Rng rng(n * 77 + count);
      std::vector<double> owns(count);
      for (size_t j = 0; j < count; ++j) {
        // Exact ties between lanes (Index(8) buckets) force the
        // earliest-position tie-break; ties against values hit rank edges.
        const double tie_pool = -3.0 + static_cast<double>(rng.Index(8));
        owns[j] = rng.Index(2) == 0
                      ? tie_pool
                      : (n > 0 && rng.Index(2) == 0 ? values[rng.Index(n)]
                                                    : rng.Uniform(-5.0, 5.0));
      }
      for (int variant = 0; variant < 2; ++variant) {
        if (variant == 1) {
          std::sort(owns.begin(), owns.end(), std::greater<double>());
        }  // variant 0 keeps the shuffled (generic-rank) order
        double expect_u = 0.0;
        const size_t expect_pos =
            ArgmaxOracle(values.data(), n, prefix.data(), params, owns.data(),
                         count, &expect_u);
        double got_u = 0.0;
        const size_t got_pos =
            SortedIauBatchArgmax(values.data(), n, prefix.data(), params,
                                 owns.data(), count, &got_u);
        ASSERT_EQ(got_pos, expect_pos)
            << "n=" << n << " count=" << count << " variant=" << variant;
        ASSERT_EQ(Bits(got_u), Bits(expect_u))
            << "n=" << n << " count=" << count << " variant=" << variant;
      }
    }
  }
}

TEST(SortedIauBatchArgmaxTest, AllTiedLanesPickPositionZero) {
  IauParams params;
  const std::vector<double> values = AdversarialSorted(5, 64);
  std::vector<double> prefix(values.size() + 1, 0.0);
  BlockedPrefixSum(values.data(), values.size(), prefix.data());
  for (size_t count : {size_t{1}, size_t{4}, size_t{9}, size_t{130}}) {
    const std::vector<double> owns(count, 1.5);
    double u = 0.0;
    EXPECT_EQ(SortedIauBatchArgmax(values.data(), values.size(), prefix.data(),
                                   params, owns.data(), count, &u),
              size_t{0})
        << "count=" << count;
  }
}

TEST(SortedIauBatchArgmaxTest, EmptyOthersReducesToEarliestMaxPayoff) {
  IauParams params;
  const double prefix0 = 0.0;
  const std::vector<double> owns = {1.0, 3.5, 3.5, 2.0};
  double u = 0.0;
  EXPECT_EQ(SortedIauBatchArgmax(nullptr, 0, &prefix0, params, owns.data(),
                                 owns.size(), &u),
            size_t{1});
  EXPECT_EQ(Bits(u), Bits(3.5));
}

}  // namespace
}  // namespace fta

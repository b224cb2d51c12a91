// Property suite of SortedIauMonotoneBand (game/iau_kernels.h), the payoff
// band behind BestResponseEngine's monotone early exit: across random
// exclude-one views, any two payoffs more than the band apart must score
// strictly ordered kernel utilities — including pairs that straddle rank
// boundaries, where the stored prefix sums' error enters — and the band
// must be positive, because the kernel's utility is not monotone at ulp
// scale (one such pair is pinned below).

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <vector>

#include "game/iau.h"
#include "game/iau_kernels.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace fta {
namespace {

double Band(const OthersView& view, const IauParams& params, double r) {
  return SortedIauMonotoneBand(view.sorted_values(), view.size(),
                               view.prefix_sums(), params, r);
}

double StepDown(double x, int ulps) {
  for (int i = 0; i < ulps; ++i) x = std::nextafter(x, -kInfinity);
  return x;
}

/// `count` payoffs in [0, 10), with ties, as the other workers of a view.
std::vector<double> RandomPayoffs(Rng& rng, size_t count) {
  std::vector<double> v;
  v.reserve(count);
  while (v.size() < count) {
    const double x = rng.Uniform(0.0, 10.0);
    v.push_back(x);
    if (rng.Bernoulli(0.2) && v.size() < count) v.push_back(x);
  }
  return v;
}

const IauParams kParamSets[] = {
    IauParams{0.5, 0.5}, IauParams{0.0, 0.0}, IauParams{1.0, 0.0},
    IauParams{0.5, 0.9}, IauParams{2.0, 0.999}, IauParams{0.3, -0.5}};

// Candidate pairs 1-8 ulps apart, half of them with one member exactly on
// another worker's payoff (a rank boundary): whenever the gap exceeds the
// band, the higher payoff must win strictly. Such pairs also exhibit the
// kernel's ulp-scale non-monotonicity, so a zero band fails here.
TEST(MonotoneBandTest, UlpPairsBeyondTheBandAreStrictlyOrdered) {
  Rng rng(20260917);
  size_t non_monotone = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const size_t n = 1 + rng.Index(300);
    const OthersView view(RandomPayoffs(rng, n));
    const IauParams params = kParamSets[rng.Index(std::size(kParamSets))];
    double hi = rng.Bernoulli(0.5) ? view.sorted_values()[rng.Index(n)]
                                   : rng.Uniform(0.0, 10.0);
    double lo = StepDown(hi, 1 + static_cast<int>(rng.Index(8)));
    if (rng.Bernoulli(0.5)) {  // put the lower member on the boundary
      lo = view.sorted_values()[rng.Index(n)];
      hi = lo;
      for (size_t k = 1 + rng.Index(8); k > 0; --k) {
        hi = std::nextafter(hi, kInfinity);
      }
    }
    const double u_hi = view.Iau(hi, params);
    const double u_lo = view.Iau(lo, params);
    if (!(u_hi > u_lo)) ++non_monotone;
    if (hi - lo > Band(view, params, hi)) {
      EXPECT_GT(u_hi, u_lo) << "n=" << n << " hi=" << hi << " lo=" << lo;
    }
  }
  // The property is not vacuous for a zero band: ulp-scale ties and
  // inversions occur in every sufficiently large sample.
  EXPECT_GT(non_monotone, 0u);
}

// Pairs just past the band edge, with other workers' payoffs planted
// inside the gap so the pair crosses several rank boundaries.
TEST(MonotoneBandTest, PairsJustPastTheBandEdgeAreStrictlyOrdered) {
  Rng rng(7);
  for (int trial = 0; trial < 20000; ++trial) {
    const size_t n = 1 + rng.Index(300);
    std::vector<double> payoffs = RandomPayoffs(rng, n);
    const IauParams params = kParamSets[rng.Index(std::size(kParamSets))];
    const double r = rng.Bernoulli(0.5) ? payoffs[rng.Index(n)]
                                        : rng.Uniform(0.0, 10.0);
    // Size the band on a first view, then plant payoffs inside the gap
    // (the band depends only on the view's size and extremes, so in-range
    // plants keep its magnitude; the assertion recomputes it on the final
    // view).
    const double band0 = Band(OthersView(payoffs), params, r);
    ASSERT_TRUE(std::isfinite(band0));
    if (rng.Bernoulli(0.5)) {
      for (size_t k = 1 + rng.Index(4); k > 0 && payoffs.size() > 1; --k) {
        const double planted = r - rng.Uniform(0.0, 2.5 * band0);
        payoffs[rng.Index(payoffs.size())] = planted;
      }
    }
    const OthersView view(std::move(payoffs));
    const double band = Band(view, params, r);
    ASSERT_TRUE(std::isfinite(band));
    const double x = StepDown(r - band, 1 + static_cast<int>(rng.Index(8)));
    ASSERT_GT(r - x, band);
    EXPECT_GT(view.Iau(r, params), view.Iau(x, params))
        << "n=" << view.size() << " r=" << r << " band=" << band;
  }
}

// A pair on which the kernel's utility decreases although the payoff
// increases by one ulp: the final subtraction cancels beta/n * k * own,
// which grows with own, and its rounding outweighs the one-ulp step. A
// zero band would let the early exit drop a strategy that wins this pair.
TEST(MonotoneBandTest, PinnedNonMonotonePairNeedsAPositiveBand) {
  const OthersView view({0x1p-3, 0x1.38p+2});
  const IauParams params;  // alpha = beta = 0.5
  const double lo = 0x1.699c5ee38329bp-2;
  const double hi = 0x1.699c5ee38329cp-2;
  ASSERT_EQ(std::nextafter(lo, kInfinity), hi);
  EXPECT_LT(view.Iau(hi, params), view.Iau(lo, params));
  const double band = Band(view, params, hi);
  EXPECT_GT(band, hi - lo);
  EXPECT_LT(band, 1e-12);
}

TEST(MonotoneBandTest, NoBandWithoutAPositiveSlopeOrFiniteInputs) {
  const OthersView view({1.0, 2.0, 3.0});
  EXPECT_TRUE(std::isinf(Band(view, IauParams{1.0, 1.0}, 2.0)));
  EXPECT_TRUE(std::isinf(Band(view, IauParams{0.5, 2.0}, 2.0)));
  EXPECT_TRUE(std::isinf(Band(view, IauParams{-1.0, 0.5}, 2.0)));
  // One ulp below beta = 1 the slope bound 1 - beta is below the rounding
  // margin, so the early exit falls back to the full scan there too.
  EXPECT_TRUE(std::isinf(
      Band(view, IauParams{0.5, std::nextafter(1.0, 0.0)}, 2.0)));
  EXPECT_TRUE(std::isinf(Band(view, IauParams{0.5, 0.5}, kInfinity)));
  EXPECT_TRUE(std::isinf(Band(view, IauParams{0.5, 0.5}, std::nan(""))));
  EXPECT_TRUE(std::isinf(Band(view, IauParams{std::nan(""), 0.5}, 2.0)));
  EXPECT_TRUE(
      std::isinf(Band(OthersView({1.0, kInfinity}), IauParams(), 2.0)));
  // No other workers: the utility is the payoff itself, exactly.
  EXPECT_EQ(SortedIauMonotoneBand(nullptr, 0, nullptr, IauParams(), 2.0),
            0.0);
  const double band = Band(view, IauParams(), 2.0);
  EXPECT_GT(band, 0.0);
  EXPECT_LT(band, 1e-12);
}

// The prefix-sum term grows with the view size: the band at |W| = 10^4 is
// wider than at |W| = 10 for the same payoff scale.
TEST(MonotoneBandTest, BandGrowsWithTheView) {
  const OthersView small(std::vector<double>(10, 5.0));
  const OthersView large(std::vector<double>(10000, 5.0));
  EXPECT_LT(Band(small, IauParams(), 5.0), Band(large, IauParams(), 5.0));
}

}  // namespace
}  // namespace fta

#include "tsss/core/similarity.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/core/oracle.h"
#include "tsss/seq/window.h"

namespace tsss::core {
namespace {

using geom::Vec;

TEST(TransformCostTest, DefaultAllowsEverything) {
  const TransformCost cost;
  EXPECT_TRUE(cost.Allows(geom::ScaleShift{1e9, -1e9}));
  EXPECT_TRUE(cost.Allows(geom::ScaleShift{-5.0, 0.0}));
}

TEST(TransformCostTest, BoundsAreInclusive) {
  TransformCost cost;
  cost.min_scale = 0.5;
  cost.max_scale = 2.0;
  cost.min_offset = -10.0;
  cost.max_offset = 10.0;
  EXPECT_TRUE(cost.Allows(geom::ScaleShift{0.5, 10.0}));
  EXPECT_TRUE(cost.Allows(geom::ScaleShift{2.0, -10.0}));
  EXPECT_FALSE(cost.Allows(geom::ScaleShift{0.49, 0.0}));
  EXPECT_FALSE(cost.Allows(geom::ScaleShift{1.0, 10.1}));
}

TEST(TransformCostTest, PositiveScaleFactory) {
  const TransformCost cost = TransformCost::PositiveScale();
  EXPECT_TRUE(cost.Allows(geom::ScaleShift{0.1, 5.0}));
  EXPECT_FALSE(cost.Allows(geom::ScaleShift{-0.1, 5.0}));
}

TEST(QueryContextTest, AlignMatchesReferenceImplementation) {
  Rng rng(61);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 4 + static_cast<std::size_t>(rng.UniformInt(0, 60));
    Vec q(n), w(n);
    for (std::size_t i = 0; i < n; ++i) {
      q[i] = rng.Uniform(-100, 100);
      w[i] = rng.Uniform(-100, 100);
    }
    const QueryContext ctx(q);
    const geom::Alignment fast = ctx.Align(w);
    const geom::Alignment reference = geom::AlignScaleShift(q, w);
    EXPECT_NEAR(fast.distance, reference.distance, 1e-6);
    EXPECT_NEAR(fast.transform.scale, reference.transform.scale, 1e-7);
    EXPECT_NEAR(fast.transform.offset, reference.transform.offset, 1e-6);
  }
}

TEST(QueryContextTest, ConstantQueryHandled) {
  const Vec constant(8, 3.0);
  const QueryContext ctx(constant);
  EXPECT_TRUE(ctx.constant_query());
  const Vec w = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  const geom::Alignment a = ctx.Align(w);
  EXPECT_DOUBLE_EQ(a.transform.scale, 0.0);
  EXPECT_DOUBLE_EQ(a.transform.offset, 4.5);
}

TEST(QueryContextTest, DistanceBeatsGridOracle) {
  // The closed-form minimum can never exceed any grid-sampled transform.
  Rng rng(62);
  for (int trial = 0; trial < 30; ++trial) {
    Vec q(12), w(12);
    for (std::size_t i = 0; i < 12; ++i) {
      q[i] = rng.Uniform(-10, 10);
      w[i] = rng.Uniform(-10, 10);
    }
    const QueryContext ctx(q);
    const double closed = ctx.Distance(w);
    const double grid = GridMinDistance(q, w, -10, 10, -50, 50, 60);
    EXPECT_LE(closed, grid + 1e-9);
    // And the grid should get reasonably close to it (the optimum is inside
    // the sampled box for these magnitudes).
    EXPECT_NEAR(closed, grid, 2.0);
  }
}

TEST(VerifyCandidateTest, AcceptsWithinEps) {
  const Vec q = {1.0, 2.0, 3.0, 4.0};
  const Vec w = {2.0, 4.0, 6.0, 8.0};  // exactly 2*q
  const QueryContext ctx(q);
  const auto match =
      VerifyCandidate(ctx, w, seq::MakeRecordId(3, 17), 0.001, TransformCost{});
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->series, 3u);
  EXPECT_EQ(match->offset, 17u);
  EXPECT_NEAR(match->transform.scale, 2.0, 1e-9);
  EXPECT_NEAR(match->transform.offset, 0.0, 1e-9);
  EXPECT_NEAR(match->distance, 0.0, 1e-9);
}

TEST(VerifyCandidateTest, RejectsBeyondEps) {
  const Vec q = {0.0, 1.0, 0.0, -1.0};
  const Vec w = {5.0, -3.0, 8.0, 1.0};
  const QueryContext ctx(q);
  const double d = ctx.Distance(w);
  EXPECT_FALSE(
      VerifyCandidate(ctx, w, 0, d * 0.99, TransformCost{}).has_value());
  EXPECT_TRUE(VerifyCandidate(ctx, w, 0, d * 1.01, TransformCost{}).has_value());
}

TEST(VerifyCandidateTest, RejectsByCost) {
  const Vec q = {1.0, 2.0, 3.0, 4.0};
  const Vec w = {-1.0, -2.0, -3.0, -4.0};  // scale -1
  const QueryContext ctx(q);
  EXPECT_TRUE(VerifyCandidate(ctx, w, 0, 0.01, TransformCost{}).has_value());
  EXPECT_FALSE(
      VerifyCandidate(ctx, w, 0, 0.01, TransformCost::PositiveScale()).has_value());
}

// --- QueryContext::MayBeWithin: the pre-check must never reject a window
// that Align() accepts. Every case below probes the bound at the window's
// own exact distance, where a too-tight error band would show first.

/// Window lengths around the 4-wide SIMD loop: 5 and 127 leave a scalar
/// tail of 1 and 3 values, 128 and 512 leave none.
constexpr std::size_t kLengths[] = {5, 127, 128, 512};

Vec RandomVec(Rng& rng, std::size_t n, double lo, double hi) {
  Vec v(n);
  for (auto& x : v) x = rng.Uniform(lo, hi);
  return v;
}

/// Checks the pre-check at eps = the window's exact distance, the tightest
/// bound under which Align() still accepts it (eps = 0 when d = 0).
/// Returns the exact distance.
double ExpectKeepsEveryMatch(const QueryContext& ctx, const Vec& w) {
  const double d = ctx.Align(w).distance;
  EXPECT_TRUE(ctx.MayBeWithin(w, d)) << "n=" << w.size() << " d=" << d;
  return d;
}

TEST(MayBeWithinTest, KeepsExactScaleShiftImages) {
  Rng rng(90);
  for (const std::size_t n : kLengths) {
    for (int trial = 0; trial < 40; ++trial) {
      const Vec q = RandomVec(rng, n, -50, 50);
      const QueryContext ctx(q);
      const double a = rng.Uniform(0.01, 100.0);
      const double b = rng.Uniform(-1e4, 1e4);
      Vec w(n);
      for (std::size_t i = 0; i < n; ++i) w[i] = a * q[i] + b;
      const double d = ExpectKeepsEveryMatch(ctx, w);
      EXPECT_LT(d, 1e-6 * a * std::sqrt(ctx.se_norm_squared()));
    }
  }
}

TEST(MayBeWithinTest, KeepsNegativeScaleImages) {
  Rng rng(91);
  for (const std::size_t n : kLengths) {
    for (int trial = 0; trial < 40; ++trial) {
      const Vec q = RandomVec(rng, n, 0, 200);
      const QueryContext ctx(q);
      const double a = -rng.Uniform(0.01, 10.0);
      Vec w(n);
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = a * q[i] + 7.0 + rng.Uniform(-1e-3, 1e-3);
      }
      ExpectKeepsEveryMatch(ctx, w);
      EXPECT_LT(ctx.Align(w).transform.scale, 0.0);
    }
  }
}

TEST(MayBeWithinTest, KeepsHighLevelLowNoiseWindows) {
  // Price-like windows at level 1e6 with 1e-4 noise: the raw sum of squares
  // is ~1e12 * n while the distance is ~1e-3. Queries at both scales.
  Rng rng(92);
  for (const std::size_t n : kLengths) {
    for (int trial = 0; trial < 40; ++trial) {
      const double level = trial % 2 == 0 ? 1e6 : 0.0;
      Vec q = RandomVec(rng, n, -1e-4, 1e-4);
      for (auto& x : q) x += level;
      const QueryContext ctx(q);
      Vec w = RandomVec(rng, n, -1e-4, 1e-4);
      for (auto& x : w) x += 1e6;
      ExpectKeepsEveryMatch(ctx, w);
      Vec image(n);
      for (std::size_t i = 0; i < n; ++i) image[i] = 3.0 * (q[i] - level) + 1e6;
      ExpectKeepsEveryMatch(ctx, image);
    }
  }
}

TEST(MayBeWithinTest, KeepsLowLevelImagesOfAHighLevelQuery) {
  // T_se of a query at level 1e6 sums to zero only up to rounding, so
  // <use, w> carries mean(use) * S1 on top of the true correlation. The
  // windows sit near level 0, where Align itself stays accurate, so the
  // pre-check must remove that term to keep these near-exact images.
  Rng rng(98);
  for (const std::size_t n : kLengths) {
    for (int trial = 0; trial < 40; ++trial) {
      Vec q = RandomVec(rng, n, -1e-4, 1e-4);
      for (auto& x : q) x += 1e6;
      const QueryContext ctx(q);
      const double a = rng.Uniform(1e3, 1e5);
      Vec w(n);
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = a * (q[i] - 1e6) + rng.Uniform(-1.0, 1.0) * 1e-9;
      }
      ExpectKeepsEveryMatch(ctx, w);
    }
  }
}

TEST(MayBeWithinTest, KeepsConstantWindows) {
  Rng rng(93);
  for (const std::size_t n : kLengths) {
    const QueryContext ctx(RandomVec(rng, n, -5, 5));
    for (const double level : {0.0, 0.1, 3.7, -42.125, 1e6 + 0.1, 1e-9}) {
      ExpectKeepsEveryMatch(ctx, Vec(n, level));
    }
  }
}

TEST(MayBeWithinTest, ConstantQueryKeepsMatchesAndStillFilters) {
  Rng rng(94);
  for (const std::size_t n : kLengths) {
    const QueryContext ctx(Vec(n, 2.5));
    ASSERT_TRUE(ctx.constant_query());
    int rejected = 0;
    for (int trial = 0; trial < 40; ++trial) {
      const Vec w = RandomVec(rng, n, -10, 10);
      const double d = ExpectKeepsEveryMatch(ctx, w);
      if (!ctx.MayBeWithin(w, 0.5 * d)) ++rejected;
    }
    ExpectKeepsEveryMatch(ctx, Vec(n, 1e6 + 0.1));
    EXPECT_EQ(rejected, 40) << "n=" << n;
  }
}

TEST(MayBeWithinTest, NeverRejectsAMatchOverRandomWindowsAndEps) {
  Rng rng(95);
  for (const std::size_t n : kLengths) {
    const Vec q = RandomVec(rng, n, -10, 10);
    const QueryContext ctx(q);
    for (int trial = 0; trial < 200; ++trial) {
      Vec w(n);
      const double mix = rng.Uniform(0.0, 1.0);
      const double level = rng.Uniform(-1e3, 1e3);
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = level + mix * q[i] + (1.0 - mix) * rng.Uniform(-10, 10);
      }
      const double d = ExpectKeepsEveryMatch(ctx, w);
      const double eps = rng.Uniform(0.0, 2.0 * d);
      EXPECT_TRUE(!(d <= eps) || ctx.MayBeWithin(w, eps));
    }
  }
}

TEST(MayBeWithinTest, RejectsWindowsClearlyBeyondTheBound) {
  // The filter must earn its keep: unrelated windows are rejected well
  // before their exact distance, even by a relative margin of 1e-9.
  Rng rng(96);
  for (const std::size_t n : kLengths) {
    const QueryContext ctx(RandomVec(rng, n, -10, 10));
    for (int trial = 0; trial < 50; ++trial) {
      Vec w = RandomVec(rng, n, -10, 10);
      for (auto& x : w) x += 1e4;
      const double d = ctx.Align(w).distance;
      EXPECT_FALSE(ctx.MayBeWithin(w, 0.5 * d));
      EXPECT_FALSE(ctx.MayBeWithin(w, d * (1.0 - 1e-9)));
      EXPECT_TRUE(ctx.MayBeWithin(w, d));
    }
  }
}

TEST(MayBeWithinTest, NonFiniteWindowsAreKept) {
  const Vec q = {1.0, 2.0, 4.0, 8.0, 16.0};
  const QueryContext ctx(q);
  Vec nan_window = {1.0, 2.0, std::nan(""), 3.0, 4.0};
  Vec inf_window = {1.0, 2.0, 3.0, std::numeric_limits<double>::infinity(), 4.0};
  EXPECT_TRUE(ctx.MayBeWithin(nan_window, 0.0));
  EXPECT_TRUE(ctx.MayBeWithin(inf_window, 0.0));
}

TEST(VerifyCandidateTest, AgreesWithTheExactPathAtEveryEps) {
  Rng rng(97);
  const Vec q = RandomVec(rng, 128, 0, 100);
  const QueryContext ctx(q);
  for (int trial = 0; trial < 100; ++trial) {
    Vec w(128);
    for (std::size_t i = 0; i < 128; ++i) {
      w[i] = 5.0 + 0.5 * q[i] + rng.Uniform(-3.0, 3.0);
    }
    const double d = ctx.Align(w).distance;
    for (const double eps : {0.0, 0.5 * d, std::nextafter(d, 0.0), d, 2.0 * d}) {
      const auto fast = VerifyCandidate(ctx, w, 9, eps, TransformCost{});
      const auto exact = VerifyCandidateExact(ctx, w, 9, eps, TransformCost{});
      ASSERT_EQ(fast.has_value(), exact.has_value()) << "eps=" << eps;
      if (fast.has_value()) {
        EXPECT_EQ(fast->distance, exact->distance);
        EXPECT_EQ(fast->transform.scale, exact->transform.scale);
        EXPECT_EQ(fast->transform.offset, exact->transform.offset);
      }
    }
  }
}

TEST(OracleTest, TransformedDistanceBasic) {
  const Vec u = {1.0, 2.0};
  const Vec v = {3.0, 5.0};
  // 2*u + 1 = (3, 5): exact.
  EXPECT_NEAR(TransformedDistance(u, v, geom::ScaleShift{2.0, 1.0}), 0.0, 1e-12);
  EXPECT_NEAR(TransformedDistance(u, v, geom::ScaleShift{1.0, 0.0}),
              std::sqrt(4.0 + 9.0), 1e-12);
}

}  // namespace
}  // namespace tsss::core

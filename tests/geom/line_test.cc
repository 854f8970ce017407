#include "tsss/geom/line.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/geom/vec.h"

namespace tsss::geom {
namespace {

TEST(LineTest, AtEvaluatesParametrically) {
  const Line line{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(line.At(0.0), (Vec{1.0, 2.0}));
  EXPECT_EQ(line.At(2.0), (Vec{7.0, 10.0}));
  EXPECT_EQ(line.At(-1.0), (Vec{-2.0, -2.0}));
}

TEST(LineTest, ScalingLinePassesThroughOriginAndVector) {
  const Vec u = {2.0, 4.0, 6.0};
  const Line line = Line::ScalingLine(u);
  EXPECT_EQ(line.At(0.0), (Vec{0.0, 0.0, 0.0}));
  EXPECT_EQ(line.At(1.0), u);
  EXPECT_EQ(line.At(0.5), (Vec{1.0, 2.0, 3.0}));
}

TEST(LineTest, ShiftingLineMovesAlongAllOnes) {
  const Vec v = {5.0, 1.0, -2.0};
  const Line line = Line::ShiftingLine(v);
  EXPECT_EQ(line.At(0.0), v);
  EXPECT_EQ(line.At(3.0), (Vec{8.0, 4.0, 1.0}));
}

TEST(PldTest, PointOnLineIsZero) {
  const Line line{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_NEAR(Pld(Vec{2.5, 2.5}, line), 0.0, 1e-12);
}

TEST(PldTest, PerpendicularDistanceIn2d) {
  // Line y = x; point (0, 2) is sqrt(2) away.
  const Line line{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_NEAR(Pld(Vec{0.0, 2.0}, line), std::sqrt(2.0), 1e-12);
}

TEST(PldTest, DegenerateLineIsPointDistance) {
  const Line degenerate{{1.0, 1.0, 1.0}, {0.0, 0.0, 0.0}};
  EXPECT_NEAR(Pld(Vec{4.0, 5.0, 1.0}, degenerate), 5.0, 1e-12);
}

TEST(PldTest, LemmaOneFormulaAgreesWithProjection) {
  // PLD(q, L) == ||(q-p) - ((q-p).d / ||d||^2) d||  (Lemma 1).
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t dim = 2 + static_cast<std::size_t>(rng.UniformInt(0, 6));
    Vec p(dim);
    Vec d(dim);
    Vec q(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      p[i] = rng.Uniform(-10, 10);
      d[i] = rng.Uniform(-10, 10);
      q[i] = rng.Uniform(-10, 10);
    }
    if (Norm(d) < 1e-6) continue;
    const Line line{p, d};
    const Vec w = Sub(q, p);
    const Vec expected = Sub(w, Scale(d, Dot(w, d) / NormSquared(d)));
    EXPECT_NEAR(Pld(q, line), Norm(expected), 1e-9);
  }
}

TEST(PldTest, ClosestParamMinimises) {
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    Vec p(5);
    Vec d(5);
    Vec q(5);
    for (std::size_t i = 0; i < 5; ++i) {
      p[i] = rng.Uniform(-3, 3);
      d[i] = rng.Uniform(-3, 3);
      q[i] = rng.Uniform(-3, 3);
    }
    if (Norm(d) < 1e-6) continue;
    const Line line{p, d};
    const double t_star = ClosestParamOnLine(q, line);
    const double d_star = Distance(q, line.At(t_star));
    for (double dt : {-1.0, -0.1, 0.1, 1.0}) {
      EXPECT_LE(d_star, Distance(q, line.At(t_star + dt)) + 1e-12);
    }
  }
}

TEST(LldTest, IntersectingLinesHaveZeroDistance) {
  const Line a{{0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}};
  const Line b{{5.0, -5.0, 0.0}, {0.0, 1.0, 0.0}};
  EXPECT_NEAR(Lld(a, b), 0.0, 1e-12);
}

TEST(LldTest, SkewLinesIn3d) {
  // Classic skew pair: x-axis and the line (0,0,1) + t(0,1,0): distance 1.
  const Line a{{0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}};
  const Line b{{0.0, 0.0, 1.0}, {0.0, 1.0, 0.0}};
  EXPECT_NEAR(Lld(a, b), 1.0, 1e-12);
}

TEST(LldTest, ParallelLinesUsePld) {
  const Line a{{0.0, 0.0}, {1.0, 1.0}};
  const Line b{{0.0, 2.0}, {2.0, 2.0}};  // same direction
  EXPECT_NEAR(Lld(a, b), std::sqrt(2.0), 1e-12);
}

TEST(LldTest, SymmetricInArguments) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t dim = 2 + static_cast<std::size_t>(rng.UniformInt(0, 6));
    Vec p1(dim), d1(dim), p2(dim), d2(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      p1[i] = rng.Uniform(-5, 5);
      d1[i] = rng.Uniform(-5, 5);
      p2[i] = rng.Uniform(-5, 5);
      d2[i] = rng.Uniform(-5, 5);
    }
    const Line a{p1, d1};
    const Line b{p2, d2};
    EXPECT_NEAR(Lld(a, b), Lld(b, a), 1e-9);
  }
}

TEST(LldTest, MinimumAgainstSampledParameters) {
  // LLD must lower-bound the distance between any two points on the lines,
  // and be attained by the returned (ta, tb).
  Rng rng(14);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t dim = 3 + static_cast<std::size_t>(rng.UniformInt(0, 5));
    Vec p1(dim), d1(dim), p2(dim), d2(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      p1[i] = rng.Uniform(-5, 5);
      d1[i] = rng.Uniform(-5, 5);
      p2[i] = rng.Uniform(-5, 5);
      d2[i] = rng.Uniform(-5, 5);
    }
    const Line a{p1, d1};
    const Line b{p2, d2};
    const LinePair closest = ClosestBetweenLines(a, b);
    EXPECT_NEAR(Distance(a.At(closest.ta), b.At(closest.tb)), closest.distance,
                1e-9);
    for (int s = 0; s < 30; ++s) {
      const double ta = rng.Uniform(-10, 10);
      const double tb = rng.Uniform(-10, 10);
      EXPECT_LE(closest.distance, Distance(a.At(ta), b.At(tb)) + 1e-9);
    }
  }
}

TEST(LldTest, BothDegenerateIsPointDistance) {
  const Line a{{0.0, 0.0}, {0.0, 0.0}};
  const Line b{{3.0, 4.0}, {0.0, 0.0}};
  EXPECT_NEAR(Lld(a, b), 5.0, 1e-12);
}

TEST(LldTest, OneDegenerateUsesPld) {
  const Line a{{0.0, 2.0}, {0.0, 0.0}};       // point (0,2)
  const Line b{{0.0, 0.0}, {1.0, 0.0}};       // x-axis
  EXPECT_NEAR(Lld(a, b), 2.0, 1e-12);
  EXPECT_NEAR(Lld(b, a), 2.0, 1e-12);
}

// Pld runs without temporaries but keeps the operation order of its
// definition, so it returns the same bits.
TEST(PldTest, BitIdenticalToClosestPointDistance) {
  Rng rng(31);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t dim = 1 + static_cast<std::size_t>(rng.UniformInt(0, 9));
    Vec q(dim);
    Line line{Vec(dim), Vec(dim)};
    for (std::size_t i = 0; i < dim; ++i) {
      q[i] = rng.Uniform(-10, 10);
      line.point[i] = rng.Uniform(-10, 10);
      line.dir[i] = trial % 9 == 0 ? 0.0 : rng.Uniform(-2, 2);
    }
    const double want = Distance(q, line.At(ClosestParamOnLine(q, line)));
    const double got = Pld(q, line);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << "trial " << trial << ": " << got << " vs " << want;
  }
}

}  // namespace
}  // namespace tsss::geom

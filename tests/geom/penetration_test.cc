#include "tsss/geom/penetration.h"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/geom/sphere.h"

namespace tsss::geom {
namespace {

Mbr UnitBox2d() { return Mbr::FromCorners({0.0, 0.0}, {1.0, 1.0}); }

TEST(SlabTest, LineThroughBox) {
  const Line line{{-1.0, 0.5}, {1.0, 0.0}};
  const SlabResult r = LineMbrSlab(line, UnitBox2d());
  ASSERT_TRUE(r.penetrates);
  EXPECT_NEAR(r.t_enter, 1.0, 1e-12);
  EXPECT_NEAR(r.t_exit, 2.0, 1e-12);
}

TEST(SlabTest, LineMissesBox) {
  const Line above{{-1.0, 2.0}, {1.0, 0.0}};
  EXPECT_FALSE(LinePenetratesMbr(above, UnitBox2d()));
}

TEST(SlabTest, DiagonalLineHitsCorner) {
  const Line corner{{-1.0, -1.0}, {1.0, 1.0}};
  EXPECT_TRUE(LinePenetratesMbr(corner, UnitBox2d()));
}

TEST(SlabTest, AxisParallelLineInsideSlab) {
  const Line inside{{0.5, -10.0}, {0.0, 1.0}};  // vertical through box
  EXPECT_TRUE(LinePenetratesMbr(inside, UnitBox2d()));
  const Line outside{{2.0, -10.0}, {0.0, 1.0}};  // vertical beside box
  EXPECT_FALSE(LinePenetratesMbr(outside, UnitBox2d()));
}

TEST(SlabTest, DegenerateLineIsPointTest) {
  const Line in{{0.5, 0.5}, {0.0, 0.0}};
  const Line out{{1.5, 0.5}, {0.0, 0.0}};
  EXPECT_TRUE(LinePenetratesMbr(in, UnitBox2d()));
  EXPECT_FALSE(LinePenetratesMbr(out, UnitBox2d()));
}

TEST(SlabTest, EmptyMbrNeverPenetrated) {
  const Line line{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_FALSE(LinePenetratesMbr(line, Mbr(2)));
}

TEST(SlabTest, NegativeDirectionComponents) {
  const Line line{{2.0, 2.0}, {-1.0, -1.0}};
  EXPECT_TRUE(LinePenetratesMbr(line, UnitBox2d()));
}

TEST(SlabTest, AgreesWithDenseSamplingRandomised) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t dim = 2 + static_cast<std::size_t>(rng.UniformInt(0, 4));
    Vec lo(dim), hi(dim), p(dim), d(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      lo[i] = rng.Uniform(-3, 3);
      hi[i] = lo[i] + rng.Uniform(0.1, 3.0);
      p[i] = rng.Uniform(-6, 6);
      d[i] = rng.Uniform(-1, 1);
    }
    const Mbr box = Mbr::FromCorners(lo, hi);
    const Line line{p, d};
    const bool slab = LinePenetratesMbr(line, box);
    // Dense parameter sampling can only *confirm* penetration; when it finds
    // an inside point the slab method must agree.
    bool sampled_inside = false;
    for (int s = -4000; s <= 4000; ++s) {
      if (box.Contains(line.At(static_cast<double>(s) * 0.01))) {
        sampled_inside = true;
        break;
      }
    }
    if (sampled_inside) {
      EXPECT_TRUE(slab);
    }
    // And the slab's reported interval midpoint must lie in the box.
    if (slab) {
      const SlabResult r = LineMbrSlab(line, box);
      const double t_mid = 0.5 * (r.t_enter + r.t_exit);
      if (std::isfinite(t_mid)) {
        const Vec point = line.At(t_mid);
        Mbr loose = box.Enlarged(1e-9);
        EXPECT_TRUE(loose.Contains(point));
      }
    }
  }
}

TEST(LineMbrDistanceTest, ZeroWhenPenetrating) {
  const Line line{{-1.0, 0.5}, {1.0, 0.0}};
  EXPECT_DOUBLE_EQ(LineMbrDistance(line, UnitBox2d()), 0.0);
}

TEST(LineMbrDistanceTest, ParallelLineAboveBox) {
  const Line line{{-1.0, 3.0}, {1.0, 0.0}};
  EXPECT_NEAR(LineMbrDistance(line, UnitBox2d()), 2.0, 1e-9);
}

TEST(LineMbrDistanceTest, DiagonalNearCorner) {
  // Line x + y = 3 passes at distance sqrt(2)/2 from corner (1,1)... compute:
  // closest point on line to (1,1): distance |1+1-3|/sqrt(2) = 1/sqrt(2).
  const Line line{{3.0, 0.0}, {-1.0, 1.0}};
  EXPECT_NEAR(LineMbrDistance(line, UnitBox2d()), 1.0 / std::sqrt(2.0), 1e-9);
}

TEST(LineMbrDistanceTest, DegenerateLinePointDistance) {
  const Line point_line{{3.0, 1.0}, {0.0, 0.0}};
  EXPECT_NEAR(LineMbrDistance(point_line, UnitBox2d()), 2.0, 1e-12);
}

TEST(LineMbrDistanceTest, MatchesTernarySamplingRandomised) {
  Rng rng(555);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t dim = 2 + static_cast<std::size_t>(rng.UniformInt(0, 4));
    Vec lo(dim), hi(dim), p(dim), d(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      lo[i] = rng.Uniform(-3, 3);
      hi[i] = lo[i] + rng.Uniform(0.1, 3.0);
      p[i] = rng.Uniform(-6, 6);
      d[i] = rng.Uniform(-1, 1);
    }
    if (Norm(d) < 1e-3) continue;
    const Mbr box = Mbr::FromCorners(lo, hi);
    const Line line{p, d};
    const double exact = LineMbrDistance(line, box);
    // Distance at any sampled parameter upper-bounds the exact minimum.
    double best_sampled = std::numeric_limits<double>::infinity();
    for (int s = -6000; s <= 6000; ++s) {
      const Vec at = line.At(static_cast<double>(s) * 0.01);
      best_sampled = std::min(best_sampled, std::sqrt(box.DistanceSquaredTo(at)));
    }
    EXPECT_LE(exact, best_sampled + 1e-9);
    // With a 0.01 step the sampled minimum is close to exact.
    EXPECT_NEAR(exact, best_sampled, 0.05);
  }
}

TEST(ShouldVisitTest, AllStrategiesAgreeOnClearCases) {
  const Mbr box = UnitBox2d();
  const Line hit{{-1.0, 0.5}, {1.0, 0.0}};
  const Line miss{{-1.0, 50.0}, {1.0, 0.0}};
  for (PruneStrategy strategy :
       {PruneStrategy::kEepOnly, PruneStrategy::kBoundingSpheres,
        PruneStrategy::kExactDistance}) {
    EXPECT_TRUE(ShouldVisit(hit, box, 0.0, strategy, nullptr))
        << PruneStrategyToString(strategy);
    EXPECT_FALSE(ShouldVisit(miss, box, 1.0, strategy, nullptr))
        << PruneStrategyToString(strategy);
  }
}

TEST(ShouldVisitTest, ConservativeHierarchy) {
  // kExactDistance admits a subset of kEepOnly, which must equal the
  // bounding-spheres decision (spheres only short-circuit, never change the
  // verdict). Verified on random configurations.
  Rng rng(777);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t dim = 2 + static_cast<std::size_t>(rng.UniformInt(0, 4));
    Vec lo(dim), hi(dim), p(dim), d(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      lo[i] = rng.Uniform(-3, 3);
      hi[i] = lo[i] + rng.Uniform(0.1, 3.0);
      p[i] = rng.Uniform(-6, 6);
      d[i] = rng.Uniform(-1, 1);
    }
    const Mbr box = Mbr::FromCorners(lo, hi);
    const Line line{p, d};
    const double eps = rng.Uniform(0.0, 1.0);
    const bool eep = ShouldVisit(line, box, eps, PruneStrategy::kEepOnly, nullptr);
    const bool spheres =
        ShouldVisit(line, box, eps, PruneStrategy::kBoundingSpheres, nullptr);
    const bool exact =
        ShouldVisit(line, box, eps, PruneStrategy::kExactDistance, nullptr);
    EXPECT_EQ(eep, spheres) << "spheres must not change the verdict";
    if (exact) {
      EXPECT_TRUE(eep) << "exact admits a subset of eep";
    }
  }
}

TEST(ShouldVisitTest, StatsCountersAdvance) {
  PenetrationStats stats;
  const Mbr box = UnitBox2d();
  const Line hit{{-1.0, 0.5}, {1.0, 0.0}};
  ShouldVisit(hit, box, 0.1, PruneStrategy::kBoundingSpheres, &stats);
  EXPECT_EQ(stats.tests, 1u);
  EXPECT_EQ(stats.sphere_tests, 1u);
  EXPECT_EQ(stats.visits, 1u);
  stats.Reset();
  EXPECT_EQ(stats.tests, 0u);
}

TEST(ShouldVisitTest, OuterSphereRejectIsCounted) {
  PenetrationStats stats;
  const Mbr box = UnitBox2d();
  const Line far_away{{-1.0, 100.0}, {1.0, 0.0}};
  EXPECT_FALSE(
      ShouldVisit(far_away, box, 0.1, PruneStrategy::kBoundingSpheres, &stats));
  EXPECT_EQ(stats.outer_rejects, 1u);
  EXPECT_EQ(stats.slab_tests, 0u);  // short-circuited
}

TEST(ShouldVisitTest, InnerSphereAcceptIsCounted) {
  PenetrationStats stats;
  const Mbr box = Mbr::FromCorners({-10.0, -10.0}, {10.0, 10.0});
  const Line through_center{{-100.0, 0.0}, {1.0, 0.0}};
  EXPECT_TRUE(ShouldVisit(through_center, box, 0.1,
                          PruneStrategy::kBoundingSpheres, &stats));
  EXPECT_EQ(stats.inner_accepts, 1u);
  EXPECT_EQ(stats.slab_tests, 0u);
}

// The corner forms are what the query read path runs on coordinates copied
// out of a node page. They must decide exactly as the Mbr forms do on the
// eps-MBR, including the sphere heuristic and every counter.
TEST(CornerFormTest, MatchesMbrFormsOnRandomBoxes) {
  Rng rng(2024);
  constexpr PruneStrategy kStrategies[] = {PruneStrategy::kEepOnly,
                                           PruneStrategy::kBoundingSpheres,
                                           PruneStrategy::kExactDistance};
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t dim = 1 + static_cast<std::size_t>(rng.UniformInt(0, 7));
    Vec lo(dim);
    Vec hi(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      lo[i] = rng.Uniform(-5, 5);
      hi[i] = lo[i] + (trial % 5 == 0 ? 0.0 : rng.Uniform(0, 3));
    }
    const Mbr box = Mbr::FromCorners(lo, hi);
    Line line{Vec(dim), Vec(dim)};
    for (std::size_t i = 0; i < dim; ++i) {
      line.point[i] = rng.Uniform(-8, 8);
      // Some axis-parallel components, and every 7th line degenerate.
      line.dir[i] = (trial % 7 == 0 || rng.Uniform(0, 1) < 0.2)
                        ? 0.0
                        : rng.Uniform(-1, 1);
    }
    const double eps = trial % 3 == 0 ? 0.0 : rng.Uniform(0, 2);
    // Scratch starts as garbage: the corner forms must not read it.
    Vec scratch(2 * dim + 3, std::numeric_limits<double>::quiet_NaN());

    const SlabResult padded = LineMbrSlab(line, lo, hi, eps);
    const SlabResult enlarged = LineMbrSlab(line, box.Enlarged(eps));
    ASSERT_EQ(padded.penetrates, enlarged.penetrates) << "trial " << trial;
    if (padded.penetrates) {
      EXPECT_EQ(padded.t_enter, enlarged.t_enter);
      EXPECT_EQ(padded.t_exit, enlarged.t_exit);
    }
    EXPECT_TRUE(same_bits(LineMbrDistance(line, lo, hi, scratch),
                          LineMbrDistance(line, box)))
        << "trial " << trial;

    for (const PruneStrategy strategy : kStrategies) {
      PenetrationStats corner_stats;
      PenetrationStats mbr_stats;
      const bool corner =
          ShouldVisit(line, lo, hi, eps, strategy, &corner_stats, scratch);
      EXPECT_EQ(corner, ShouldVisit(line, box, eps, strategy, &mbr_stats))
          << "trial " << trial << " " << PruneStrategyToString(strategy);
      EXPECT_EQ(corner_stats.tests, mbr_stats.tests);
      EXPECT_EQ(corner_stats.visits, mbr_stats.visits);
      EXPECT_EQ(corner_stats.outer_rejects, mbr_stats.outer_rejects);
      EXPECT_EQ(corner_stats.inner_accepts, mbr_stats.inner_accepts);
      EXPECT_EQ(corner_stats.slab_tests, mbr_stats.slab_tests);
      EXPECT_EQ(corner_stats.sphere_tests, mbr_stats.sphere_tests);
      EXPECT_EQ(corner_stats.exact_tests, mbr_stats.exact_tests);
    }

    // Each strategy against its definition over Mbr::Enlarged.
    const Mbr eps_box = box.Enlarged(eps);
    EXPECT_EQ(ShouldVisit(line, lo, hi, eps, PruneStrategy::kEepOnly, nullptr,
                          scratch),
              LinePenetratesMbr(line, eps_box))
        << "trial " << trial;
    EXPECT_EQ(ShouldVisit(line, lo, hi, eps, PruneStrategy::kExactDistance,
                          nullptr, scratch),
              LineMbrDistance(line, box) <= eps)
        << "trial " << trial;
    const double pld = Pld(Sphere::Outer(eps_box).center, line);
    bool want = LinePenetratesMbr(line, eps_box);
    if (pld > Sphere::Outer(eps_box).radius) want = false;
    if (pld <= Sphere::Inner(eps_box).radius) want = true;
    EXPECT_EQ(ShouldVisit(line, lo, hi, eps, PruneStrategy::kBoundingSpheres,
                          nullptr, scratch),
              want)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace tsss::geom

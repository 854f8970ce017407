#include "tsss/geom/penetration.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tsss/common/check.h"

namespace tsss::geom {

SlabResult LineMbrSlab(const Line& line, const Mbr& mbr) {
  if (mbr.empty()) return SlabResult{};
  return LineMbrSlab(line, mbr.lo(), mbr.hi(), 0.0);
}

SlabResult LineMbrSlab(const Line& line, std::span<const double> lo,
                       std::span<const double> hi, double pad) {
  TSSS_DCHECK(line.dim() == lo.size() && lo.size() == hi.size());
  SlabResult out;

  // TSSS_HOT_BEGIN(penetration_slab) — the EP penetration test; executed for
  // every R-tree entry the traversal touches.
  double t_enter = -std::numeric_limits<double>::infinity();
  double t_exit = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < lo.size(); ++i) {
    const double p = line.point[i];
    const double d = line.dir[i];
    const double box_lo = lo[i] - pad;
    const double box_hi = hi[i] + pad;
    if (d == 0.0) {
      // The line is parallel to this slab; it must already be inside it.
      if (p < box_lo || p > box_hi) return out;
      continue;
    }
    double t0 = (box_lo - p) / d;
    double t1 = (box_hi - p) / d;
    if (t0 > t1) std::swap(t0, t1);
    t_enter = std::max(t_enter, t0);
    t_exit = std::min(t_exit, t1);
    if (t_enter > t_exit) return out;
  }
  out.penetrates = true;
  out.t_enter = t_enter;
  out.t_exit = t_exit;
  return out;
  // TSSS_HOT_END(penetration_slab)
}

bool LinePenetratesMbr(const Line& line, const Mbr& mbr) {
  return LineMbrSlab(line, mbr).penetrates;
}

namespace {

/// Squared distance from the line point at parameter t to the box.
double BoxDistSquaredAt(const Line& line, std::span<const double> lo,
                        std::span<const double> hi, double t) {
  // TSSS_HOT_BEGIN(penetration_box_dist)
  double acc = 0.0;
  for (std::size_t i = 0; i < lo.size(); ++i) {
    const double x = line.point[i] + t * line.dir[i];
    double d = 0.0;
    if (x < lo[i]) {
      d = lo[i] - x;
    } else if (x > hi[i]) {
      d = x - hi[i];
    }
    acc += d * d;
  }
  return acc;
  // TSSS_HOT_END(penetration_box_dist)
}

/// Unconstrained minimiser of the quadratic piece of f(t) whose active set is
/// determined at `t_probe`; returns false when the piece is constant in t.
bool PieceVertex(const Line& line, std::span<const double> lo,
                 std::span<const double> hi, double t_probe, double* t_out) {
  double a = 0.0;  // sum of d_i^2 over active axes
  double b = 0.0;  // f'(t)/2 = a*t + b on this piece
  for (std::size_t i = 0; i < lo.size(); ++i) {
    const double d = line.dir[i];
    if (d == 0.0) continue;
    const double x = line.point[i] + t_probe * d;
    if (x < lo[i]) {
      a += d * d;
      b += d * (line.point[i] - lo[i]);
    } else if (x > hi[i]) {
      a += d * d;
      b += d * (line.point[i] - hi[i]);
    }
  }
  if (a <= 0.0) return false;
  *t_out = -b / a;
  return true;
}

}  // namespace

double LineMbrDistance(const Line& line, const Mbr& mbr) {
  if (mbr.empty()) return std::numeric_limits<double>::infinity();
  Vec scratch(2 * mbr.dim());
  return LineMbrDistance(line, mbr.lo(), mbr.hi(), scratch);
}

double LineMbrDistance(const Line& line, std::span<const double> lo,
                       std::span<const double> hi, std::span<double> scratch) {
  TSSS_DCHECK(line.dim() == lo.size() && lo.size() == hi.size());
  TSSS_DCHECK(scratch.size() >= 2 * lo.size());

  // TSSS_HOT_BEGIN(penetration_line_box_dist)
  // Degenerate line: point-to-box distance (L(0) is the point itself).
  if (IsZero(line.dir, 0.0)) return std::sqrt(BoxDistSquaredAt(line, lo, hi, 0.0));

  // If the line passes through the box the distance is exactly zero.
  if (LineMbrSlab(line, lo, hi, 0.0).penetrates) return 0.0;

  // Collect the breakpoints where some coordinate of L(t) crosses a face
  // plane; between consecutive breakpoints f(t) = dist^2(L(t), box) is a
  // single quadratic. The direction is non-zero, so there are at least two.
  std::size_t count = 0;
  for (std::size_t i = 0; i < lo.size(); ++i) {
    const double d = line.dir[i];
    if (d == 0.0) continue;
    scratch[count++] = (lo[i] - line.point[i]) / d;
    scratch[count++] = (hi[i] - line.point[i]) / d;
  }
  const std::span<double> ts = scratch.first(count);
  std::sort(ts.begin(), ts.end());

  double best = std::numeric_limits<double>::infinity();
  auto consider = [&](double t) {
    best = std::min(best, BoxDistSquaredAt(line, lo, hi, t));
  };
  auto consider_vertex = [&](double t_probe, double t_lo, double t_hi) {
    double vertex;
    if (PieceVertex(line, lo, hi, t_probe, &vertex)) {
      consider(std::clamp(vertex, t_lo, t_hi));
    }
  };

  // Candidate minimisers: every breakpoint, plus each piece's own vertex
  // (clamped into the piece).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double t : ts) consider(t);
  consider_vertex(ts.front() - 1.0, -kInf, ts.front());
  for (std::size_t k = 1; k < ts.size(); ++k) {
    consider_vertex(0.5 * (ts[k - 1] + ts[k]), ts[k - 1], ts[k]);
  }
  consider_vertex(ts.back() + 1.0, ts.back(), kInf);
  return std::sqrt(best);
  // TSSS_HOT_END(penetration_line_box_dist)
}

std::string_view PruneStrategyToString(PruneStrategy s) {
  switch (s) {
    case PruneStrategy::kEepOnly:
      return "eep";
    case PruneStrategy::kBoundingSpheres:
      return "spheres";
    case PruneStrategy::kExactDistance:
      return "exact";
  }
  return "unknown";
}

bool ShouldVisit(const Line& line, const Mbr& mbr, double eps,
                 PruneStrategy strategy, PenetrationStats* stats) {
  if (mbr.empty()) {
    if (stats != nullptr) ++stats->tests;
    return false;
  }
  Vec scratch(2 * mbr.dim());
  return ShouldVisit(line, mbr.lo(), mbr.hi(), eps, strategy, stats, scratch);
}

bool ShouldVisit(const Line& line, std::span<const double> lo,
                 std::span<const double> hi, double eps, PruneStrategy strategy,
                 PenetrationStats* stats, std::span<double> scratch) {
  TSSS_DCHECK(eps >= 0.0);
  TSSS_DCHECK(scratch.size() >= 2 * lo.size());
  if (stats != nullptr) ++stats->tests;

  bool visit = false;
  switch (strategy) {
    case PruneStrategy::kEepOnly: {
      if (stats != nullptr) ++stats->slab_tests;
      visit = LineMbrSlab(line, lo, hi, eps).penetrates;
      break;
    }
    case PruneStrategy::kBoundingSpheres: {
      // Centre, half diagonal and smallest half extent of the eps-MBR
      // [lo - eps, hi + eps], as Mbr::Enlarged(eps) would give them.
      const std::span<double> center = scratch.first(lo.size());
      double half_diag_sq = 0.0;
      double min_half = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < lo.size(); ++i) {
        const double box_lo = lo[i] - eps;
        const double box_hi = hi[i] + eps;
        center[i] = 0.5 * (box_lo + box_hi);
        const double half = 0.5 * (box_hi - box_lo);
        half_diag_sq += half * half;
        min_half = std::min(min_half, half);
      }
      if (stats != nullptr) ++stats->sphere_tests;
      const double pld = Pld(center, line);
      if (pld > std::sqrt(half_diag_sq)) {
        // Outer sphere missed: the box cannot be penetrated.
        if (stats != nullptr) ++stats->outer_rejects;
        visit = false;
        break;
      }
      if (pld <= min_half) {
        // Inner sphere hit: the box is certainly penetrated.
        if (stats != nullptr) ++stats->inner_accepts;
        visit = true;
        break;
      }
      if (stats != nullptr) ++stats->slab_tests;
      visit = LineMbrSlab(line, lo, hi, eps).penetrates;
      break;
    }
    case PruneStrategy::kExactDistance: {
      if (stats != nullptr) ++stats->exact_tests;
      visit = LineMbrDistance(line, lo, hi, scratch) <= eps;
      break;
    }
  }
  if (visit && stats != nullptr) ++stats->visits;
  return visit;
}

}  // namespace tsss::geom

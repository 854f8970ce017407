#include "tsss/geom/line.h"

#include <cmath>

#include "tsss/common/check.h"

namespace tsss::geom {

double ClosestParamOnLine(std::span<const double> q, const Line& line) {
  const double dd = NormSquared(line.dir);
  if (dd <= 0.0) return 0.0;
  const Vec w = Sub(q, line.point);
  return Dot(w, line.dir) / dd;
}

double Pld(std::span<const double> q, const Line& line) {
  TSSS_DCHECK(q.size() == line.dim());
  // TSSS_HOT_BEGIN(pld) — the leaf test of Theorem 2, run for every point
  // entry a query reads. The same operations in the same order as
  // Distance(q, line.At(ClosestParamOnLine(q, line))), with no temporaries.
  const std::size_t n = q.size();
  double dd = 0.0;
  for (std::size_t i = 0; i < n; ++i) dd += line.dir[i] * line.dir[i];
  double t = 0.0;
  if (dd > 0.0) {
    double wd = 0.0;
    for (std::size_t i = 0; i < n; ++i) wd += (q[i] - line.point[i]) * line.dir[i];
    t = wd / dd;
  }
  TSSS_DCHECK_FINITE(t);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double closest = t * line.dir[i] + line.point[i];
    const double d = q[i] - closest;
    acc += d * d;
  }
  const double dist = std::sqrt(acc);
  TSSS_DCHECK_FINITE(dist);
  return dist;
  // TSSS_HOT_END(pld)
}

LinePair ClosestBetweenLines(const Line& a, const Line& b) {
  TSSS_DCHECK(a.dim() == b.dim());
  const Vec w = Sub(a.point, b.point);  // p_a - p_b
  const double daa = NormSquared(a.dir);
  const double dbb = NormSquared(b.dir);
  const double dab = Dot(a.dir, b.dir);

  LinePair out;
  // Degenerate cases: one or both directions are zero vectors.
  if (daa <= 0.0 && dbb <= 0.0) {
    out.distance = Norm(w);
    return out;
  }
  if (daa <= 0.0) {
    out.tb = ClosestParamOnLine(a.point, b);
    out.distance = Distance(a.point, b.At(out.tb));
    return out;
  }
  if (dbb <= 0.0) {
    out.ta = ClosestParamOnLine(b.point, a);
    out.distance = Distance(b.point, a.At(out.ta));
    return out;
  }

  // Normal equations for min_t ||w + ta*da - tb*db||^2:
  //   daa*ta - dab*tb = -<da, w>
  //   dab*ta - dbb*tb = -<db, w>
  const double det = dab * dab - daa * dbb;  // <= 0 by Cauchy-Schwarz
  const double rel = std::fabs(det) / (daa * dbb);
  if (rel <= 1e-14) {
    // Parallel lines: fix ta = 0 and project a.point onto b (Lemma 2's
    // parallel branch, LLD = PLD(p1, L2)).
    out.ta = 0.0;
    out.tb = ClosestParamOnLine(a.point, b);
    out.distance = Distance(a.point, b.At(out.tb));
    return out;
  }
  const double daw = Dot(a.dir, w);
  const double dbw = Dot(b.dir, w);
  out.ta = (dab * dbw - dbb * daw) / (-det);
  out.tb = (daa * dbw - dab * daw) / (-det);
  out.distance = Distance(a.At(out.ta), b.At(out.tb));
  return out;
}

double Lld(const Line& a, const Line& b) { return ClosestBetweenLines(a, b).distance; }

}  // namespace tsss::geom

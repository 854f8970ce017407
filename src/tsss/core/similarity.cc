#include "tsss/core/similarity.h"

#include <cmath>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "tsss/common/check.h"
#include "tsss/common/math_utils.h"
#include "tsss/geom/se_transform.h"
#include "tsss/seq/window.h"

namespace tsss::core {

namespace {

/// Absolute slack added to the pre-check limit. It covers the absolute error
/// of products that underflow, which the relative bounds below do not.
constexpr double kAbsSlack = 1e-200;

/// Below this ||use - mean(use)||^2 the pre-check is switched off: 1/U and
/// the underflow terms it scales would no longer be small.
constexpr double kMinSePerp = 1e-100;

#if defined(__SSE2__)
double HorizontalSum(__m128d x) {
  return _mm_cvtsd_f64(_mm_add_sd(x, _mm_unpackhi_pd(x, x)));
}
#endif

}  // namespace

QueryContext::QueryContext(std::span<const double> query)
    : query_(query.begin(), query.end()) {
  TSSS_DCHECK(!query.empty());
  use_ = query_;
  q_mean_ = geom::SeTransformInPlace(use_);
  uu_ = geom::NormSquared(use_);
  InitPrecheck();
}

void QueryContext::InitPrecheck() {
  // The limit is derived in DESIGN.md §7 ("Candidate verification
  // pre-check"). u is the unit roundoff, g = gamma_{n+4} the usual bound on
  // the relative error of an n-term sum. The coefficients carry a factor-2
  // safety margin over the first-order analysis.
  const double n = static_cast<double>(use_.size());
  constexpr double u = std::numeric_limits<double>::epsilon() / 2.0;
  const double g = (n + 4.0) * u / (1.0 - (n + 4.0) * u);
  inv_n_ = 1.0 / n;
  double kappa = 1.0;  // ||use||^2 / ||use - mean(use)||^2
  double rho = 0.0;    // |sum(use)| / ||use||
  if (uu_ > 0.0) {
    double sum = 0.0;
    for (const double x : use_) sum += x;
    se_mean_ = sum / n;
    double perp = 0.0;
    for (const double x : use_) perp += (x - se_mean_) * (x - se_mean_);
    if (!(perp >= kMinSePerp)) {
      precheck_ = false;
      return;
    }
    inv_se_perp_ = 1.0 / perp;
    kappa = uu_ / perp;
    rho = std::fabs(sum) / std::sqrt(uu_);
  }
  const double alpha = 1.0 + 3.0 * g;                         // bound term
  const double beta = 8.0 * u;                                // sqrt(S2) term
  const double lambda = 2.0 * u * (rho + 3.0 * std::sqrt(n) * g);  // |v0| term
  const double total = alpha + beta + lambda;
  bound_coef_ = alpha * total;
  s2_coef_ = beta * total + 2.0 * g * (6.0 + 10.0 * std::sqrt(kappa));
  level_coef_ = lambda * total;
  precheck_ = std::isfinite(bound_coef_) && std::isfinite(s2_coef_) &&
              std::isfinite(level_coef_);
}

bool QueryContext::MayBeWithin(std::span<const double> window,
                               double bound) const {
  TSSS_DCHECK(window.size() == use_.size());
  if (!precheck_) return true;
  // TSSS_HOT_BEGIN(verify_precheck) — one fused pass over every candidate
  // window; most candidates stop here and never reach Align().
  //
  // With w = v - v[0] (the shift keeps S2 small on high-level windows):
  //   S1 = sum w, S2 = sum w^2, C = <use, w>
  //   d^2 = S2 - S1^2/n - (C - mean(use)*S1)^2 / ||use - mean(use)||^2
  // Six independent accumulators keep the adds off one latency chain.
  const std::size_t n = window.size();
  const double* v = window.data();
  const double* se = use_.data();
  const double v0 = v[0];
  double s1 = 0.0;
  double s2 = 0.0;
  double c = 0.0;
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128d base = _mm_set1_pd(v0);
  __m128d s1_lo = _mm_setzero_pd();
  __m128d s1_hi = _mm_setzero_pd();
  __m128d s2_lo = _mm_setzero_pd();
  __m128d s2_hi = _mm_setzero_pd();
  __m128d c_lo = _mm_setzero_pd();
  __m128d c_hi = _mm_setzero_pd();
  for (; i + 4 <= n; i += 4) {
    const __m128d w_lo = _mm_sub_pd(_mm_loadu_pd(v + i), base);
    const __m128d w_hi = _mm_sub_pd(_mm_loadu_pd(v + i + 2), base);
    s1_lo = _mm_add_pd(s1_lo, w_lo);
    s1_hi = _mm_add_pd(s1_hi, w_hi);
    s2_lo = _mm_add_pd(s2_lo, _mm_mul_pd(w_lo, w_lo));
    s2_hi = _mm_add_pd(s2_hi, _mm_mul_pd(w_hi, w_hi));
    c_lo = _mm_add_pd(c_lo, _mm_mul_pd(_mm_loadu_pd(se + i), w_lo));
    c_hi = _mm_add_pd(c_hi, _mm_mul_pd(_mm_loadu_pd(se + i + 2), w_hi));
  }
  s1 = HorizontalSum(_mm_add_pd(s1_lo, s1_hi));
  s2 = HorizontalSum(_mm_add_pd(s2_lo, s2_hi));
  c = HorizontalSum(_mm_add_pd(c_lo, c_hi));
#endif
  for (; i < n; ++i) {
    const double w = v[i] - v0;
    s1 += w;
    s2 += w * w;
    c += se[i] * w;
  }
  const double c_perp = c - se_mean_ * s1;
  const double d2 = s2 - s1 * s1 * inv_n_ - c_perp * c_perp * inv_se_perp_;
  const double limit = bound * bound * bound_coef_ + s2 * s2_coef_ +
                       v0 * v0 * level_coef_ + kAbsSlack;
  // A NaN on either side compares false and keeps the window.
  return !(d2 > limit);
  // TSSS_HOT_END(verify_precheck)
}

geom::Alignment QueryContext::Align(std::span<const double> window) const {
  TSSS_DCHECK(window.size() == use_.size());
  // TSSS_HOT_BEGIN(exact_verify) — the exact scale-shift verification over a
  // raw window; runs once per candidate that survives index pruning.
  const double n = static_cast<double>(window.size());
  double sum_v = 0.0;
  double corr = 0.0;  // <use, v>
  for (std::size_t i = 0; i < window.size(); ++i) {
    sum_v += window[i];
    corr += use_[i] * window[i];
  }
  const double v_mean = sum_v / n;
  const double a = uu_ > 0.0 ? corr / uu_ : 0.0;

  // Residual pass: d^2 = || (v - mean(v)) - a*use ||^2. Accumulating the
  // residuals directly (instead of the algebraically equal
  // ||vse||^2 - a^2*||use||^2) avoids catastrophic cancellation when the
  // window is an exact scale-shift image of the query.
  double acc = 0.0;
  for (std::size_t i = 0; i < window.size(); ++i) {
    const double r = (window[i] - v_mean) - a * use_[i];
    acc += r * r;
  }

  geom::Alignment out;
  out.transform.scale = a;
  out.transform.offset = uu_ > 0.0 ? v_mean - a * q_mean_ : v_mean;
  out.distance = std::sqrt(acc);
  return out;
  // TSSS_HOT_END(exact_verify)
}

Match MakeMatch(index::RecordId record, const geom::Alignment& alignment) {
  Match match;
  match.record = record;
  match.series = seq::SeriesOf(record);
  match.offset = seq::OffsetOf(record);
  match.distance = alignment.distance;
  match.transform = alignment.transform;
  return match;
}

std::optional<Match> VerifyCandidate(const QueryContext& ctx,
                                     std::span<const double> window,
                                     index::RecordId record, double eps,
                                     const TransformCost& cost) {
  if (!ctx.MayBeWithin(window, eps)) return std::nullopt;
  return VerifyCandidateExact(ctx, window, record, eps, cost);
}

std::optional<Match> VerifyCandidateExact(const QueryContext& ctx,
                                          std::span<const double> window,
                                          index::RecordId record, double eps,
                                          const TransformCost& cost) {
  const geom::Alignment alignment = ctx.Align(window);
  if (alignment.distance > eps) return std::nullopt;
  if (!cost.Allows(alignment.transform)) return std::nullopt;
  return MakeMatch(record, alignment);
}

}  // namespace tsss::core

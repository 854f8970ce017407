#ifndef TSSS_CORE_SIMILARITY_H_
#define TSSS_CORE_SIMILARITY_H_

#include <limits>
#include <optional>
#include <span>

#include "tsss/geom/scale_shift.h"
#include "tsss/geom/vec.h"
#include "tsss/index/node.h"
#include "tsss/storage/sequence_store.h"

namespace tsss::core {

/// User-specified bounds on the transformation cost (paper, Section 3: "the
/// ranges of a and b can be regarded as the cost of the scaling and shifting
/// transformations and the maximum cost allowed can be specified by the
/// user"). Defaults allow everything.
struct TransformCost {
  double min_scale = -std::numeric_limits<double>::infinity();
  double max_scale = std::numeric_limits<double>::infinity();
  double min_offset = -std::numeric_limits<double>::infinity();
  double max_offset = std::numeric_limits<double>::infinity();

  bool Allows(const geom::ScaleShift& t) const {
    return t.scale >= min_scale && t.scale <= max_scale &&
           t.offset >= min_offset && t.offset <= max_offset;
  }

  /// Positive scaling only - "same trend" in the stock-analysis sense.
  static TransformCost PositiveScale() {
    TransformCost c;
    c.min_scale = 0.0;
    return c;
  }
};

/// A verified query answer: which window matched, how far it is after the
/// optimal transformation, and the transformation itself (the paper requires
/// reporting a and b with every result).
struct Match {
  index::RecordId record = 0;
  storage::SeriesId series = 0;
  std::uint32_t offset = 0;
  double distance = 0.0;  ///< min_{a,b} ||a*Q + b*N - S'|| (exact, full dim)
  geom::ScaleShift transform;
};

/// The canonical answer order: ascending distance, ties broken by record id.
/// k-NN keeps the first k matches in this order, so its answer set does not
/// depend on visit order or on how the windows are split across shards.
inline bool CanonicalBefore(const Match& a, const Match& b) {
  if (a.distance < b.distance) return true;
  if (b.distance < a.distance) return false;
  return a.record < b.record;
}

/// The match for `record` under `alignment` (no eps or cost check).
Match MakeMatch(index::RecordId record, const geom::Alignment& alignment);

/// Precomputed per-query state for evaluating the exact scale-shift distance
/// against many windows in O(n) each with no allocation.
///
/// For query u and window v, with use = T_se(u):
///   <T_se(u), T_se(v)> == <use, v>                  (since sum(use) == 0)
///   ||T_se(v)||^2      == sum v^2 - n * mean(v)^2
///   a  = <use, v> / ||use||^2
///   b  = mean(v) - a * mean(u)
///   d^2 = ||T_se(v)||^2 - a^2 * ||use||^2
///
/// MayBeWithin() is a one-pass filter in front of Align(): it evaluates the
/// last identity from three sums and rejects only windows that are provably
/// farther than the bound once rounding error is allowed for (DESIGN.md §7,
/// "Candidate verification pre-check"). Windows it keeps go through Align().
class QueryContext {
 public:
  /// Requires a non-empty query.
  explicit QueryContext(std::span<const double> query);

  std::size_t n() const { return use_.size(); }
  const geom::Vec& query() const { return query_; }
  const geom::Vec& se() const { return use_; }
  double se_norm_squared() const { return uu_; }
  bool constant_query() const { return uu_ <= 0.0; }

  /// Optimal alignment of the query onto `window` (size n). Identical to
  /// geom::AlignScaleShift(query, window) but allocation-free.
  geom::Alignment Align(std::span<const double> window) const;

  /// Exact distance only (slightly cheaper call sites).
  double Distance(std::span<const double> window) const {
    return Align(window).distance;
  }

  /// Conservative filter: false only when Align(window).distance is certain
  /// to exceed `bound`. True for every window Align() puts within `bound`,
  /// ties included, and for any window whose sums are not finite.
  bool MayBeWithin(std::span<const double> window, double bound) const;

 private:
  void InitPrecheck();

  geom::Vec query_;
  geom::Vec use_;  ///< T_se(query)
  double uu_;      ///< ||use||^2
  double q_mean_;

  // Pre-check constants (see InitPrecheck).
  bool precheck_ = true;      ///< false: MayBeWithin always passes
  double inv_n_ = 0.0;        ///< 1 / n
  double se_mean_ = 0.0;      ///< mean(use): use is zero-sum only up to rounding
  double inv_se_perp_ = 0.0;  ///< 1 / ||use - se_mean_||^2 (0 for a flat query)
  double bound_coef_ = 0.0;   ///< limit = bound_coef_ * bound^2
  double s2_coef_ = 0.0;      ///<       + s2_coef_ * S2
  double level_coef_ = 0.0;   ///<       + level_coef_ * v0^2 + kAbsSlack
};

/// Verifies one candidate window against the query: exact distance, error
/// bound, and cost constraints (the paper's post-processing step).
/// Returns nullopt when the candidate is a false alarm. Runs
/// QueryContext::MayBeWithin first, then VerifyCandidateExact; the answer is
/// the same as VerifyCandidateExact's on every window.
std::optional<Match> VerifyCandidate(const QueryContext& ctx,
                                     std::span<const double> window,
                                     index::RecordId record, double eps,
                                     const TransformCost& cost);

/// VerifyCandidate without the pre-check: Align() on every window. The
/// sequential-scan oracle uses this, so it shares no filtering code with the
/// index path it checks.
std::optional<Match> VerifyCandidateExact(const QueryContext& ctx,
                                          std::span<const double> window,
                                          index::RecordId record, double eps,
                                          const TransformCost& cost);

}  // namespace tsss::core

#endif  // TSSS_CORE_SIMILARITY_H_

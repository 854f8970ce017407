#ifndef TSSS_GEOM_PENETRATION_H_
#define TSSS_GEOM_PENETRATION_H_

#include <cstdint>
#include <span>
#include <string>

#include "tsss/geom/line.h"
#include "tsss/geom/mbr.h"

namespace tsss::geom {

/// Result of the Entering/Exiting-Points (slab) test of a line against a box.
/// When `penetrates`, the line is inside the box for t in [t_enter, t_exit].
struct SlabResult {
  bool penetrates = false;
  double t_enter = 0.0;
  double t_exit = 0.0;
};

/// Entering/Exiting Points method (paper, Section 7): exact test of whether
/// line L(t) = p + t*d passes through the closed hyper-rectangle `mbr`.
/// A degenerate line (zero direction) penetrates iff its point is inside.
SlabResult LineMbrSlab(const Line& line, const Mbr& mbr);

/// Corner form of LineMbrSlab over the box [lo - pad, hi + pad], with the
/// pad applied exactly as Mbr::Enlarged(pad) applies it. This is the one
/// body of the slab test; it allocates nothing, so the query read path can
/// run it on coordinates copied out of a pinned node page.
SlabResult LineMbrSlab(const Line& line, std::span<const double> lo,
                       std::span<const double> hi, double pad);

/// Convenience wrapper returning only the boolean verdict.
bool LinePenetratesMbr(const Line& line, const Mbr& mbr);

/// Exact shortest Euclidean distance between a line and a hyper-rectangle
/// (0 when they intersect). The squared distance is convex piecewise
/// quadratic in t; we scan its breakpoint segments and minimise each piece
/// analytically, so the result is exact up to rounding.
double LineMbrDistance(const Line& line, const Mbr& mbr);

/// Corner form of LineMbrDistance: the one body of the distance. The
/// breakpoints go to `scratch`, which must hold at least 2 * dim doubles, so
/// the call allocates nothing.
double LineMbrDistance(const Line& line, std::span<const double> lo,
                       std::span<const double> hi, std::span<double> scratch);

/// Node-pruning strategies for the tree search. These correspond to the
/// paper's experiment sets plus one extension:
///  * kEepOnly          — experiment set 2: slab test on the eps-MBR.
///  * kBoundingSpheres  — experiment set 3: outer/inner sphere heuristic
///                        short-circuiting the slab test.
///  * kExactDistance    — extension: LineMbrDistance(line, MBR) <= eps, a
///                        strictly tighter (still no-false-dismissal) test.
enum class PruneStrategy : std::uint8_t {
  kEepOnly = 0,
  kBoundingSpheres = 1,
  kExactDistance = 2,
};

std::string_view PruneStrategyToString(PruneStrategy s);

/// Counters describing how penetration decisions were reached; used by the
/// bounding-spheres ablation (DESIGN.md experiment A1).
struct PenetrationStats {
  std::uint64_t tests = 0;           ///< total ShouldVisit calls
  std::uint64_t visits = 0;          ///< decisions to descend
  std::uint64_t outer_rejects = 0;   ///< pruned by the outer sphere alone
  std::uint64_t inner_accepts = 0;   ///< admitted by the inner sphere alone
  std::uint64_t slab_tests = 0;      ///< slab tests actually executed
  std::uint64_t sphere_tests = 0;    ///< sphere PLD evaluations
  std::uint64_t exact_tests = 0;     ///< exact line-box distance evaluations

  void Reset() { *this = PenetrationStats{}; }
};

/// Decides whether a node with bounding box `mbr` may contain a point within
/// `eps` of `line`, using `strategy`. All strategies are conservative
/// (no false dismissals, Theorem 3). `stats` may be null.
bool ShouldVisit(const Line& line, const Mbr& mbr, double eps,
                 PruneStrategy strategy, PenetrationStats* stats);

/// Corner form of ShouldVisit for a non-empty box [lo, hi]: the same
/// decision, counters and arithmetic, with no allocation. `scratch` must
/// hold at least 2 * dim doubles (the sphere centre or the breakpoints).
bool ShouldVisit(const Line& line, std::span<const double> lo,
                 std::span<const double> hi, double eps, PruneStrategy strategy,
                 PenetrationStats* stats, std::span<double> scratch);

}  // namespace tsss::geom

#endif  // TSSS_GEOM_PENETRATION_H_

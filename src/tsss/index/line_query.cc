#include <vector>

#include "tsss/index/rtree.h"
#include "tsss/obs/query_telemetry.h"

namespace tsss::index {

Result<std::vector<LineMatch>> RTree::LineQuery(
    const geom::Line& line, double eps, geom::PruneStrategy strategy,
    geom::PenetrationStats* stats) const {
  if (line.dim() != config_.dim) {
    return Status::InvalidArgument("query line dim mismatch");
  }
  if (eps < 0.0) {
    return Status::InvalidArgument("eps must be non-negative");
  }
  const std::size_t dim = config_.dim;
  // Per-query scratch: entry corners plus the penetration tests' working
  // memory, so the per-entry loop below allocates nothing.
  geom::Vec scratch(4 * dim);
  const std::span<double> lo(scratch.data(), dim);
  const std::span<double> hi(scratch.data() + dim, dim);
  const std::span<double> work(scratch.data() + 2 * dim, 2 * dim);

  std::vector<LineMatch> out;
  std::vector<storage::PageId> stack;
  stack.push_back(root_);
  while (!stack.empty()) {
    const storage::PageId page = stack.back();
    stack.pop_back();
    std::uint16_t level = 0;
    Status s = ScanNode(page, [&](const NodeView& node) {
      level = node.level();
      for (std::size_t k = 0; k < node.size(); ++k) {
        node.Corners(k, lo, hi);
        if (!node.is_leaf()) {
          // Internal pruning (Theorem 3): descend only into children whose
          // eps-MBR passes the penetration test of the chosen strategy.
          if (geom::ShouldVisit(line, lo, hi, eps, strategy, stats, work)) {
            stack.push_back(node.child(k));
          }
        } else if (config_.box_leaves) {
          // Sub-trail mode: a box entry is a candidate when it passes the
          // same eps-penetration test used for directory nodes; the reported
          // distance is the exact line-box distance (a lower bound for every
          // window inside the box).
          if (geom::ShouldVisit(line, lo, hi, eps, strategy, stats, work)) {
            obs::TickMbrDistanceEvals();
            obs::TickLeafCandidates();
            out.push_back(LineMatch{node.record(k),
                                    geom::LineMbrDistance(line, lo, hi, work)});
          }
        } else {
          // Point-leaf check (Theorem 2): keep points whose PLD to the query
          // line is within eps.
          const double d = geom::Pld(lo, line);
          if (d <= eps) {
            obs::TickLeafCandidates();
            out.push_back(LineMatch{node.record(k), d});
          }
        }
      }
    });
    if (!s.ok()) return s;
    obs::TickNodeVisit(level);
  }
  return out;
}

}  // namespace tsss::index

#include <utility>
#include <vector>

#include "tsss/index/rtree.h"
#include "tsss/obs/query_telemetry.h"

namespace tsss::index {

RTree::LineNeighborIterator::LineNeighborIterator(const RTree* tree,
                                                  geom::Line line)
    : tree_(tree),
      line_(std::move(line)),
      scratch_(4 * tree->config().dim) {
  QueueItem root_item;
  root_item.distance = 0.0;
  root_item.is_record = false;
  root_item.page = tree_->root_;
  heap_.push(root_item);
}

Result<std::optional<LineMatch>> RTree::LineNeighborIterator::Next() {
  while (!heap_.empty()) {
    QueueItem item = heap_.top();
    heap_.pop();
    if (item.is_record) {
      obs::TickLeafCandidates();
      return std::optional<LineMatch>(item.match);
    }
    const std::size_t dim = tree_->config().dim;
    const std::span<double> lo(scratch_.data(), dim);
    const std::span<double> hi(scratch_.data() + dim, dim);
    const std::span<double> work(scratch_.data() + 2 * dim, 2 * dim);
    const bool box_leaves = tree_->config().box_leaves;
    std::uint16_t level = 0;
    Status s = tree_->ScanNode(item.page, [&](const NodeView& node) {
      level = node.level();
      for (std::size_t k = 0; k < node.size(); ++k) {
        node.Corners(k, lo, hi);
        QueueItem child;
        if (node.is_leaf()) {
          child.is_record = true;
          if (box_leaves) {
            obs::TickMbrDistanceEvals();
            child.distance = geom::LineMbrDistance(line_, lo, hi, work);
          } else {
            child.distance = geom::Pld(lo, line_);
          }
          child.match = LineMatch{node.record(k), child.distance};
        } else {
          child.is_record = false;
          child.page = node.child(k);
          obs::TickMbrDistanceEvals();
          child.distance = geom::LineMbrDistance(line_, lo, hi, work);
        }
        heap_.push(child);
      }
    });
    if (!s.ok()) return s;
    obs::TickNodeVisit(level);
  }
  return std::optional<LineMatch>();
}

RTree::LineNeighborIterator RTree::NearestLineNeighbors(
    const geom::Line& line) const {
  return LineNeighborIterator(this, line);
}

Result<std::vector<LineMatch>> RTree::PointKnn(std::span<const double> point,
                                               std::size_t k) const {
  if (point.size() != config_.dim) {
    return Status::InvalidArgument("query point dim mismatch");
  }
  // A point query is a degenerate line query: the zero-direction "line"
  // reduces every line-distance primitive to the point distance.
  const geom::Line degenerate{geom::Vec(point.begin(), point.end()),
                              geom::Vec(point.size(), 0.0)};
  return LineKnn(degenerate, k);
}

Result<std::vector<LineMatch>> RTree::LineKnn(const geom::Line& line,
                                              std::size_t k) const {
  if (line.dim() != config_.dim) {
    return Status::InvalidArgument("query line dim mismatch");
  }
  std::vector<LineMatch> out;
  LineNeighborIterator it = NearestLineNeighbors(line);
  while (out.size() < k) {
    Result<std::optional<LineMatch>> next = it.Next();
    if (!next.ok()) return next.status();
    if (!next->has_value()) break;
    out.push_back(**next);
  }
  return out;
}

}  // namespace tsss::index

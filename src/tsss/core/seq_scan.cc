#include "tsss/core/seq_scan.h"

#include <algorithm>
#include <queue>

#include "tsss/seq/window.h"

namespace tsss::core {

SequentialScanner::SequentialScanner(seq::Dataset* dataset, std::size_t window,
                                     std::size_t stride)
    : dataset_(dataset), window_(window), stride_(stride) {}

Result<std::vector<Match>> SequentialScanner::RangeQuery(
    std::span<const double> query, double eps, const TransformCost& cost) const {
  if (query.size() != window_) {
    return Status::InvalidArgument("query length must equal the window");
  }
  if (eps < 0.0) return Status::InvalidArgument("eps must be non-negative");
  const QueryContext ctx(query);

  dataset_->store().RecordFullScan();
  std::vector<Match> out;
  Status s = seq::ForEachWindow(
      dataset_->store(), window_, stride_,
      [&](storage::SeriesId series, std::uint32_t offset,
          std::span<const double> values) {
        std::optional<Match> match = VerifyCandidateExact(
            ctx, values, seq::MakeRecordId(series, offset), eps, cost);
        if (match.has_value()) out.push_back(*match);
      });
  if (!s.ok()) return s;
  return out;
}

Result<std::vector<Match>> SequentialScanner::Knn(std::span<const double> query,
                                                  std::size_t k,
                                                  const TransformCost& cost) const {
  if (query.size() != window_) {
    return Status::InvalidArgument("query length must equal the window");
  }
  if (k == 0) return std::vector<Match>{};
  const QueryContext ctx(query);

  dataset_->store().RecordFullScan();
  // Same canonical (distance, record) order as SearchEngine::Knn, so equal
  // distances straddling the k-th slot keep the lower record ids.
  std::priority_queue<Match, std::vector<Match>, decltype(&CanonicalBefore)>
      best(&CanonicalBefore);
  Status s = seq::ForEachWindow(
      dataset_->store(), window_, stride_,
      [&](storage::SeriesId series, std::uint32_t offset,
          std::span<const double> values) {
        const geom::Alignment alignment = ctx.Align(values);
        if (!cost.Allows(alignment.transform)) return;
        const Match match =
            MakeMatch(seq::MakeRecordId(series, offset), alignment);
        if (best.size() == k && !CanonicalBefore(match, best.top())) return;
        best.push(match);
        if (best.size() > k) best.pop();
      });
  if (!s.ok()) return s;

  std::vector<Match> out;
  out.reserve(best.size());
  while (!best.empty()) {
    out.push_back(best.top());
    best.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace tsss::core

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <unordered_set>

#include "tsss/common/exec_control.h"
#include "tsss/core/engine.h"
#include "tsss/obs/trace.h"
#include "tsss/seq/window.h"

namespace tsss::core {

// Long-query processing (paper, Section 7, following Faloutsos et al. [2]):
//
// Cut the query Q (|Q| = L > n) into p = floor(L/n) disjoint length-n
// pieces. If some window S' of length L satisfies ||a*Q + b*N - S'|| <= eps
// for the *globally* optimal (a, b), then summing the squared residuals over
// the p pieces shows at least one piece has Euclidean residual <= eps/sqrt(p)
// under that same (a, b); since the per-piece *optimal* scale-shift distance
// can only be smaller, searching every piece with bound eps/sqrt(p) misses
// no qualifying window. Each piece hit at (series, piece_offset) proposes
// the full-window candidate offset piece_offset - i*n, which is verified
// exactly against the whole query.
Result<std::vector<Match>> SearchEngine::LongRangeQuery(
    std::span<const double> query, double eps, const TransformCost& cost,
    QueryStats* stats) const {
  const std::size_t n = config_.window;
  if (query.size() <= n) {
    return Status::InvalidArgument(
        "LongRangeQuery requires |query| > window; use RangeQuery");
  }
  if (config_.stride != 1) {
    return Status::FailedPrecondition(
        "LongRangeQuery requires stride == 1 so that every alignment of every "
        "piece is indexed");
  }
  if (eps < 0.0) return Status::InvalidArgument("eps must be non-negative");

  const std::size_t total = query.size();
  const std::size_t pieces = total / n;
  const double piece_eps = eps / std::sqrt(static_cast<double>(pieces));

  if (Status begin = BeginQuery(); !begin.ok()) return begin;
  QueryScope scope(*this, QueryScope::Kind::kLongRange, stats);
  scope.span().Annotate("pieces", pieces);

  geom::PenetrationStats pen;
  std::unordered_set<index::RecordId> candidate_records;
  for (std::size_t i = 0; i < pieces; ++i) {
    obs::TraceSpan piece_span("piece_search");
    piece_span.Annotate("piece", i);
    const std::span<const double> piece = query.subspan(i * n, n);
    const geom::Line line = ReducedQueryLine(piece);
    Result<std::vector<index::LineMatch>> hits =
        tree_->LineQuery(line, piece_eps, config_.prune, &pen);
    if (!hits.ok()) return hits.status();
    std::vector<index::RecordId> expanded;
    for (const index::LineMatch& hit : *hits) {
      expanded.clear();
      Status es = ExpandCandidate(hit.record, &expanded);
      if (!es.ok()) return es;
      for (const index::RecordId record : expanded) {
        const storage::SeriesId series = seq::SeriesOf(record);
        const std::uint64_t piece_offset = seq::OffsetOf(record);
        // The full window would start i*n values earlier.
        if (piece_offset < i * n) continue;
        const std::uint64_t start = piece_offset - i * n;
        Result<std::size_t> len = dataset_.store().SeriesLength(series);
        if (!len.ok()) return len.status();
        if (start + total > *len) continue;
        candidate_records.insert(
            seq::MakeRecordId(series, static_cast<std::uint32_t>(start)));
      }
    }
  }

  const QueryContext ctx(query);
  obs::TraceSpan verify_span("verify");
  std::vector<index::RecordId> ordered(candidate_records.begin(),
                                       candidate_records.end());
  std::sort(ordered.begin(), ordered.end());
  std::vector<Match> matches;
  std::size_t last_counted_page = storage::SequenceStore::kNoPageCounted;
  for (index::RecordId record : ordered) {
    // Piece queries poll inside LineQuery; this verify loop reads data
    // pages directly and must poll on its own (tsss_lint: deadline-poll).
    Status s = PollExecControl();
    if (!s.ok()) return s;
    Result<std::span<const double>> window = dataset_.store().ViewWindow(
        seq::SeriesOf(record), seq::OffsetOf(record), total, &last_counted_page);
    if (!window.ok()) return window.status();
    std::optional<Match> match = VerifyCandidate(ctx, *window, record, eps, cost);
    if (match.has_value()) matches.push_back(*match);
  }
  verify_span.Annotate("candidates", ordered.size());
  verify_span.Annotate("matches", matches.size());
  verify_span.Close();

  scope.Finish(eps, 0, ordered.size(), matches.size(), pen);
  return matches;
}

}  // namespace tsss::core

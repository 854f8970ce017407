#include "layers.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>

#include "tsss/seq/window.h"
#include "tsss/storage/query_counters.h"

namespace perfbench {

namespace core = tsss::core;
namespace index = tsss::index;
namespace seq = tsss::seq;
namespace storage = tsss::storage;
using tsss::Result;
using tsss::Status;

namespace {

/// Keeps probe results observable so the timed calls are not elided.
volatile std::uint64_t g_sink = 0;

/// The window records one leaf entry stands for: itself in point mode, the
/// windows of its trail in sub-trail mode (SearchEngine::ExpandCandidate).
Status Expand(const core::SearchEngine& engine, index::RecordId record,
              std::vector<index::RecordId>* out) {
  const core::EngineConfig& config = engine.config();
  if (config.subtrail_len == 0) {
    out->push_back(record);
    return Status::OK();
  }
  const storage::SeriesId series = seq::SeriesOf(record);
  Result<std::size_t> len = engine.dataset().store().SeriesLength(series);
  if (!len.ok()) return len.status();
  const std::size_t first = seq::OffsetOf(record) / config.stride;
  const std::size_t last = (*len - config.window) / config.stride;
  const std::size_t end = std::min(first + config.subtrail_len - 1, last);
  for (std::size_t w = first; w <= end; ++w) {
    out->push_back(
        seq::MakeRecordId(series, static_cast<std::uint32_t>(w * config.stride)));
  }
  return Status::OK();
}

/// Median over `rounds` of the ns per call that `round` reports.
template <typename Fn>
Result<double> MedianRound(int rounds, Fn&& round) {
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    Result<double> ns = round();
    if (!ns.ok()) return ns.status();
    per_call.push_back(*ns);
  }
  return Median(std::move(per_call));
}

}  // namespace

Result<std::vector<core::Match>> LayeredRange(
    const core::SearchEngine& engine, std::span<const double> query, double eps,
    SpanLog* log, std::uint64_t op, std::int64_t parent, LayerSample* sample,
    std::vector<index::RecordId>* records) {
  storage::QueryCounters counters;
  storage::ScopedQueryCounters scoped(&counters);

  const std::int64_t t0 = NowNs();
  const core::QueryContext ctx(query);
  const tsss::geom::Line line = engine.ReducedQueryLine(query);
  const std::int64_t t1 = NowNs();
  log->Add(op, "reduce.query_prep", parent, t0, t1, 1);

  tsss::geom::PenetrationStats pen;
  Result<std::vector<index::LineMatch>> hits =
      engine.tree().LineQuery(line, eps, engine.config().prune, &pen);
  if (!hits.ok()) return hits.status();
  const std::int64_t t2 = NowNs();
  sample->nodes = counters.pool_logical_reads;
  log->Add(op, "index.filter", parent, t1, t2, sample->nodes);

  std::vector<index::RecordId> expanded;
  expanded.reserve(hits->size());
  for (const index::LineMatch& hit : *hits) {
    Status s = Expand(engine, hit.record, &expanded);
    if (!s.ok()) return s;
  }
  std::sort(expanded.begin(), expanded.end());
  std::vector<core::Match> matches;
  tsss::geom::Vec window(engine.config().window);
  std::size_t last_page = storage::SequenceStore::kNoPageCounted;
  const storage::SequenceStore& store = engine.dataset().store();
  for (const index::RecordId record : expanded) {
    Status s = store.ReadWindowDeduped(seq::SeriesOf(record),
                                       seq::OffsetOf(record), window, &last_page);
    if (!s.ok()) return s;
    std::optional<core::Match> match =
        core::VerifyCandidate(ctx, window, record, eps, core::TransformCost{});
    if (match.has_value()) matches.push_back(*match);
  }
  const std::int64_t t3 = NowNs();
  log->Add(op, "core.verify", parent, t2, t3, expanded.size());

  sample->prep_ns = t1 - t0;
  sample->index_ns = t2 - t1;
  sample->verify_ns = t3 - t2;
  sample->leaf_hits = hits->size();
  sample->candidates = expanded.size();
  sample->matches = matches.size();
  sample->data_pages = counters.data_page_reads;
  sample->entries_tested = pen.tests;
  sample->entries_visited = pen.visits;
  if (records != nullptr) *records = std::move(expanded);
  return matches;
}

Result<std::vector<core::Match>> LayeredKnn(const core::SearchEngine& engine,
                                            std::span<const double> query,
                                            std::size_t k, SpanLog* log,
                                            std::uint64_t op, std::int64_t parent,
                                            LayerSample* sample) {
  storage::QueryCounters counters;
  storage::ScopedQueryCounters scoped(&counters);

  const std::int64_t t0 = NowNs();
  const core::QueryContext ctx(query);
  const tsss::geom::Line line = engine.ReducedQueryLine(query);
  const std::int64_t t1 = NowNs();
  log->Add(op, "reduce.query_prep", parent, t0, t1, 1);

  // The engine's GEMINI loop, with the index walk (Next) timed call by call:
  // it interleaves with verification, so its span carries busy time.
  std::priority_queue<core::Match, std::vector<core::Match>,
                      decltype(&CanonicalLess)>
      best(&CanonicalLess);
  index::RTree::LineNeighborIterator it =
      engine.tree().NearestLineNeighbors(line);
  const storage::SequenceStore& store = engine.dataset().store();
  tsss::geom::Vec window(engine.config().window);
  std::vector<index::RecordId> expanded;
  std::int64_t walk_ns = 0;
  std::uint64_t candidates = 0;
  std::uint64_t leaf_hits = 0;
  while (true) {
    const std::int64_t before = NowNs();
    Result<std::optional<index::LineMatch>> next = it.Next();
    walk_ns += NowNs() - before;
    if (!next.ok()) return next.status();
    if (!next->has_value()) break;
    const index::LineMatch& hit = **next;
    const double limit = best.size() == k
                             ? best.top().distance
                             : std::numeric_limits<double>::infinity();
    if (hit.reduced_distance > limit) break;
    ++leaf_hits;
    expanded.clear();
    Status s = Expand(engine, hit.record, &expanded);
    if (!s.ok()) return s;
    for (const index::RecordId record : expanded) {
      ++candidates;
      s = store.ReadWindow(seq::SeriesOf(record), seq::OffsetOf(record), window);
      if (!s.ok()) return s;
      const tsss::geom::Alignment alignment = ctx.Align(window);
      if (!core::TransformCost{}.Allows(alignment.transform)) continue;
      core::Match match;
      match.record = record;
      match.series = seq::SeriesOf(record);
      match.offset = seq::OffsetOf(record);
      match.distance = alignment.distance;
      match.transform = alignment.transform;
      if (best.size() == k && !CanonicalLess(match, best.top())) continue;
      best.push(match);
      if (best.size() > k) best.pop();
    }
  }
  const std::int64_t t2 = NowNs();
  std::vector<core::Match> out;
  out.reserve(best.size());
  while (!best.empty()) {
    out.push_back(best.top());
    best.pop();
  }
  std::reverse(out.begin(), out.end());
  sample->nodes = counters.pool_logical_reads;
  log->Add(op, "index.knn_walk", parent, t1, t2, sample->nodes, walk_ns);
  log->Add(op, "core.verify", parent, t1, t2, candidates, t2 - t1 - walk_ns);

  sample->prep_ns = t1 - t0;
  sample->index_ns = walk_ns;
  sample->verify_ns = t2 - t1 - walk_ns;
  sample->leaf_hits = leaf_hits;
  sample->candidates = candidates;
  sample->matches = out.size();
  sample->data_pages = counters.data_page_reads;
  return out;
}

bool SameCounts(const LayerSample& sample, const core::QueryStats& stats,
                bool range) {
  const bool common = sample.candidates == stats.candidates &&
                      sample.matches == stats.matches &&
                      sample.nodes == stats.index_page_reads &&
                      sample.data_pages == stats.data_page_reads;
  if (!range) return common;
  return common && sample.entries_tested == stats.penetration.tests &&
         sample.entries_visited == stats.penetration.visits;
}

Result<ProbeResult> RunProbes(core::SearchEngine& engine,
                              const std::vector<CandidateSet>& sets) {
  constexpr int kRounds = 15;
  ProbeResult result;
  storage::BufferPool& pool = engine.pool();

  // Node pages, evenly sampled so they fit in half the pool: the hit probe
  // must not evict what it is about to re-fetch.
  std::vector<storage::PageId> all_pages;
  Status visit = engine.tree().VisitNodes(
      [&](const index::Node&, storage::PageId id) { all_pages.push_back(id); });
  if (!visit.ok()) return visit;
  const std::size_t want =
      std::min({all_pages.size(), std::max<std::size_t>(1, pool.capacity() / 2),
                std::size_t{1024}});
  std::vector<storage::PageId> pages;
  for (std::size_t i = 0; i < want; ++i) {
    pages.push_back(all_pages[i * all_pages.size() / want]);
  }
  auto fetch_all = [&]() -> Result<double> {
    const std::int64_t start = NowNs();
    for (const storage::PageId id : pages) {
      Result<storage::PageGuard> guard = pool.Fetch(id);
      if (!guard.ok()) return guard.status();
      g_sink = g_sink + guard->page().bytes[0];
    }
    return static_cast<double>(NowNs() - start) / static_cast<double>(pages.size());
  };

  Result<double> warm = fetch_all();
  if (!warm.ok()) return warm.status();
  Result<double> hit = MedianRound(kRounds, fetch_all);
  if (!hit.ok()) return hit.status();
  result.fetch_hit_ns = *hit;

  std::vector<storage::Page> copies;
  copies.reserve(pages.size());
  for (const storage::PageId id : pages) {
    Result<storage::PageGuard> guard = pool.Fetch(id);
    if (!guard.ok()) return guard.status();
    copies.push_back(guard->page());
  }
  const index::NodeCodec codec(engine.tree().config().dim,
                               engine.tree().config().box_leaves);
  Result<double> decode = MedianRound(kRounds, [&]() -> Result<double> {
    const std::int64_t start = NowNs();
    for (const storage::Page& page : copies) {
      Result<index::Node> node = codec.Decode(page);
      if (!node.ok()) return node.status();
      g_sink = g_sink + node->size();
    }
    return static_cast<double>(NowNs() - start) /
           static_cast<double>(copies.size());
  });
  if (!decode.ok()) return decode.status();
  result.node_decode_ns = *decode;

  Result<double> miss = MedianRound(kRounds, [&]() -> Result<double> {
    Status s = pool.Clear();
    if (!s.ok()) return s;
    return fetch_all();
  });
  if (!miss.ok()) return miss.status();
  result.fetch_miss_ns = *miss;

  // Window reads and verification over the traced queries' own candidates.
  const storage::SequenceStore& store = engine.dataset().store();
  const std::size_t n = engine.config().window;
  std::size_t total = 0;
  for (const CandidateSet& set : sets) total += set.records.size();
  if (total == 0) return result;
  tsss::geom::Vec window(n);
  Result<double> read = MedianRound(kRounds, [&]() -> Result<double> {
    const std::int64_t start = NowNs();
    for (const CandidateSet& set : sets) {
      for (const index::RecordId record : set.records) {
        Status s = store.ReadWindow(seq::SeriesOf(record), seq::OffsetOf(record),
                                    window);
        if (!s.ok()) return s;
        g_sink = g_sink + static_cast<std::uint64_t>(window[0] > 0.0);
      }
    }
    return static_cast<double>(NowNs() - start) / static_cast<double>(total);
  });
  if (!read.ok()) return read.status();
  result.read_window_ns = *read;

  std::vector<std::vector<double>> windows(sets.size());
  std::vector<core::QueryContext> contexts;
  contexts.reserve(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    contexts.emplace_back(sets[i].query);
    windows[i].resize(sets[i].records.size() * n);
    for (std::size_t j = 0; j < sets[i].records.size(); ++j) {
      const index::RecordId record = sets[i].records[j];
      Status s = store.ReadWindow(seq::SeriesOf(record), seq::OffsetOf(record),
                                  std::span<double>(windows[i]).subspan(j * n, n));
      if (!s.ok()) return s;
    }
  }
  Result<double> align = MedianRound(kRounds, [&]() -> Result<double> {
    const std::int64_t start = NowNs();
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const std::span<const double> all(windows[i]);
      for (std::size_t j = 0; j < sets[i].records.size(); ++j) {
        std::optional<core::Match> match =
            core::VerifyCandidate(contexts[i], all.subspan(j * n, n),
                                  sets[i].records[j], sets[i].eps,
                                  core::TransformCost{});
        g_sink = g_sink + static_cast<std::uint64_t>(match.has_value());
      }
    }
    return static_cast<double>(NowNs() - start) / static_cast<double>(total);
  });
  if (!align.ok()) return align.status();
  result.align_ns = *align;
  return result;
}

}  // namespace perfbench

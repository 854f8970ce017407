#include "tsss/core/engine.h"

#include <filesystem>

#include <algorithm>
#include <array>
#include <chrono>
#include <ctime>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "tsss/common/check.h"
#include "tsss/common/exec_control.h"
#include "tsss/geom/se_transform.h"
#include "tsss/obs/metrics.h"
#include "tsss/obs/trace.h"
#include "tsss/seq/window.h"
#include "tsss/storage/file_page_store.h"
#include "tsss/storage/query_counters.h"

namespace tsss::core {

namespace {

/// What each SearchEngine::QueryScope::Kind is called, in enum order.
struct KindNames {
  const char* span;     ///< root trace span
  const char* explain;  ///< ExplainReport::kind
  const char* counter;  ///< registry query counter
  const char* help;
};
constexpr std::array<KindNames, 3> kKindNames = {{
    {"range_query", "range", "tsss_range_queries_total",
     "Range queries executed"},
    {"knn_query", "knn", "tsss_knn_queries_total", "k-NN queries executed"},
    {"long_range_query", "long_range", "tsss_long_queries_total",
     "Long (multi-piece) range queries executed"},
}};

/// Process-wide query counters in the metrics registry. Resolved once.
struct QueryRegistryCounters {
  std::array<obs::Counter*, kKindNames.size()> queries;  ///< by kind
  obs::Counter* candidates;
  obs::Counter* matches;
};

const QueryRegistryCounters& QueryCountersRegistry() {
  static const QueryRegistryCounters counters = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    QueryRegistryCounters out{};
    for (std::size_t i = 0; i < kKindNames.size(); ++i) {
      out.queries[i] =
          reg.GetCounter(kKindNames[i].counter, kKindNames[i].help);
    }
    out.candidates = reg.GetCounter("tsss_query_candidates_total",
                                    "Windows that reached exact verification");
    out.matches =
        reg.GetCounter("tsss_query_matches_total", "Verified query answers");
    return out;
  }();
  return counters;
}

/// The metrics one RecordQueryCost label pair rolls into.
struct CostMetrics {
  std::string key;
  std::string value;
  obs::LatencyHistogram* cpu = nullptr;
  obs::Counter* pages_hit = nullptr;
  obs::Counter* pages_miss = nullptr;
  obs::Counter* data_pages = nullptr;
  obs::Counter* bytes = nullptr;
  obs::Counter* candidates = nullptr;
};

CostMetrics ResolveCostMetrics(const std::string& key,
                               const std::string& value) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  CostMetrics m;
  m.key = key;
  m.value = value;
  m.cpu = reg.GetHistogram(obs::WithLabel("tsss_query_cost_cpu", key, value),
                           "Per-query thread-CPU time");
  m.pages_hit = reg.GetCounter(
      obs::WithLabel("tsss_query_cost_pages_hit_total", key, value),
      "Index-page reads served by the buffer pool, attributed per query");
  m.pages_miss = reg.GetCounter(
      obs::WithLabel("tsss_query_cost_pages_miss_total", key, value),
      "Index-page reads that missed the buffer pool, attributed per query");
  m.data_pages = reg.GetCounter(
      obs::WithLabel("tsss_query_cost_data_pages_total", key, value),
      "Raw-data pages read for verification, attributed per query");
  m.bytes = reg.GetCounter(
      obs::WithLabel("tsss_query_cost_bytes_total", key, value),
      "Bytes moved through the page interfaces, attributed per query");
  m.candidates = reg.GetCounter(
      obs::WithLabel("tsss_query_cost_candidates_total", key, value),
      "Windows exactly verified, attributed per query");
  return m;
}

/// Label pairs a thread keeps resolved; past this, pairs are resolved
/// through the registry on every call.
constexpr std::size_t kMaxCachedCostLabels = 16;

/// Derives the paper's pruning disposition from a walk's PenetrationStats:
/// every tested entry that was not visited was pruned; bounding-sphere outer
/// rejects are the BS share, and the remainder is attributed to the
/// entering/exiting-point slab test (or to the exact distance test when that
/// strategy ran). Strategies never mix within one walk.
void FillPruneTelemetry(const geom::PenetrationStats& pen,
                        obs::QueryTelemetry* telemetry) {
  telemetry->entries_tested = pen.tests;
  const std::uint64_t prunes = pen.tests >= pen.visits ? pen.tests - pen.visits : 0;
  telemetry->bs_prunes = pen.outer_rejects;
  const std::uint64_t rest =
      prunes >= pen.outer_rejects ? prunes - pen.outer_rejects : 0;
  // kExactDistance is the only strategy that runs exact tests; everything the
  // spheres did not reject there was decided exactly. Under kEepOnly and
  // kBoundingSpheres the non-sphere remainder is the slab (EP) test's share.
  if (pen.exact_tests > 0) {
    telemetry->exact_prunes = rest;
  } else {
    telemetry->ep_prunes = rest;
  }
}

}  // namespace

std::uint64_t ThreadCpuNowUs() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
}

void RecordQueryCost(const std::string& label_key,
                     const std::string& label_value, const QueryStats& stats) {
  // Registry metrics are never destroyed, so resolved pointers stay valid
  // for the process; each thread keeps the few label pairs it uses (query
  // kinds, shard ids) and skips the registry's mutex and map lookups.
  thread_local std::vector<CostMetrics> cache;
  const CostMetrics* m = nullptr;
  for (const CostMetrics& cached : cache) {
    if (cached.key == label_key && cached.value == label_value) m = &cached;
  }
  CostMetrics uncached;
  if (m == nullptr) {
    uncached = ResolveCostMetrics(label_key, label_value);
    m = &uncached;
    if (cache.size() < kMaxCachedCostLabels) {
      cache.push_back(std::move(uncached));
      m = &cache.back();
    }
  }
  m->cpu->RecordUs(stats.cpu_us);
  m->pages_hit->Inc(stats.index_page_hits());
  m->pages_miss->Inc(stats.index_page_misses);
  m->data_pages->Inc(stats.data_page_reads);
  m->bytes->Inc(stats.total_page_reads() * storage::kPageSize);
  m->candidates->Inc(stats.candidates);
}

SearchEngine::QueryScope::QueryScope(const SearchEngine& engine, Kind kind,
                                     QueryStats* stats)
    : engine_(engine),
      kind_(kind),
      stats_(stats),
      span_(kKindNames[static_cast<std::size_t>(kind)].span) {
  // Telemetry is collected only when someone will read it (the caller asked
  // for stats or a trace is installed); otherwise the index layer's tick
  // helpers reduce to a thread-local read plus an untaken branch.
  if (stats != nullptr || obs::CurrentQueryTrace() != nullptr) {
    scoped_telemetry_.emplace(&telemetry_);
    start_ = std::chrono::steady_clock::now();
    cpu_start_us_ = ThreadCpuNowUs();
  }
}

void SearchEngine::QueryScope::Finish(double eps, std::uint64_t k,
                                      std::uint64_t candidates,
                                      std::uint64_t matches,
                                      const geom::PenetrationStats& pen) {
  const QueryRegistryCounters& reg = QueryCountersRegistry();
  const auto kind = static_cast<std::size_t>(kind_);
  reg.queries[kind]->Inc();
  reg.candidates->Inc(candidates);
  reg.matches->Inc(matches);
  if (!scoped_telemetry_.has_value()) return;

  LastQuery last;
  last.kind = kKindNames[kind].explain;
  last.eps = eps;
  last.k = k;
  last.prune = engine_.config_.prune;
  last.elapsed_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  QueryStats& out = last.stats;
  out.index_page_reads = counters_.pool_logical_reads;
  out.index_page_misses = counters_.pool_misses;
  out.data_page_reads = counters_.data_page_reads;
  out.candidates = candidates;
  out.matches = matches;
  const std::uint64_t cpu_now = ThreadCpuNowUs();
  out.cpu_us = cpu_now >= cpu_start_us_ ? cpu_now - cpu_start_us_ : 0;
  out.penetration = pen;
  out.telemetry = telemetry_;
  FillPruneTelemetry(pen, &out.telemetry);
  out.telemetry.candidates_postfiltered = candidates - matches;
  obs::AnnotateSpan(&span_, out.telemetry);
  engine_.RecordLastQuery(last);
  if (stats_ != nullptr) *stats_ = out;
}

SearchEngine::SearchEngine(const EngineConfig& config) : config_(config) {}

Result<std::unique_ptr<SearchEngine>> SearchEngine::Assemble(
    const EngineConfig& config, StoreFactory make_store,
    const TreeFactory& make_tree) {
  Result<std::unique_ptr<reduce::Reducer>> reducer =
      reduce::MakeReducer(config.reducer, config.window, config.reduced_dim);
  if (!reducer.ok()) return reducer.status();
  Result<std::unique_ptr<storage::PageStore>> store =
      make_store(config.storage_dir);
  if (!store.ok()) return store.status();

  auto engine = std::unique_ptr<SearchEngine>(new SearchEngine(config));
  engine->reducer_ = std::move(reducer).value();
  engine->page_store_ = std::move(store).value();
  engine->pool_ = std::make_unique<storage::BufferPool>(
      engine->page_store_.get(), config.buffer_pool_pages);

  index::RTreeConfig tree_config = config.tree;
  tree_config.dim = engine->reducer_->output_dim();
  tree_config.box_leaves = config.subtrail_len > 0;
  Result<std::unique_ptr<index::RTree>> tree =
      make_tree(engine->pool_.get(), tree_config);
  if (!tree.ok()) return tree.status();
  engine->tree_ = std::move(tree).value();
  return engine;
}

Result<std::unique_ptr<SearchEngine>> SearchEngine::Create(
    const EngineConfig& config) {
  if (config.window < 2) {
    return Status::InvalidArgument("window length must be >= 2");
  }
  if (config.stride == 0) {
    return Status::InvalidArgument("stride must be positive");
  }
  return Assemble(
      config,
      [](const std::string& dir) -> Result<std::unique_ptr<storage::PageStore>> {
        if (dir.empty()) return {std::make_unique<storage::MemPageStore>()};
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec) {
          return Status::IoError("cannot create storage dir '" + dir +
                                 "': " + ec.message());
        }
        return storage::FilePageStore::Create(dir + "/pages.tsss");
      },
      index::RTree::Create);
}

geom::Vec SearchEngine::ReducedPoint(std::span<const double> window) const {
  TSSS_DCHECK(window.size() == config_.window);
  geom::Vec se = geom::SeTransform(window);
  return reducer_->Apply(se);
}

geom::Line SearchEngine::ReducedQueryLine(std::span<const double> query) const {
  TSSS_DCHECK(query.size() == config_.window);
  geom::Vec se = geom::SeTransform(query);
  geom::Vec dir = reducer_->Apply(se);
  return geom::Line{geom::Vec(dir.size(), 0.0), std::move(dir)};
}

Status SearchEngine::IndexWindows(storage::SeriesId id, std::size_t first_offset) {
  if (config_.subtrail_len > 0) return IndexWindowsTrail(id, first_offset);
  Result<std::span<const double>> values = dataset_.Values(id);
  if (!values.ok()) return values.status();
  const std::size_t n = config_.window;
  if (values->size() < n) return Status::OK();
  // Align the starting offset to the stride grid.
  std::size_t off = first_offset;
  if (off % config_.stride != 0) {
    off += config_.stride - off % config_.stride;
  }
  for (; off + n <= values->size(); off += config_.stride) {
    const geom::Vec point = ReducedPoint(values->subspan(off, n));
    Status s = tree_->Insert(
        point, seq::MakeRecordId(id, static_cast<std::uint32_t>(off)));
    if (!s.ok()) return s;
    ++indexed_windows_;
  }
  return Status::OK();
}

geom::Mbr SearchEngine::TrailBox(std::span<const double> values,
                                 std::size_t first_widx,
                                 std::size_t last_widx) const {
  geom::Mbr box(reducer_->output_dim());
  for (std::size_t w = first_widx; w <= last_widx; ++w) {
    const std::size_t off = w * config_.stride;
    box.Extend(ReducedPoint(values.subspan(off, config_.window)));
  }
  return box;
}

Status SearchEngine::IndexWindowsTrail(storage::SeriesId id,
                                       std::size_t first_offset) {
  Result<std::span<const double>> values = dataset_.Values(id);
  if (!values.ok()) return values.status();
  const std::size_t n = config_.window;
  const std::size_t stride = config_.stride;
  const std::size_t trail = config_.subtrail_len;
  if (values->size() < n) return Status::OK();
  // Window indices (stride units) to (re)index.
  const std::size_t first_widx = (first_offset + stride - 1) / stride;
  const std::size_t last_widx = (values->size() - n) / stride;
  if (first_widx > last_widx) return Status::OK();

  // Trails are aligned to multiples of `trail` in window-index space so the
  // grouping is reconstructible at query time. If the first new window
  // lands inside an already-indexed (partial) trail, replace that trail.
  std::size_t trail_start = (first_widx / trail) * trail;
  if (trail_start < first_widx) {
    // The old box covered windows [trail_start, first_widx); those windows
    // only touch pre-append values, so recomputing reproduces it exactly.
    const geom::Mbr old_box = TrailBox(*values, trail_start, first_widx - 1);
    Status s = tree_->DeleteBox(
        old_box, seq::MakeRecordId(
                     id, static_cast<std::uint32_t>(trail_start * stride)));
    if (!s.ok()) return s;
  }
  for (std::size_t t = trail_start; t <= last_widx; t += trail) {
    const std::size_t end = std::min(t + trail - 1, last_widx);
    Status s = tree_->InsertBox(
        TrailBox(*values, t, end),
        seq::MakeRecordId(id, static_cast<std::uint32_t>(t * stride)));
    if (!s.ok()) return s;
  }
  indexed_windows_ += last_widx - first_widx + 1;
  return Status::OK();
}

Status SearchEngine::ExpandCandidate(index::RecordId record,
                                     std::vector<index::RecordId>* out) const {
  if (config_.subtrail_len == 0) {
    out->push_back(record);
    return Status::OK();
  }
  const storage::SeriesId series = seq::SeriesOf(record);
  const std::size_t start_offset = seq::OffsetOf(record);
  Result<std::size_t> len = dataset_.store().SeriesLength(series);
  if (!len.ok()) return len.status();
  const std::size_t first_widx = start_offset / config_.stride;
  const std::size_t last_widx = (*len - config_.window) / config_.stride;
  const std::size_t end_widx =
      std::min(first_widx + config_.subtrail_len - 1, last_widx);
  for (std::size_t w = first_widx; w <= end_widx; ++w) {
    out->push_back(seq::MakeRecordId(
        series, static_cast<std::uint32_t>(w * config_.stride)));
  }
  return Status::OK();
}

Result<storage::SeriesId> SearchEngine::AddSeries(std::string name,
                                                  std::span<const double> values) {
  const storage::SeriesId id = dataset_.Add(std::move(name), values);
  Status s = IndexWindows(id, 0);
  if (!s.ok()) return s;
  return id;
}

Status SearchEngine::Append(storage::SeriesId id, std::span<const double> values) {
  Result<std::size_t> old_len = dataset_.store().SeriesLength(id);
  if (!old_len.ok()) return old_len.status();
  Status s = dataset_.Append(id, values);
  if (!s.ok()) return s;
  const std::size_t n = config_.window;
  // First window that includes at least one appended value.
  const std::size_t first =
      *old_len >= n ? *old_len - n + 1 : 0;
  return IndexWindows(id, first);
}

Status SearchEngine::BulkBuild(const std::vector<seq::TimeSeries>& corpus) {
  if (tree_->size() != 0 || dataset_.size() != 0) {
    return Status::FailedPrecondition("BulkBuild requires an empty engine");
  }
  std::vector<index::Entry> entries;
  for (const seq::TimeSeries& series : corpus) {
    const storage::SeriesId id = dataset_.Add(series.name, series.values);
    Result<std::span<const double>> values = dataset_.Values(id);
    if (!values.ok()) return values.status();
    const std::size_t n = config_.window;
    if (values->size() < n) continue;
    if (config_.subtrail_len > 0) {
      const std::size_t last_widx = (values->size() - n) / config_.stride;
      indexed_windows_ += last_widx + 1;
      for (std::size_t t = 0; t <= last_widx; t += config_.subtrail_len) {
        const std::size_t end = std::min(t + config_.subtrail_len - 1, last_widx);
        index::Entry e;
        e.mbr = TrailBox(*values, t, end);
        e.record = seq::MakeRecordId(
            id, static_cast<std::uint32_t>(t * config_.stride));
        entries.push_back(std::move(e));
      }
      continue;
    }
    for (std::size_t off = 0; off + n <= values->size(); off += config_.stride) {
      const geom::Vec point = ReducedPoint(values->subspan(off, n));
      entries.push_back(index::Entry::ForRecord(
          seq::MakeRecordId(id, static_cast<std::uint32_t>(off)), point));
      ++indexed_windows_;
    }
  }
  return tree_->BulkLoad(std::move(entries));
}

Status SearchEngine::RemoveWindow(index::RecordId record) {
  if (config_.subtrail_len > 0) {
    return Status::FailedPrecondition(
        "RemoveWindow is not supported in sub-trail mode (a leaf entry "
        "covers many windows)");
  }
  const storage::SeriesId series = seq::SeriesOf(record);
  const std::uint32_t offset = seq::OffsetOf(record);
  Result<std::span<const double>> values = dataset_.Values(series);
  if (!values.ok()) return values.status();
  if (offset + config_.window > values->size()) {
    return Status::OutOfRange("record window out of series range");
  }
  const geom::Vec point = ReducedPoint(values->subspan(offset, config_.window));
  Status s = tree_->Delete(point, record);
  if (s.ok()) --indexed_windows_;
  return s;
}

Result<geom::Vec> SearchEngine::ReadWindow(index::RecordId record) const {
  geom::Vec out(config_.window);
  Status s = dataset_.store().ReadWindow(seq::SeriesOf(record),
                                         seq::OffsetOf(record), out);
  if (!s.ok()) return s;
  return out;
}

Status SearchEngine::BeginQuery() const {
  if (config_.cold_cache_per_query) return pool_->Clear();
  return Status::OK();
}

void SearchEngine::RecordLastQuery(const LastQuery& last) const {
  MutexLock lock(last_query_mu_);
  last_query_ = last;
}

Result<std::vector<Match>> SearchEngine::RangeQuery(std::span<const double> query,
                                                    double eps,
                                                    const TransformCost& cost,
                                                    QueryStats* stats) const {
  if (query.size() != config_.window) {
    return Status::InvalidArgument(
        "query length " + std::to_string(query.size()) +
        " != window " + std::to_string(config_.window) +
        " (use LongRangeQuery for longer queries)");
  }
  if (eps < 0.0) return Status::InvalidArgument("eps must be non-negative");

  if (Status begin = BeginQuery(); !begin.ok()) return begin;
  QueryScope scope(*this, QueryScope::Kind::kRange, stats);

  const QueryContext ctx(query);
  const geom::Line line = ReducedQueryLine(query);

  geom::PenetrationStats pen;
  obs::TraceSpan filter_span("index_filter");
  Result<std::vector<index::LineMatch>> candidates =
      tree_->LineQuery(line, eps, config_.prune, &pen);
  if (!candidates.ok()) return candidates.status();
  filter_span.Annotate("leaf_hits", candidates->size());
  filter_span.Close();

  // Expand leaf candidates to window records (a no-op in point mode; a
  // trail hit stands for all of its windows), then verify in storage order
  // so that every needed data page is fetched (and counted) exactly once.
  obs::TraceSpan verify_span("expand_and_verify");
  std::vector<index::RecordId> expanded;
  expanded.reserve(candidates->size());
  for (const index::LineMatch& cand : *candidates) {
    Status s = ExpandCandidate(cand.record, &expanded);
    if (!s.ok()) return s;
  }
  std::sort(expanded.begin(), expanded.end());
  std::vector<Match> matches;
  matches.reserve(expanded.size());
  std::size_t last_counted_page = storage::SequenceStore::kNoPageCounted;
  for (const index::RecordId record : expanded) {
    // The index phase polls per node load; the verify phase reads data
    // pages without touching the tree, so it needs its own poll or a
    // deadline set mid-scan would never fire (tsss_lint: deadline-poll).
    Status s = PollExecControl();
    if (!s.ok()) return s;
    Result<std::span<const double>> window = dataset_.store().ViewWindow(
        seq::SeriesOf(record), seq::OffsetOf(record), config_.window,
        &last_counted_page);
    if (!window.ok()) return window.status();
    std::optional<Match> match = VerifyCandidate(ctx, *window, record, eps, cost);
    if (match.has_value()) matches.push_back(*match);
  }
  verify_span.Annotate("candidates", expanded.size());
  verify_span.Annotate("matches", matches.size());
  verify_span.Close();

  scope.Finish(eps, 0, expanded.size(), matches.size(), pen);
  return matches;
}

Result<std::vector<Match>> SearchEngine::Knn(std::span<const double> query,
                                             std::size_t k,
                                             const TransformCost& cost,
                                             QueryStats* stats,
                                             KnnSharedBound* shared_bound) const {
  if (query.size() != config_.window) {
    return Status::InvalidArgument("knn query length must equal the window");
  }
  if (k == 0) return std::vector<Match>{};

  if (Status begin = BeginQuery(); !begin.ok()) return begin;
  QueryScope scope(*this, QueryScope::Kind::kKnn, stats);

  const QueryContext ctx(query);
  const geom::Line line = ReducedQueryLine(query);

  // GEMINI multi-step k-NN: consume index neighbours in increasing *reduced*
  // distance (a lower bound of the exact distance); verify each; stop once
  // the lower bound of the next neighbour exceeds the k-th best exact
  // distance seen so far. Exact-distance ties are broken by record id so the
  // answer set is canonical — independent of iterator visit order and of how
  // the windows are partitioned across shards.
  std::priority_queue<Match, std::vector<Match>, decltype(&CanonicalBefore)>
      best(&CanonicalBefore);

  std::uint64_t candidates_seen = 0;
  obs::TraceSpan search_span("multi_step_search");
  index::RTree::LineNeighborIterator it = tree_->NearestLineNeighbors(line);
  std::vector<index::RecordId> expanded;
  while (true) {
    Result<std::optional<index::LineMatch>> next = it.Next();
    if (!next.ok()) return next.status();
    if (!next->has_value()) break;
    const index::LineMatch& cand = **next;
    // Local termination bound, optionally tightened by sibling partitions.
    // Strict > keeps ties alive: a candidate at exactly the bound may still
    // displace the k-th best via the record tie-break.
    double limit = best.size() == k ? best.top().distance
                                    : std::numeric_limits<double>::infinity();
    if (shared_bound != nullptr) limit = std::min(limit, shared_bound->Get());
    if (cand.reduced_distance > limit) break;
    expanded.clear();
    Status es = ExpandCandidate(cand.record, &expanded);
    if (!es.ok()) return es;
    for (const index::RecordId record : expanded) {
      ++candidates_seen;
      // The outer loop polls via it.Next() → ScanNode, but one trail hit
      // can expand into many window reads; poll per data page so wide
      // expansions stay responsive too (tsss_lint: deadline-poll).
      Status s = PollExecControl();
      if (!s.ok()) return s;
      Result<std::span<const double>> window = dataset_.store().ViewWindow(
          seq::SeriesOf(record), seq::OffsetOf(record), config_.window);
      if (!window.ok()) return window.status();
      // A window the pre-check puts beyond the k-th best cannot enter the
      // heap; one that may tie it still reaches Align for the record
      // tie-break.
      if (best.size() == k && !ctx.MayBeWithin(*window, best.top().distance)) {
        continue;
      }
      const geom::Alignment alignment = ctx.Align(*window);
      if (!cost.Allows(alignment.transform)) continue;
      const Match match = MakeMatch(record, alignment);
      if (best.size() == k && !CanonicalBefore(match, best.top())) continue;
      best.push(match);
      if (best.size() > k) best.pop();
      if (shared_bound != nullptr && best.size() == k) {
        shared_bound->Tighten(best.top().distance);
      }
    }
  }

  search_span.Annotate("candidates", candidates_seen);
  search_span.Close();

  std::vector<Match> out;
  out.reserve(best.size());
  while (!best.empty()) {
    out.push_back(best.top());
    best.pop();
  }
  std::reverse(out.begin(), out.end());

  scope.Finish(0.0, k, candidates_seen, out.size(), geom::PenetrationStats{});
  return out;
}

}  // namespace tsss::core

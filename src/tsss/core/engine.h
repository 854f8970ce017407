#ifndef TSSS_CORE_ENGINE_H_
#define TSSS_CORE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tsss/common/mutex.h"
#include "tsss/common/status.h"
#include "tsss/common/thread_annotations.h"
#include "tsss/core/similarity.h"
#include "tsss/geom/penetration.h"
#include "tsss/obs/explain.h"
#include "tsss/obs/query_telemetry.h"
#include "tsss/obs/trace.h"
#include "tsss/index/rtree.h"
#include "tsss/reduce/reducer.h"
#include "tsss/seq/dataset.h"
#include "tsss/seq/time_series.h"
#include "tsss/storage/buffer_pool.h"
#include "tsss/storage/page_store.h"
#include "tsss/storage/query_counters.h"

namespace tsss::core {

/// End-to-end configuration of the scale-shift search engine. Defaults
/// reproduce the paper's experimental setting: window subsequences reduced by
/// DFT to 3 complex coefficients (R*-tree dimension 6), M = 20, m = 8,
/// forced-reinsert p = 6, 4 KiB pages.
struct EngineConfig {
  std::size_t window = 128;  ///< extraction window length n
  std::size_t stride = 1;    ///< sliding-window step
  reduce::ReducerKind reducer = reduce::ReducerKind::kDft;
  std::size_t reduced_dim = 6;  ///< R-tree dimensionality after reduction
  /// Sub-trail indexing (the ST-index of [2], which the paper builds on):
  /// instead of one R-tree point per window, group this many *consecutive*
  /// windows of a series into one leaf entry whose MBR bounds their reduced
  /// points. 0 = point mode (one entry per window). Trails shrink the index
  /// by ~this factor and slash page reads; the trade-off is that a trail
  /// hit makes all of its windows verification candidates.
  std::size_t subtrail_len = 0;
  index::RTreeConfig tree;      ///< tree.dim is overwritten with reduced_dim
  geom::PruneStrategy prune = geom::PruneStrategy::kEepOnly;
  std::size_t buffer_pool_pages = 8192;
  /// Drop the buffer-pool cache before every query, the paper's I/O model
  /// (each query starts cold; Figure 5 counts all node reads).
  bool cold_cache_per_query = true;
  /// When non-empty, the index lives in files under this directory
  /// (created if missing) instead of RAM, and Checkpoint()/Open() provide
  /// persistence across processes.
  std::string storage_dir;
};

/// Decoded contents of an engine.meta file (written by Checkpoint, read by
/// Open; format in persistence.cc).
struct EngineMeta {
  EngineConfig config;  ///< storage_dir left empty; Open() fills it in
  std::size_t indexed_windows = 0;
  storage::PageId root = storage::kInvalidPageId;
  std::size_t height = 0;
  std::size_t tree_size = 0;
};

/// Parses engine.meta text. The input is untrusted: every numeric field is
/// range-checked before narrowing (a huge/NaN value in the text would
/// otherwise make the double -> integer casts undefined behaviour) and enum
/// fields are validated against their known values, so a corrupt file yields
/// a Corruption status rather than UB or an aborted invariant check.
/// Exposed (rather than kept static in persistence.cc) so the fuzz harness
/// can drive the parser over in-memory buffers. Defined in persistence.cc.
Result<EngineMeta> ParseEngineMeta(std::istream& in);

/// Per-query observability: what a query cost. All counters are deltas over
/// the single query. This is the one per-query record: every other surface
/// (the obs::QueryCost metrics and flight records, explain reports, the shard
/// roll-ups) is derived from it.
struct QueryStats {
  std::uint64_t index_page_reads = 0;   ///< R-tree node pages fetched (logical)
  std::uint64_t index_page_misses = 0;  ///< of those, buffer-pool misses
  std::uint64_t data_page_reads = 0;    ///< raw-data pages read for verification
  /// Windows that reached exact verification: after sub-trail expansion and,
  /// for long queries, after de-duplication across pieces and the series
  /// bounds check.
  std::uint64_t candidates = 0;
  std::uint64_t matches = 0;           ///< verified answers
  /// CPU time the query burned on its own thread (CLOCK_THREAD_CPUTIME_ID).
  std::uint64_t cpu_us = 0;
  geom::PenetrationStats penetration;  ///< pruning-test breakdown
  /// Index-walk breakdown: nodes visited per tree level, MBR distance
  /// evaluations, and the EP/BS/exact prune disposition derived from
  /// `penetration`.
  obs::QueryTelemetry telemetry;

  std::uint64_t total_page_reads() const {
    return index_page_reads + data_page_reads;
  }
};

/// The obs-layer view of what a query spent, derived from its QueryStats:
/// the hit/miss split of the index page reads, data pages, bytes touched at
/// page granularity, and windows verified. Linear in the stats, so the cost
/// of summed per-shard stats is the sum of the per-shard costs.
obs::QueryCost DeriveQueryCost(const QueryStats& stats);

/// A monotonically tightening upper bound on the k-th best exact distance,
/// shared by concurrent k-NN sub-queries over disjoint partitions of one
/// logical index (shard scatter-gather). Each partition publishes its local
/// k-th best distance as it improves; every partition polls the bound and
/// stops its index walk early once the next candidate's *lower* bound
/// (reduced distance) exceeds it. Correctness: the bound is always >= the
/// global k-th best distance (a local k-th order statistic can only be
/// larger than the union's), and the walk only skips candidates *strictly*
/// above it, so no true neighbour is ever dismissed — the merged answer is
/// bit-identical to a single-engine run. Lock-free; safe from any thread.
class KnnSharedBound {
 public:
  /// Lowers the bound to `distance` if it improves it (CAS min).
  void Tighten(double distance) {
    // The bound is a self-contained monotone hint — readers act only on
    // its value, never on data it would publish; a stale read just delays
    // a prune and cannot change the merged answer.
    // relaxed-ok: monotone hint, no payload (see above)
    double current = bound_.load(std::memory_order_relaxed);
    while (distance < current &&
           !bound_.compare_exchange_weak(current, distance,
                                         // relaxed-ok: same hint as above
                                         std::memory_order_relaxed)) {
    }
  }
  /// Current bound; +infinity until any partition has k results.
  double Get() const {
    // relaxed-ok: monotone pruning hint, no payload to acquire
    return bound_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> bound_{std::numeric_limits<double>::infinity()};
};

/// The paper's system: a dynamic index over all length-n windows of a set of
/// time series supporting range and k-NN queries under scale-shift
/// similarity (Definition 1), with no false dismissals.
///
/// Pipeline (Sections 5-6): window -> SE-transform -> linear reduction ->
/// point in the R*-tree. A query becomes a line in the reduced SE space;
/// subtrees are pruned by eps-MBR penetration (Theorem 3); leaf candidates
/// are verified exactly against the raw data, and each answer carries its
/// optimal (a, b).
///
/// Thread safety: the const query methods (RangeQuery, Knn, LongRangeQuery,
/// ReadWindow) may run concurrently from many threads over one engine,
/// provided cold_cache_per_query is off (a per-query pool Clear() would
/// evict pages out from under concurrent readers; service::QueryService
/// turns it off). Per-query costs in QueryStats come from thread-local
/// storage::QueryCounters, so concurrent queries never mix up each other's
/// counts. Mutations (AddSeries, Append, BulkBuild, RemoveWindow,
/// Checkpoint, the setters) require exclusive access: no query or other
/// mutation may be in flight.
class SearchEngine {
 public:
  static Result<std::unique_ptr<SearchEngine>> Create(const EngineConfig& config);

  /// Reopens an engine previously persisted with Checkpoint() into
  /// `storage_dir`. The saved configuration is restored from disk.
  /// Defined in persistence.cc.
  static Result<std::unique_ptr<SearchEngine>> Open(const std::string& storage_dir);

  /// Persists everything needed to Open() later: flushes the buffer pool,
  /// syncs the page file, and writes the dataset and engine metadata.
  /// Requires a file-backed engine (config().storage_dir non-empty).
  /// Defined in persistence.cc.
  Status Checkpoint();

  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;

  /// Adds a series and indexes every complete window (dynamic insertion,
  /// requirement 2 of Section 3). Returns the series id.
  Result<storage::SeriesId> AddSeries(std::string name,
                                      std::span<const double> values);

  /// Appends new observations to the most recently added series and indexes
  /// the windows completed by them (streaming ingestion).
  Status Append(storage::SeriesId id, std::span<const double> values);

  /// Adds many series and bulk-loads the index with STR packing - orders of
  /// magnitude faster than repeated AddSeries for large corpora.
  /// Must be called on an empty engine.
  Status BulkBuild(const std::vector<seq::TimeSeries>& corpus);

  /// Removes one window from the index (the raw values stay in the dataset).
  Status RemoveWindow(index::RecordId record);

  /// All windows S' with Q ~eps S' (Definition 1), each with its optimal
  /// (a, b), filtered by `cost`. `query` must have length == window.
  /// Results are sorted by (series, offset). `stats` may be null.
  Result<std::vector<Match>> RangeQuery(std::span<const double> query, double eps,
                                        const TransformCost& cost = {},
                                        QueryStats* stats = nullptr) const;

  /// The k nearest windows under the exact scale-shift distance
  /// (Corollary 1), via GEMINI-style multi-step search over the index's
  /// nearest-line-neighbour iterator. Results sorted by (distance, record);
  /// the record id breaks exact distance ties so the answer is a
  /// deterministic function of the indexed set — shard::ShardedEngine relies
  /// on this to merge per-shard top-k lists bit-identically. `shared_bound`,
  /// when non-null, lets concurrent sub-queries over disjoint partitions
  /// tighten each other's termination bound (see KnnSharedBound).
  Result<std::vector<Match>> Knn(std::span<const double> query, std::size_t k,
                                 const TransformCost& cost = {},
                                 QueryStats* stats = nullptr,
                                 KnnSharedBound* shared_bound = nullptr) const;

  /// Range query for queries *longer* than the window (Section 7, following
  /// [2]): the query is cut into floor(|Q|/n) disjoint length-n pieces, each
  /// searched with eps/sqrt(p); candidates are verified against the full
  /// query. Requires stride == 1. Defined in long_query.cc.
  Result<std::vector<Match>> LongRangeQuery(std::span<const double> query,
                                            double eps,
                                            const TransformCost& cost = {},
                                            QueryStats* stats = nullptr) const;

  /// Reads the raw values of the window identified by `record` (counted as
  /// data page reads).
  Result<geom::Vec> ReadWindow(index::RecordId record) const;

  const EngineConfig& config() const { return config_; }

  /// Switches the node-pruning strategy for subsequent queries (the paper's
  /// experiment sets 2 and 3 differ only in this; the benchmarks flip it on
  /// one engine instead of rebuilding the index).
  void set_prune_strategy(geom::PruneStrategy strategy) {
    config_.prune = strategy;
  }

  /// Toggles the cold-cache-per-query I/O model (see EngineConfig). With
  /// warm caching, index_page_misses in QueryStats reports the physical
  /// reads that survive the buffer pool.
  void set_cold_cache_per_query(bool cold) { config_.cold_cache_per_query = cold; }
  seq::Dataset& dataset() { return dataset_; }
  const seq::Dataset& dataset() const { return dataset_; }
  index::RTree& tree() { return *tree_; }
  const index::RTree& tree() const { return *tree_; }
  storage::BufferPool& pool() { return *pool_; }
  const storage::BufferPool& pool() const { return *pool_; }
  const reduce::Reducer& reducer() const { return *reducer_; }
  /// Number of windows covered by the index (equals the tree's entry count
  /// in point mode; in sub-trail mode one tree entry covers many windows).
  std::size_t num_indexed_windows() const { return indexed_windows_; }

  /// Plan report of the most recent *telemetry-enabled* query on this engine
  /// (one that was passed a QueryStats or ran under a trace; queries with
  /// neither are not snapshotted, keeping the instrumentation-off path free
  /// of extra work). Combines the saved QueryStats with the tree's current
  /// structural profile and the sequential-scan baseline. Thread-safe;
  /// returns NotFound before the first eligible query. Defined in explain.cc.
  Result<obs::ExplainReport> ExplainLast() const;

  /// Builds the plan report for ONE specific query from its identity and its
  /// QueryStats — the same derivation ExplainLast() applies to the engine's
  /// saved snapshot, but over stats the caller already holds. This is how
  /// the service layer assembles a flight-recorder capture without racing
  /// other workers for the engine-wide "last query" slot. Thread-safe (reads
  /// the tree's structural profile). Defined in explain.cc.
  Result<obs::ExplainReport> ExplainFromStats(const std::string& kind,
                                              double eps, std::uint64_t k,
                                              std::uint64_t elapsed_us,
                                              const QueryStats& stats) const;

  /// SE-transform + reduction of one window: the point actually indexed.
  geom::Vec ReducedPoint(std::span<const double> window) const;

  /// The query's line in the reduced SE space (through the origin).
  geom::Line ReducedQueryLine(std::span<const double> query) const;

 private:
  explicit SearchEngine(const EngineConfig& config);

  using StoreFactory =
      Result<std::unique_ptr<storage::PageStore>> (*)(const std::string& dir);
  using TreeFactory = std::function<Result<std::unique_ptr<index::RTree>>(
      storage::BufferPool*, const index::RTreeConfig&)>;

  /// The assembly step Create and Open share: the reducer, then the page
  /// store for config.storage_dir (so a bad configuration touches no file),
  /// the buffer pool, and the tree, whose configuration takes tree.dim from
  /// the reducer and box_leaves from subtrail_len.
  static Result<std::unique_ptr<SearchEngine>> Assemble(
      const EngineConfig& config, StoreFactory make_store,
      const TreeFactory& make_tree);

  /// Snapshot of one finished query, the raw material of ExplainLast().
  struct LastQuery {
    const char* kind = "range";  ///< "range" | "knn" | "long_range"
    double eps = 0.0;
    std::uint64_t k = 0;  ///< k-NN only
    geom::PruneStrategy prune = geom::PruneStrategy::kEepOnly;
    std::uint64_t elapsed_us = 0;
    QueryStats stats;
  };

  /// Saves the snapshot for ExplainLast(). Called from QueryScope::Finish
  /// only when telemetry was collected, so the mutex is off the
  /// instrumentation-disabled path entirely.
  void RecordLastQuery(const LastQuery& last) const TSSS_EXCLUDES(last_query_mu_);

  /// The bookkeeping around one RangeQuery, Knn or LongRangeQuery, written
  /// once. Construction installs the thread-local page counters and opens
  /// the root span; when someone will read the result (a QueryStats sink or
  /// an installed trace) it also installs the pruning telemetry and reads
  /// the wall and thread-CPU clocks. With neither, it reads no clock, takes
  /// no mutex and installs no telemetry. Finish() is the success path only:
  /// it ticks the registry counters and, when instrumented, builds the
  /// query's one QueryStats and hands that value to `*stats` and to the
  /// ExplainLast() snapshot. An error return just drops the scope, so it
  /// ticks no counter and writes no stats.
  class QueryScope {
   public:
    enum class Kind { kRange, kKnn, kLongRange };

    QueryScope(const SearchEngine& engine, Kind kind, QueryStats* stats);
    QueryScope(const QueryScope&) = delete;
    QueryScope& operator=(const QueryScope&) = delete;

    /// The root span ("range_query", "knn_query" or "long_range_query").
    obs::TraceSpan& span() { return span_; }

    /// `candidates` counts windows verified; `eps` is unused for k-NN and
    /// `k` for the range kinds. k-NN's best-first walk collects no
    /// PenetrationStats and passes an empty one.
    void Finish(double eps, std::uint64_t k, std::uint64_t candidates,
                std::uint64_t matches, const geom::PenetrationStats& pen);

   private:
    const SearchEngine& engine_;
    const Kind kind_;
    QueryStats* const stats_;
    storage::QueryCounters counters_;
    storage::ScopedQueryCounters scoped_counters_{&counters_};
    obs::QueryTelemetry telemetry_;
    std::optional<obs::ScopedQueryTelemetry> scoped_telemetry_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t cpu_start_us_ = 0;
    obs::TraceSpan span_;
  };

  Status IndexWindows(storage::SeriesId id, std::size_t first_offset);
  Status IndexWindowsTrail(storage::SeriesId id, std::size_t first_offset);
  /// Builds the MBR over the reduced points of windows with indices
  /// [first_widx, last_widx] (inclusive, in stride units) of `values`.
  geom::Mbr TrailBox(std::span<const double> values, std::size_t first_widx,
                     std::size_t last_widx) const;
  /// Expands a leaf candidate to the window offsets it stands for (one in
  /// point mode, up to subtrail_len in trail mode).
  Status ExpandCandidate(index::RecordId record,
                         std::vector<index::RecordId>* out) const;
  /// Per-query setup (cold-cache drop when configured). Fails when the pool
  /// cannot be cleared — a silent failure here would quietly turn cold-cache
  /// measurements into warm-cache ones.
  Status BeginQuery() const;

  EngineConfig config_;
  std::unique_ptr<reduce::Reducer> reducer_;
  seq::Dataset dataset_;
  std::unique_ptr<storage::PageStore> page_store_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<index::RTree> tree_;
  std::size_t indexed_windows_ = 0;

  /// mutable: recording the last query is observability, not logical
  /// mutation, and happens on the const query path.
  mutable Mutex last_query_mu_;
  mutable std::optional<LastQuery> last_query_ TSSS_GUARDED_BY(last_query_mu_);
};

}  // namespace tsss::core

#endif  // TSSS_CORE_ENGINE_H_

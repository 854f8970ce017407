#ifndef TSSS_SHARD_SHARDED_ENGINE_H_
#define TSSS_SHARD_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tsss/common/status.h"
#include "tsss/core/engine.h"
#include "tsss/core/similarity.h"
#include "tsss/obs/explain.h"
#include "tsss/seq/time_series.h"
#include "tsss/service/query_service.h"
#include "tsss/shard/shard_map.h"

namespace tsss::shard {

/// File name of the shard map inside a sharded index root. Its presence is
/// how tools tell a sharded root from a single-engine index directory.
inline constexpr char kShardMapFileName[] = "shard_map.tsss";

struct ShardedEngineConfig {
  /// Per-shard engine settings. `engine.storage_dir`, when non-empty, is the
  /// ROOT of the sharded index: shard i persists under
  /// <root>/shard-<i> and the shard map under <root>/shard_map.tsss.
  /// cold_cache_per_query is forced off (fan-out runs shards concurrently).
  core::EngineConfig engine;
  std::uint32_t num_shards = 4;
  ShardScheme scheme = ShardScheme::kHash;
  /// Worker threads in the internal fan-out pool; 0 = one per shard.
  std::size_t fanout_workers = 0;
};

/// Point-in-time per-shard view for inspection and benchmarks.
struct ShardInfo {
  std::uint32_t shard = 0;
  std::uint64_t series = 0;
  std::uint64_t indexed_windows = 0;
  std::size_t tree_height = 0;
  /// Buffer-pool hit rate over the shard engine's lifetime (0 if no reads).
  double pool_hit_rate = 0.0;
};

/// Scatter-gather facade over N independent core::SearchEngine shards — one
/// logical index with the single-engine query API (ROADMAP item 2).
///
/// Partitioning is per *series* (ShardMap): a series' windows all live in
/// one shard, each shard has its own R-tree, dataset and BufferPool (no
/// cross-shard cache contention), and each shard's pool reports under a
/// `shard="i"` metrics label. Queries fan out through one internal
/// service::QueryService worker pool via QueryRequest::target and merge:
///
///  * Range / long-range: per-shard answers are disjoint (verdicts are per
///    window, windows are partitioned); remap local series ids to global
///    and re-sort by record — bit-identical to the single-engine answer,
///    which is also (series, offset)-sorted.
///  * kNN: every shard runs a full local top-k under the canonical
///    (distance, record) order, sharing one core::KnnSharedBound so a shard
///    that already has k answers tightens every other shard's GEMINI
///    termination bound mid-flight; a k-way heap merge of the per-shard
///    lists then yields exactly the single-engine answer (any global top-k
///    member is necessarily in its own shard's local top-k).
///
/// The per-shard prune waterfalls sum into one ExplainLast() report whose
/// explain_accounted() identity still holds (the identity is linear).
///
/// Thread safety: the const query methods may run concurrently from many
/// threads (shard engines run their concurrent-read path, the fan-out pool
/// is internally synchronized, the shared bound is lock-free). Mutations
/// (BulkBuild, AddSeries, Append, Checkpoint) require exclusive access,
/// exactly like SearchEngine. ExplainLast() reads per-shard last-query
/// snapshots and must not race other queries.
class ShardedEngine {
 public:
  /// Builds an empty sharded engine (create-form). num_shards >= 1.
  static Result<std::unique_ptr<ShardedEngine>> Create(
      const ShardedEngineConfig& config);

  /// Reopens a sharded index persisted by Checkpoint() under `storage_dir`:
  /// loads <root>/shard_map.tsss, then opens every <root>/shard-<i>.
  static Result<std::unique_ptr<ShardedEngine>> Open(
      const std::string& storage_dir, std::size_t fanout_workers = 0);

  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Partitions the corpus by the configured scheme and bulk-loads every
  /// shard. Must be called on an empty engine. Series keep their corpus
  /// order as *global* ids 0..N-1; answers are reported in that id space.
  Status BulkBuild(const std::vector<seq::TimeSeries>& corpus);

  /// Adds one series to its shard (dynamic insertion); returns the global
  /// series id.
  Result<storage::SeriesId> AddSeries(std::string name,
                                      std::span<const double> values);

  /// Appends observations to a previously added series.
  Status Append(storage::SeriesId global, std::span<const double> values);

  /// Persists every shard (shard i under <root>/shard-<i>) plus the shard
  /// map. Requires a file-backed config (engine.storage_dir non-empty).
  Status Checkpoint();

  /// Fan-out counterparts of the SearchEngine query API. Answers and
  /// `stats` (summed across shards, written only on success) are in the
  /// global id space; matches are bit-identical to a single engine indexing
  /// the same corpus.
  Result<std::vector<core::Match>> RangeQuery(
      std::span<const double> query, double eps,
      const core::TransformCost& cost = {},
      core::QueryStats* stats = nullptr) const;
  Result<std::vector<core::Match>> Knn(std::span<const double> query,
                                       std::size_t k,
                                       const core::TransformCost& cost = {},
                                       core::QueryStats* stats = nullptr) const;
  Result<std::vector<core::Match>> LongRangeQuery(
      std::span<const double> query, double eps,
      const core::TransformCost& cost = {},
      core::QueryStats* stats = nullptr) const;

  /// Merged plan report of the last completed query: per-shard reports
  /// folded with obs::MergeExplainReports (counters summed, so the prune
  /// waterfall identity still accounts for every tested entry).
  Result<obs::ExplainReport> ExplainLast() const;

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  const ShardMap& shard_map() const { return map_; }
  const core::SearchEngine& shard(std::uint32_t i) const { return *shards_[i]; }
  const core::EngineConfig& engine_config() const { return config_.engine; }

  std::uint64_t total_series() const { return map_.series.size(); }
  std::uint64_t num_indexed_windows() const;

  /// Global-id directory (the sharded analogue of seq::Dataset lookups).
  Result<std::string> SeriesName(storage::SeriesId global) const;
  Result<std::span<const double>> SeriesValues(storage::SeriesId global) const;
  Result<storage::SeriesId> FindSeries(std::string_view name) const;

  /// Per-shard inspection rows (series/windows/height/pool hit rate).
  std::vector<ShardInfo> ShardInfos() const;

  /// Counters of the internal fan-out pool (sub-queries, not logical
  /// queries: one logical query submits num_shards() requests).
  service::ServiceMetrics FanoutStats() const;

  /// The fan-out pool's rolling window: every per-shard leg's latency and
  /// outcome, for windowed quantiles and /healthz SLO evaluation on a
  /// sharded server (same granularity caveat as FanoutStats()).
  obs::RollingWindow& rolling() const { return service_->rolling(); }

 private:
  ShardedEngine() = default;

  /// Builds the shard engines + fan-out service for `map_`/`config_`.
  /// `open_existing` selects SearchEngine::Open over Create.
  static Result<std::unique_ptr<ShardedEngine>> Assemble(
      ShardedEngineConfig config, ShardMap map, bool open_existing);

  std::string ShardDir(std::uint32_t i) const;

  /// The scatter-gather every fan-out query shares: sends `request` to
  /// every shard (retrying admission while concurrent fan-outs momentarily
  /// fill the queue), records each leg's cost under its shard label, and
  /// returns the per-shard answers remapped to global ids, in shard order.
  /// On success `*stats` (when non-null) is the sum over shards; a failed
  /// leg's status is returned and no stats are written.
  Result<std::vector<std::vector<core::Match>>> ScatterGather(
      const service::QueryRequest& request, core::QueryStats* stats) const;

  ShardedEngineConfig config_;
  ShardMap map_;
  /// local_to_global_[shard][local_id] == global id (dense, build order).
  std::vector<std::vector<storage::SeriesId>> local_to_global_;
  std::vector<std::unique_ptr<core::SearchEngine>> shards_;
  /// Declared after shards_ so the worker pool is destroyed (joined) before
  /// the engines it queries.
  std::unique_ptr<service::QueryService> service_;
};

}  // namespace tsss::shard

#endif  // TSSS_SHARD_SHARDED_ENGINE_H_

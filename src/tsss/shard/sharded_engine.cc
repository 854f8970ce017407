#include "tsss/shard/sharded_engine.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <queue>
#include <thread>
#include <utility>

#include "tsss/common/check.h"
#include "tsss/common/exec_control.h"
#include "tsss/seq/window.h"

namespace tsss::shard {
namespace {

/// Folds one shard's per-query counters into the caller-visible total. Every
/// field is a sum — the same linearity MergeExplainReports relies on.
void AccumulateStats(const core::QueryStats& in, core::QueryStats* out) {
  out->index_page_reads += in.index_page_reads;
  out->index_page_misses += in.index_page_misses;
  out->data_page_reads += in.data_page_reads;
  out->candidates += in.candidates;
  out->matches += in.matches;
  out->cpu_us += in.cpu_us;

  out->penetration.tests += in.penetration.tests;
  out->penetration.visits += in.penetration.visits;
  out->penetration.outer_rejects += in.penetration.outer_rejects;
  out->penetration.inner_accepts += in.penetration.inner_accepts;
  out->penetration.slab_tests += in.penetration.slab_tests;
  out->penetration.sphere_tests += in.penetration.sphere_tests;
  out->penetration.exact_tests += in.penetration.exact_tests;

  obs::QueryTelemetry& t = out->telemetry;
  const obs::QueryTelemetry& s = in.telemetry;
  t.nodes_visited += s.nodes_visited;
  for (std::size_t i = 0; i < obs::QueryTelemetry::kMaxLevels; ++i) {
    t.nodes_per_level[i] += s.nodes_per_level[i];
  }
  t.mbr_distance_evals += s.mbr_distance_evals;
  t.leaf_candidates += s.leaf_candidates;
  t.ep_prunes += s.ep_prunes;
  t.bs_prunes += s.bs_prunes;
  t.exact_prunes += s.exact_prunes;
  t.entries_tested += s.entries_tested;
  t.candidates_postfiltered += s.candidates_postfiltered;
}

/// One fan-out request; ScatterGather copies it to every shard.
service::QueryRequest MakeRequest(service::QueryKind kind,
                                  std::span<const double> query,
                                  const core::TransformCost& cost) {
  service::QueryRequest request;
  request.kind = kind;
  request.query.assign(query.begin(), query.end());
  request.cost = cost;
  return request;
}

/// The range and long-range merge. Windows are partitioned (a series lives
/// wholly in one shard, so every candidate piece of a long query is verified
/// in the shard that owns the series), so the per-shard answers are
/// disjoint; their union re-sorted by record is exactly the single-engine
/// answer.
Result<std::vector<core::Match>> MergeByRecord(
    Result<std::vector<std::vector<core::Match>>> lists) {
  if (!lists.ok()) return lists.status();
  std::vector<core::Match> merged;
  for (const std::vector<core::Match>& list : *lists) {
    merged.insert(merged.end(), list.begin(), list.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const core::Match& a, const core::Match& b) {
              return a.record < b.record;
            });
  return merged;
}

}  // namespace

ShardedEngine::~ShardedEngine() = default;

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const ShardedEngineConfig& config) {
  if (config.num_shards == 0 || config.num_shards > kMaxShards) {
    return Status::InvalidArgument("num_shards must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  ShardMap map;
  map.num_shards = config.num_shards;
  map.scheme = config.scheme;
  return Assemble(config, std::move(map), /*open_existing=*/false);
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Open(
    const std::string& storage_dir, std::size_t fanout_workers) {
  Result<ShardMap> map = LoadShardMap(storage_dir + "/" + kShardMapFileName);
  if (!map.ok()) return map.status();

  ShardedEngineConfig config;
  config.engine.storage_dir = storage_dir;
  config.num_shards = map->num_shards;
  config.scheme = map->scheme;
  config.fanout_workers = fanout_workers;
  return Assemble(std::move(config), std::move(*map), /*open_existing=*/true);
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Assemble(
    ShardedEngineConfig config, ShardMap map, bool open_existing) {
  // The fan-out pool runs shards concurrently; a per-query pool Clear()
  // would evict pages out from under sibling sub-queries.
  config.engine.cold_cache_per_query = false;

  std::unique_ptr<ShardedEngine> sharded(new ShardedEngine());
  sharded->config_ = std::move(config);
  sharded->map_ = std::move(map);

  sharded->local_to_global_.assign(sharded->map_.num_shards, {});
  for (std::size_t g = 0; g < sharded->map_.series.size(); ++g) {
    const ShardAssignment& a = sharded->map_.series[g];
    std::vector<storage::SeriesId>& locals = sharded->local_to_global_[a.shard];
    if (a.local_id != locals.size()) {
      return Status::Corruption("shard map local ids not dense for shard " +
                                std::to_string(a.shard));
    }
    locals.push_back(static_cast<storage::SeriesId>(g));
  }

  sharded->shards_.reserve(sharded->map_.num_shards);
  for (std::uint32_t i = 0; i < sharded->map_.num_shards; ++i) {
    Result<std::unique_ptr<core::SearchEngine>> shard_engine =
        Status::Internal("unassembled shard");
    if (open_existing) {
      shard_engine = core::SearchEngine::Open(sharded->ShardDir(i));
      if (!shard_engine.ok()) return shard_engine.status();
      // The map is the source of truth for the id space; a shard whose
      // dataset disagrees was tampered with or mixed up across indexes.
      if ((*shard_engine)->dataset().size() !=
          sharded->local_to_global_[i].size()) {
        return Status::Corruption(
            "shard " + std::to_string(i) + " holds " +
            std::to_string((*shard_engine)->dataset().size()) +
            " series but the shard map assigns " +
            std::to_string(sharded->local_to_global_[i].size()));
      }
      (*shard_engine)->set_cold_cache_per_query(false);
      if (i == 0) {
        // Each shard persists its own engine.meta; adopt shard 0's config as
        // the facade's logical engine config (window, reducer, dims) so
        // engine_config() matches what the shards enforce. The storage_dir
        // stays the sharded root, not the shard subdirectory.
        const std::string root = sharded->config_.engine.storage_dir;
        sharded->config_.engine = (*shard_engine)->config();
        sharded->config_.engine.storage_dir = root;
        sharded->config_.engine.cold_cache_per_query = false;
      }
    } else {
      core::EngineConfig shard_config = sharded->config_.engine;
      if (!shard_config.storage_dir.empty()) {
        shard_config.storage_dir = sharded->ShardDir(i);
      }
      shard_engine = core::SearchEngine::Create(shard_config);
      if (!shard_engine.ok()) return shard_engine.status();
    }
    (*shard_engine)->pool().SetMetricsLabel("shard", std::to_string(i));
    sharded->shards_.push_back(std::move(*shard_engine));
  }

  service::ServiceConfig service_config;
  service_config.num_workers = sharded->config_.fanout_workers != 0
                                   ? sharded->config_.fanout_workers
                                   : sharded->shards_.size();
  // Room for several logical queries' worth of sub-requests; ScatterGather()
  // retries admission anyway, this just keeps the retry path cold.
  service_config.queue_capacity =
      std::max<std::size_t>(256, 8 * sharded->shards_.size());
  Result<std::unique_ptr<service::QueryService>> service =
      service::QueryService::Create(sharded->shards_.front().get(),
                                    service_config);
  if (!service.ok()) return service.status();
  sharded->service_ = std::move(*service);
  return sharded;
}

std::string ShardedEngine::ShardDir(std::uint32_t i) const {
  return config_.engine.storage_dir + "/shard-" + std::to_string(i);
}

Status ShardedEngine::BulkBuild(const std::vector<seq::TimeSeries>& corpus) {
  if (total_series() != 0) {
    return Status::FailedPrecondition("BulkBuild requires an empty engine");
  }
  map_ = BuildShardMap(config_.scheme, corpus.size(), num_shards());
  local_to_global_.assign(num_shards(), {});
  std::vector<std::vector<seq::TimeSeries>> per_shard(num_shards());
  for (std::size_t g = 0; g < corpus.size(); ++g) {
    const ShardAssignment& a = map_.series[g];
    local_to_global_[a.shard].push_back(static_cast<storage::SeriesId>(g));
    per_shard[a.shard].push_back(corpus[g]);
  }
  for (std::uint32_t i = 0; i < num_shards(); ++i) {
    Status s = shards_[i]->BulkBuild(per_shard[i]);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Result<storage::SeriesId> ShardedEngine::AddSeries(
    std::string name, std::span<const double> values) {
  if (map_.series.size() > std::numeric_limits<storage::SeriesId>::max()) {
    return Status::ResourceExhausted("series id space exhausted");
  }
  const storage::SeriesId global =
      static_cast<storage::SeriesId>(map_.series.size());
  ShardAssignment a;
  a.shard = AssignShard(map_.scheme, global, map_.num_shards);
  a.local_id =
      static_cast<storage::SeriesId>(local_to_global_[a.shard].size());
  Result<storage::SeriesId> local =
      shards_[a.shard]->AddSeries(std::move(name), values);
  if (!local.ok()) return local.status();
  TSSS_DCHECK(*local == a.local_id);
  map_.series.push_back(a);
  local_to_global_[a.shard].push_back(global);
  return global;
}

Status ShardedEngine::Append(storage::SeriesId global,
                             std::span<const double> values) {
  Result<ShardAssignment> a = map_.Assignment(global);
  if (!a.ok()) return a.status();
  return shards_[a->shard]->Append(a->local_id, values);
}

Status ShardedEngine::Checkpoint() {
  if (config_.engine.storage_dir.empty()) {
    return Status::FailedPrecondition(
        "Checkpoint requires a file-backed sharded engine (storage_dir)");
  }
  for (std::uint32_t i = 0; i < num_shards(); ++i) {
    Status s = shards_[i]->Checkpoint();
    if (!s.ok()) return s;
  }
  return SaveShardMap(config_.engine.storage_dir + "/" + kShardMapFileName,
                      map_);
}

Result<std::vector<std::vector<core::Match>>> ShardedEngine::ScatterGather(
    const service::QueryRequest& request, core::QueryStats* stats) const {
  std::vector<service::QueryRequest> requests(shards_.size(), request);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    requests[i].target = shards_[i].get();
  }
  Result<std::vector<std::future<service::QueryResponse>>> futures =
      Status::Internal("unsubmitted");
  for (;;) {
    // A cancelled or expired caller is refused before admission, and a full
    // queue is not waited on past the caller's deadline.
    Status polled = PollExecControl();
    if (!polled.ok()) return polled;
    // SubmitBatch consumes its argument even on rejection, so each attempt
    // submits a fresh copy. All-or-nothing admission keeps one logical
    // query's sub-requests together in the queue.
    futures = service_->SubmitBatch(requests);
    if (futures.ok()) break;
    if (futures.status().code() != StatusCode::kResourceExhausted) {
      return futures.status();
    }
    // Concurrent fan-outs momentarily filled the queue; the workers drain
    // it continuously, so yield and retry rather than failing the query.
    std::this_thread::yield();
  }

  // Every leg is awaited (a k-NN request points at the caller's shared
  // bound). Each leg that completed OK rolls its QueryStats into the
  // shard-labelled cost metrics, whether or not the overall query succeeds.
  // A failed leg is left out: the engine writes no stats for a query that
  // fails, so it would only add an empty sample.
  Status first_error;
  core::QueryStats total;
  std::vector<std::vector<core::Match>> lists;
  lists.reserve(futures->size());
  for (std::size_t i = 0; i < futures->size(); ++i) {
    service::QueryResponse response = (*futures)[i].get();
    if (!response.status.ok()) {
      if (first_error.ok()) first_error = response.status;
      continue;
    }
    core::RecordQueryCost("shard", std::to_string(i), response.stats);
    const std::vector<storage::SeriesId>& locals = local_to_global_[i];
    for (core::Match& m : response.matches) {
      TSSS_DCHECK(m.series < locals.size());
      m.series = locals[m.series];
      m.record = seq::MakeRecordId(m.series, m.offset);
    }
    AccumulateStats(response.stats, &total);
    lists.push_back(std::move(response.matches));
  }
  if (!first_error.ok()) return first_error;
  if (stats != nullptr) *stats = total;
  return lists;
}

Result<std::vector<core::Match>> ShardedEngine::RangeQuery(
    std::span<const double> query, double eps, const core::TransformCost& cost,
    core::QueryStats* stats) const {
  service::QueryRequest request =
      MakeRequest(service::QueryKind::kRange, query, cost);
  request.eps = eps;
  return MergeByRecord(ScatterGather(request, stats));
}

Result<std::vector<core::Match>> ShardedEngine::LongRangeQuery(
    std::span<const double> query, double eps, const core::TransformCost& cost,
    core::QueryStats* stats) const {
  service::QueryRequest request =
      MakeRequest(service::QueryKind::kLongRange, query, cost);
  request.eps = eps;
  return MergeByRecord(ScatterGather(request, stats));
}

Result<std::vector<core::Match>> ShardedEngine::Knn(
    std::span<const double> query, std::size_t k,
    const core::TransformCost& cost, core::QueryStats* stats) const {
  core::KnnSharedBound bound;
  service::QueryRequest request =
      MakeRequest(service::QueryKind::kKnn, query, cost);
  request.k = k;
  request.knn_bound = &bound;
  Result<std::vector<std::vector<core::Match>>> lists =
      ScatterGather(request, stats);
  if (!lists.ok()) return lists.status();

  // Each shard returns its local top-k in canonical (distance, record)
  // order; any global top-k member is necessarily in its shard's local
  // top-k, so a k-way merge of the heads yields the global answer. Locals
  // are assigned in global order, so the remap preserves the canonical
  // order; the sort is a cheap belt-and-braces guarantee.
  for (std::vector<core::Match>& list : *lists) {
    std::sort(list.begin(), list.end(), core::CanonicalBefore);
  }
  using Head = std::pair<std::size_t, std::size_t>;  // (list, position)
  auto head_greater = [&lists](const Head& a, const Head& b) {
    return core::CanonicalBefore((*lists)[b.first][b.second],
                                 (*lists)[a.first][a.second]);
  };
  std::priority_queue<Head, std::vector<Head>, decltype(head_greater)> heads(
      head_greater);
  for (std::size_t i = 0; i < lists->size(); ++i) {
    if (!(*lists)[i].empty()) heads.push({i, 0});
  }
  std::vector<core::Match> merged;
  merged.reserve(k);
  while (merged.size() < k && !heads.empty()) {
    const Head head = heads.top();
    heads.pop();
    merged.push_back((*lists)[head.first][head.second]);
    if (head.second + 1 < (*lists)[head.first].size()) {
      heads.push({head.first, head.second + 1});
    }
  }
  return merged;
}

Result<obs::ExplainReport> ShardedEngine::ExplainLast() const {
  std::vector<obs::ExplainReport> parts;
  parts.reserve(shards_.size());
  for (const std::unique_ptr<core::SearchEngine>& shard : shards_) {
    Result<obs::ExplainReport> part = shard->ExplainLast();
    if (!part.ok()) return part.status();
    parts.push_back(std::move(*part));
  }
  return obs::MergeExplainReports(parts);
}

std::uint64_t ShardedEngine::num_indexed_windows() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<core::SearchEngine>& shard : shards_) {
    total += shard->num_indexed_windows();
  }
  return total;
}

Result<std::string> ShardedEngine::SeriesName(storage::SeriesId global) const {
  Result<ShardAssignment> a = map_.Assignment(global);
  if (!a.ok()) return a.status();
  return shards_[a->shard]->dataset().Name(a->local_id);
}

Result<std::span<const double>> ShardedEngine::SeriesValues(
    storage::SeriesId global) const {
  Result<ShardAssignment> a = map_.Assignment(global);
  if (!a.ok()) return a.status();
  return shards_[a->shard]->dataset().Values(a->local_id);
}

Result<storage::SeriesId> ShardedEngine::FindSeries(
    std::string_view name) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Result<storage::SeriesId> local = shards_[i]->dataset().FindSeries(name);
    if (local.ok()) return local_to_global_[i][*local];
  }
  return Status::NotFound("series '" + std::string(name) +
                          "' not found in any shard");
}

std::vector<ShardInfo> ShardedEngine::ShardInfos() const {
  std::vector<ShardInfo> infos;
  infos.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardInfo info;
    info.shard = static_cast<std::uint32_t>(i);
    info.series = local_to_global_[i].size();
    info.indexed_windows = shards_[i]->num_indexed_windows();
    info.tree_height = shards_[i]->tree().height();
    const storage::BufferPoolMetrics m = shards_[i]->pool().metrics();
    info.pool_hit_rate =
        m.logical_reads == 0
            ? 0.0
            : static_cast<double>(m.hits) /
                  static_cast<double>(m.logical_reads);
    infos.push_back(info);
  }
  return infos;
}

service::ServiceMetrics ShardedEngine::FanoutStats() const {
  return service_->Stats();
}

}  // namespace tsss::shard

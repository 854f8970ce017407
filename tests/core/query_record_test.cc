// One per-query record feeds every surface. A finished query's QueryStats is
// the only place its counts are defined: the registry counters tick by the
// same candidates and matches, the explain report's I/O, funnel and cost rows
// are read from those stats, and the tsss_query_cost_* roll-ups and flight
// records are rendered from them. A query that fails ticks no counter and
// writes no stats. The shard fan-out's stats, the sum of its legs' records,
// obey the same identities.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/common/exec_control.h"
#include "tsss/core/engine.h"
#include "tsss/obs/flight_recorder.h"
#include "tsss/obs/metrics.h"
#include "tsss/seq/stock_generator.h"
#include "tsss/service/query_service.h"
#include "tsss/shard/sharded_engine.h"

namespace tsss::core {
namespace {

using geom::Vec;

EngineConfig SmallConfig() {
  EngineConfig config;
  config.window = 16;
  config.reduced_dim = 4;
  config.tree.max_entries = 8;
  config.buffer_pool_pages = 128;
  return config;
}

std::vector<seq::TimeSeries> Corpus() {
  seq::StockMarketConfig market;
  market.num_companies = 12;
  market.values_per_company = 120;
  market.seed = 7;
  return seq::GenerateStockMarket(market);
}

std::unique_ptr<SearchEngine> MakeEngine() {
  auto engine = SearchEngine::Create(SmallConfig());
  EXPECT_TRUE(engine.ok());
  for (const seq::TimeSeries& series : Corpus()) {
    EXPECT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
  }
  return std::move(engine).value();
}

/// `length` values of corpus series `series` from `offset`.
Vec Slice(std::size_t series, std::size_t offset, std::size_t length) {
  const Vec values = Corpus()[series].values;
  return Vec(values.begin() + offset, values.begin() + offset + length);
}

/// Snapshot of the process-wide query counters.
struct RegistryReading {
  std::uint64_t range, knn, long_range, candidates, matches;

  static RegistryReading Now() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    return {reg.GetCounter("tsss_range_queries_total")->Value(),
            reg.GetCounter("tsss_knn_queries_total")->Value(),
            reg.GetCounter("tsss_long_queries_total")->Value(),
            reg.GetCounter("tsss_query_candidates_total")->Value(),
            reg.GetCounter("tsss_query_matches_total")->Value()};
  }
};

TEST(QueryRecordTest, RegistryDeltasEqualSummedQueryStats) {
  auto engine = MakeEngine();
  const RegistryReading before = RegistryReading::Now();

  std::uint64_t candidates = 0;
  std::uint64_t matches = 0;
  auto tally = [&](const QueryStats& stats) {
    candidates += stats.candidates;
    matches += stats.matches;
  };
  for (storage::SeriesId s = 0; s < 4; ++s) {
    QueryStats range;
    ASSERT_TRUE(engine->RangeQuery(Slice(s, 10, 16), 0.8, {}, &range).ok());
    tally(range);
    QueryStats knn;
    ASSERT_TRUE(engine->Knn(Slice(s, 30, 16), 5, {}, &knn).ok());
    tally(knn);
    QueryStats long_range;
    ASSERT_TRUE(
        engine->LongRangeQuery(Slice(s, 5, 40), 2.0, {}, &long_range).ok());
    EXPECT_GT(long_range.candidates, 0u);
    tally(long_range);
  }

  const RegistryReading after = RegistryReading::Now();
  EXPECT_EQ(after.range - before.range, 4u);
  EXPECT_EQ(after.knn - before.knn, 4u);
  EXPECT_EQ(after.long_range - before.long_range, 4u);
  EXPECT_EQ(after.candidates - before.candidates, candidates);
  EXPECT_EQ(after.matches - before.matches, matches);
}

TEST(QueryRecordTest, FailedQueryTicksNothingAndWritesNoStats) {
  auto engine = MakeEngine();
  const Vec query = Slice(2, 20, 16);

  // Count the polls of a full run, then fail the re-run at its last poll,
  // which lies in the verify loop, after the index walk has done its work.
  ExecControl baseline;
  {
    ScopedExecControl scoped(&baseline);
    ASSERT_TRUE(engine->RangeQuery(query, 0.8).ok());
  }
  ASSERT_GT(baseline.checks(), 1u);

  const RegistryReading before = RegistryReading::Now();
  QueryStats stats;
  stats.candidates = 12345;
  ExecControl budgeted;
  budgeted.set_check_budget(baseline.checks() - 1);
  {
    ScopedExecControl scoped(&budgeted);
    auto matches = engine->RangeQuery(query, 0.8, {}, &stats);
    ASSERT_FALSE(matches.ok());
    EXPECT_EQ(matches.status().code(), StatusCode::kDeadlineExceeded);
  }
  const RegistryReading after = RegistryReading::Now();
  EXPECT_EQ(after.range, before.range);
  EXPECT_EQ(after.candidates, before.candidates);
  EXPECT_EQ(after.matches, before.matches);
  EXPECT_EQ(stats.candidates, 12345u);
  EXPECT_EQ(stats.index_page_reads, 0u);
}

/// The explain report's I/O, funnel and cost rows are the query's stats.
void ExpectExplainCostIsDerived(const obs::ExplainReport& r,
                                const QueryStats& stats,
                                const std::string& label) {
  EXPECT_EQ(r.cpu_us, stats.cpu_us) << label;
  EXPECT_EQ(r.index_page_reads, stats.index_page_reads) << label;
  EXPECT_EQ(r.index_page_hits, stats.index_page_hits()) << label;
  EXPECT_EQ(r.index_page_misses, stats.index_page_misses) << label;
  EXPECT_EQ(r.data_page_reads, stats.data_page_reads) << label;
  EXPECT_EQ(r.bytes_touched, stats.total_page_reads() * storage::kPageSize)
      << label;
  EXPECT_EQ(r.candidates, stats.candidates) << label;
  EXPECT_EQ(r.matches, stats.matches) << label;
}

TEST(QueryRecordTest, ExplainCostIsDerivedFromQueryStats) {
  auto engine = MakeEngine();
  QueryStats range;
  ASSERT_TRUE(engine->RangeQuery(Slice(1, 10, 16), 0.8, {}, &range).ok());
  auto report = engine->ExplainLast();
  ASSERT_TRUE(report.ok());
  ExpectExplainCostIsDerived(*report, range, "range");

  QueryStats knn;
  ASSERT_TRUE(engine->Knn(Slice(3, 40, 16), 7, {}, &knn).ok());
  report = engine->ExplainLast();
  ASSERT_TRUE(report.ok());
  ExpectExplainCostIsDerived(*report, knn, "knn");

  QueryStats long_range;
  ASSERT_TRUE(
      engine->LongRangeQuery(Slice(5, 0, 48), 2.0, {}, &long_range).ok());
  report = engine->ExplainLast();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kind, "long_range");
  ExpectExplainCostIsDerived(*report, long_range, "long_range");
}

TEST(QueryRecordTest, ShardedExplainCostIsDerivedFromQueryStats) {
  // The fan-out sums per-shard stats and the merged report sums per-shard
  // reports; both sums are linear, so the two must still agree exactly.
  shard::ShardedEngineConfig config;
  config.engine = SmallConfig();
  config.num_shards = 3;
  auto sharded = shard::ShardedEngine::Create(config);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE((*sharded)->BulkBuild(Corpus()).ok());

  QueryStats range;
  ASSERT_TRUE((*sharded)->RangeQuery(Slice(1, 10, 16), 0.8, {}, &range).ok());
  auto report = (*sharded)->ExplainLast();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(range.candidates, 0u);
  ExpectExplainCostIsDerived(*report, range, "sharded range");

  QueryStats knn;
  ASSERT_TRUE((*sharded)->Knn(Slice(3, 40, 16), 7, {}, &knn).ok());
  report = (*sharded)->ExplainLast();
  ASSERT_TRUE(report.ok());
  ExpectExplainCostIsDerived(*report, knn, "sharded knn");

  QueryStats long_range;
  ASSERT_TRUE(
      (*sharded)->LongRangeQuery(Slice(5, 0, 48), 2.0, {}, &long_range).ok());
  report = (*sharded)->ExplainLast();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(long_range.candidates, 0u);
  ExpectExplainCostIsDerived(*report, long_range, "sharded long_range");
}

/// Snapshot of one label pair's tsss_query_cost_* metrics.
struct CostReading {
  std::uint64_t cpu_count, cpu_sum_us, pages_hit, pages_miss, data_pages,
      bytes, candidates;

  static CostReading Of(const std::string& key, const std::string& value) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    auto counter = [&](const char* base) {
      return reg.GetCounter(obs::WithLabel(base, key, value))->Value();
    };
    const obs::LatencyHistogram* cpu =
        reg.GetHistogram(obs::WithLabel("tsss_query_cost_cpu", key, value));
    return {cpu->Count(),
            cpu->SumUs(),
            counter("tsss_query_cost_pages_hit_total"),
            counter("tsss_query_cost_pages_miss_total"),
            counter("tsss_query_cost_data_pages_total"),
            counter("tsss_query_cost_bytes_total"),
            counter("tsss_query_cost_candidates_total")};
  }
};

/// Expects the roll-up to have grown from `before` to `after` by exactly
/// `queries` samples summing to `stats`.
void ExpectCostDelta(const CostReading& before, const CostReading& after,
                     std::uint64_t queries, const QueryStats& stats,
                     const std::string& label) {
  EXPECT_EQ(after.cpu_count - before.cpu_count, queries) << label;
  EXPECT_EQ(after.cpu_sum_us - before.cpu_sum_us, stats.cpu_us) << label;
  EXPECT_EQ(after.pages_hit - before.pages_hit, stats.index_page_hits())
      << label;
  EXPECT_EQ(after.pages_miss - before.pages_miss, stats.index_page_misses)
      << label;
  EXPECT_EQ(after.data_pages - before.data_pages, stats.data_page_reads)
      << label;
  EXPECT_EQ(after.bytes - before.bytes,
            stats.total_page_reads() * storage::kPageSize)
      << label;
  EXPECT_EQ(after.candidates - before.candidates, stats.candidates) << label;
}

/// Adds `in` to `out`, the fields a cost surface renders.
void AddStats(const QueryStats& in, QueryStats* out) {
  out->index_page_reads += in.index_page_reads;
  out->index_page_misses += in.index_page_misses;
  out->data_page_reads += in.data_page_reads;
  out->candidates += in.candidates;
  out->matches += in.matches;
  out->cpu_us += in.cpu_us;
}

/// Arms the process-wide flight recorder to capture every completion, and
/// leaves it disarmed and empty for whatever runs next in this binary.
struct ArmedRecorder {
  ArmedRecorder() {
    obs::FlightRecorder::Global().Clear();
    obs::FlightRecorder::Global().Arm(
        0, std::numeric_limits<std::uint64_t>::max());
  }
  ~ArmedRecorder() {
    obs::FlightRecorder::Global().Disarm();
    obs::FlightRecorder::Global().Clear();
  }
};

/// A mixed range, k-NN and long-range workload over series 0..2.
std::vector<service::QueryRequest> MixedWorkload() {
  std::vector<service::QueryRequest> requests;
  for (std::size_t s = 0; s < 3; ++s) {
    service::QueryRequest range;
    range.kind = service::QueryKind::kRange;
    range.query = Slice(s, 10, 16);
    range.eps = 0.8;
    requests.push_back(range);
    service::QueryRequest knn;
    knn.kind = service::QueryKind::kKnn;
    knn.query = Slice(s, 30, 16);
    knn.k = 5;
    requests.push_back(knn);
    service::QueryRequest long_range;
    long_range.kind = service::QueryKind::kLongRange;
    long_range.query = Slice(s, 5, 40);
    long_range.eps = 2.0;
    requests.push_back(long_range);
  }
  return requests;
}

constexpr const char* kKinds[] = {"range", "knn", "long_range"};

std::size_t KindIndex(service::QueryKind kind) {
  switch (kind) {
    case service::QueryKind::kRange:
      return 0;
    case service::QueryKind::kKnn:
      return 1;
    case service::QueryKind::kLongRange:
      return 2;
  }
  return 0;
}

TEST(QueryRecordTest, ServiceFlightRecordsAndRollupsEqualQueryStats) {
  auto engine = MakeEngine();
  ArmedRecorder armed;
  service::ServiceConfig config;
  config.num_workers = 1;
  auto query_service = service::QueryService::Create(engine.get(), config);
  ASSERT_TRUE(query_service.ok());

  std::vector<CostReading> before;
  for (const char* kind : kKinds) before.push_back(CostReading::Of("kind", kind));
  const std::vector<service::QueryRequest> workload = MixedWorkload();
  ASSERT_LE(workload.size(), obs::FlightRecorder::Global().capacity());

  // One at a time, so the ring holds the records in submission order.
  std::vector<QueryStats> per_kind(3);
  std::vector<std::uint64_t> count_per_kind(3, 0);
  std::vector<QueryStats> responses;
  for (const service::QueryRequest& request : workload) {
    auto future = (*query_service)->Submit(request);
    ASSERT_TRUE(future.ok());
    const service::QueryResponse response = future->get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    responses.push_back(response.stats);
    AddStats(response.stats, &per_kind[KindIndex(request.kind)]);
    ++count_per_kind[KindIndex(request.kind)];
  }

  const std::vector<obs::FlightRecord> records =
      obs::FlightRecorder::Global().Snapshot();
  ASSERT_EQ(records.size(), workload.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string label = "record " + std::to_string(i);
    EXPECT_EQ(records[i].kind, kKinds[KindIndex(workload[i].kind)]) << label;
    ASSERT_TRUE(records[i].has_explain) << label;
    ExpectExplainCostIsDerived(records[i].explain, responses[i], label);
  }
  for (std::size_t k = 0; k < 3; ++k) {
    ExpectCostDelta(before[k], CostReading::Of("kind", kKinds[k]),
                    count_per_kind[k], per_kind[k], kKinds[k]);
  }
}

TEST(QueryRecordTest, ShardedFlightRecordsAndRollupsEqualQueryStats) {
  constexpr std::uint32_t kShards = 3;
  shard::ShardedEngineConfig config;
  config.engine = SmallConfig();
  config.num_shards = kShards;
  auto sharded = shard::ShardedEngine::Create(config);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE((*sharded)->BulkBuild(Corpus()).ok());
  ArmedRecorder armed;

  std::vector<CostReading> before;
  for (const char* kind : kKinds) before.push_back(CostReading::Of("kind", kind));
  std::vector<CostReading> shards_before;
  for (std::uint32_t i = 0; i < kShards; ++i) {
    shards_before.push_back(CostReading::Of("shard", std::to_string(i)));
  }

  // Each leg completes through the fan-out service and is captured on its
  // own; a query's legs sum to the stats the fan-out returns.
  std::vector<QueryStats> per_kind(3);
  std::vector<std::uint64_t> count_per_kind(3, 0);
  QueryStats all;
  const std::vector<service::QueryRequest> workload = MixedWorkload();
  for (std::size_t q = 0; q < workload.size(); ++q) {
    const service::QueryRequest& request = workload[q];
    const std::string label = "query " + std::to_string(q);
    obs::FlightRecorder::Global().Clear();
    QueryStats stats;
    Result<std::vector<Match>> matches = Status::Internal("not run");
    switch (request.kind) {
      case service::QueryKind::kRange:
        matches = (*sharded)->RangeQuery(request.query, request.eps, {}, &stats);
        break;
      case service::QueryKind::kKnn:
        matches = (*sharded)->Knn(request.query, request.k, {}, &stats);
        break;
      case service::QueryKind::kLongRange:
        matches =
            (*sharded)->LongRangeQuery(request.query, request.eps, {}, &stats);
        break;
    }
    ASSERT_TRUE(matches.ok()) << label << ": " << matches.status();

    const std::vector<obs::FlightRecord> records =
        obs::FlightRecorder::Global().Snapshot();
    ASSERT_EQ(records.size(), kShards) << label;
    std::vector<obs::ExplainReport> legs;
    for (const obs::FlightRecord& record : records) {
      EXPECT_EQ(record.kind, kKinds[KindIndex(request.kind)]) << label;
      ASSERT_TRUE(record.has_explain) << label;
      legs.push_back(record.explain);
    }
    ExpectExplainCostIsDerived(obs::MergeExplainReports(legs), stats, label);
    AddStats(stats, &per_kind[KindIndex(request.kind)]);
    count_per_kind[KindIndex(request.kind)] += kShards;
    AddStats(stats, &all);
  }

  for (std::size_t k = 0; k < 3; ++k) {
    ExpectCostDelta(before[k], CostReading::Of("kind", kKinds[k]),
                    count_per_kind[k], per_kind[k], kKinds[k]);
  }
  // Every leg also lands under its shard label, once per query.
  std::uint64_t shard_cpu_us = 0;
  std::uint64_t shard_candidates = 0;
  for (std::uint32_t i = 0; i < kShards; ++i) {
    const CostReading after = CostReading::Of("shard", std::to_string(i));
    EXPECT_EQ(after.cpu_count - shards_before[i].cpu_count, workload.size());
    shard_cpu_us += after.cpu_sum_us - shards_before[i].cpu_sum_us;
    shard_candidates += after.candidates - shards_before[i].candidates;
  }
  EXPECT_EQ(shard_cpu_us, all.cpu_us);
  EXPECT_EQ(shard_candidates, all.candidates);
}

TEST(QueryRecordTest, FailedShardLegsAddNoCostSamples) {
  constexpr std::uint32_t kShards = 2;
  shard::ShardedEngineConfig config;
  config.engine = SmallConfig();
  config.num_shards = kShards;
  auto sharded = shard::ShardedEngine::Create(config);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE((*sharded)->BulkBuild(Corpus()).ok());
  auto counts = [&] {
    std::vector<std::uint64_t> out;
    for (std::uint32_t i = 0; i < kShards; ++i) {
      out.push_back(CostReading::Of("shard", std::to_string(i)).cpu_count);
    }
    return out;
  };

  // Every leg rejects a query of the wrong length; none has stats to roll up.
  const std::vector<std::uint64_t> before = counts();
  auto failed = (*sharded)->RangeQuery(Slice(1, 10, 15), 0.8);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(counts(), before);

  ASSERT_TRUE((*sharded)->RangeQuery(Slice(1, 10, 16), 0.8).ok());
  const std::vector<std::uint64_t> after = counts();
  for (std::uint32_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(after[i], before[i] + 1) << "shard " << i;
  }
}


}  // namespace
}  // namespace tsss::core

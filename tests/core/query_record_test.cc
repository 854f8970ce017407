// One per-query record feeds every surface. A finished query's QueryStats is
// the only place its counts are defined: the registry counters tick by the
// same candidates and matches, the explain report's cost section is the cost
// derived from those stats, and the report's own I/O rows agree with it.
// A query that fails ticks no counter and writes no stats. The shard
// fan-out's stats, the sum of its legs' records, obey the same derivation.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/common/exec_control.h"
#include "tsss/core/engine.h"
#include "tsss/obs/metrics.h"
#include "tsss/seq/stock_generator.h"
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

/// The explain report's cost section is the cost derived from the query's
/// stats, and its own I/O and funnel rows agree with that cost.
void ExpectExplainCostIsDerived(const obs::ExplainReport& r,
                                const QueryStats& stats,
                                const std::string& label) {
  const obs::QueryCost derived = DeriveQueryCost(stats);
  EXPECT_EQ(r.cost.cpu_us, derived.cpu_us) << label;
  EXPECT_EQ(r.cost.pages_hit, derived.pages_hit) << label;
  EXPECT_EQ(r.cost.pages_miss, derived.pages_miss) << label;
  EXPECT_EQ(r.cost.data_pages, derived.data_pages) << label;
  EXPECT_EQ(r.cost.bytes_touched, derived.bytes_touched) << label;
  EXPECT_EQ(r.cost.candidates_verified, derived.candidates_verified) << label;
  EXPECT_EQ(r.cost.pages_hit, r.index_page_hits) << label;
  EXPECT_EQ(r.cost.pages_miss, r.index_page_misses) << label;
  EXPECT_EQ(r.cost.data_pages, r.data_page_reads) << label;
  EXPECT_EQ(r.cost.candidates_verified, r.candidates) << label;
  EXPECT_EQ(r.cost.bytes_touched,
            (r.index_page_reads + r.data_page_reads) * storage::kPageSize)
      << label;
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
  // costs; derivation is linear, so the two must still agree exactly.
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

}  // namespace
}  // namespace tsss::core

// ShardedEngine correctness: every sharded answer must be bit-identical to
// the single-engine oracle over the same corpus (range, k-NN, long-range),
// the summed per-shard explain waterfall must still satisfy the
// explain_accounted() identity, and a persisted sharded index must survive a
// Checkpoint/Open round trip — including rejecting tampered shard maps.

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/common/exec_control.h"
#include "tsss/common/rng.h"
#include "tsss/core/engine.h"
#include "tsss/obs/explain.h"
#include "tsss/seq/stock_generator.h"
#include "tsss/seq/window.h"
#include "tsss/shard/sharded_engine.h"

namespace tsss::shard {
namespace {

constexpr std::size_t kWindow = 16;

core::EngineConfig SmallEngineConfig() {
  core::EngineConfig config;
  config.window = kWindow;
  config.reduced_dim = 4;
  config.tree.max_entries = 8;
  config.buffer_pool_pages = 64;
  config.cold_cache_per_query = false;
  return config;
}

std::vector<seq::TimeSeries> MakeCorpus(std::size_t companies = 16,
                                        std::size_t values = 256) {
  seq::StockMarketConfig market;
  market.num_companies = companies;
  market.values_per_company = values;
  market.seed = 4242;
  return seq::GenerateStockMarket(market);
}

std::unique_ptr<core::SearchEngine> MakeOracle(
    const std::vector<seq::TimeSeries>& corpus) {
  auto engine = core::SearchEngine::Create(SmallEngineConfig());
  EXPECT_TRUE(engine.ok());
  for (const seq::TimeSeries& series : corpus) {
    EXPECT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
  }
  return std::move(engine).value();
}

std::unique_ptr<ShardedEngine> MakeSharded(
    const std::vector<seq::TimeSeries>& corpus, std::uint32_t shards,
    ShardScheme scheme = ShardScheme::kHash) {
  ShardedEngineConfig config;
  config.engine = SmallEngineConfig();
  config.num_shards = shards;
  config.scheme = scheme;
  auto sharded = ShardedEngine::Create(config);
  EXPECT_TRUE(sharded.ok());
  EXPECT_TRUE((*sharded)->BulkBuild(corpus).ok());
  return std::move(sharded).value();
}

/// Bit-identical: same records in the same order with the exact same
/// distances and transforms (the verification arithmetic runs on the same
/// window bytes either way, so == is the right comparison, not near).
void ExpectBitIdentical(const Result<std::vector<core::Match>>& got,
                        const Result<std::vector<core::Match>>& oracle,
                        const std::string& label) {
  ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
  ASSERT_TRUE(oracle.ok()) << label << ": " << oracle.status().ToString();
  ASSERT_EQ(got->size(), oracle->size()) << label;
  for (std::size_t i = 0; i < oracle->size(); ++i) {
    EXPECT_EQ((*got)[i].record, (*oracle)[i].record) << label << " #" << i;
    EXPECT_EQ((*got)[i].series, (*oracle)[i].series) << label << " #" << i;
    EXPECT_EQ((*got)[i].offset, (*oracle)[i].offset) << label << " #" << i;
    EXPECT_EQ((*got)[i].distance, (*oracle)[i].distance) << label << " #" << i;
    EXPECT_EQ((*got)[i].transform.scale, (*oracle)[i].transform.scale)
        << label << " #" << i;
    EXPECT_EQ((*got)[i].transform.offset, (*oracle)[i].transform.offset)
        << label << " #" << i;
  }
}

TEST(ShardedEngineTest, RangeQueriesBitIdenticalToSingleEngine) {
  const auto corpus = MakeCorpus();
  auto oracle = MakeOracle(corpus);
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    auto sharded = MakeSharded(corpus, shards);
    EXPECT_EQ(sharded->num_indexed_windows(),
              oracle->num_indexed_windows());
    Rng rng(99);
    for (std::size_t q = 0; q < 12; ++q) {
      auto window = oracle->ReadWindow(
          seq::MakeRecordId(static_cast<storage::SeriesId>(q % corpus.size()),
                            static_cast<std::uint32_t>((q * 17) % 128)));
      ASSERT_TRUE(window.ok());
      for (double& v : *window) v += rng.Uniform(-0.5, 0.5);
      const double eps = 4.0 + rng.Uniform(0.0, 4.0);
      ExpectBitIdentical(sharded->RangeQuery(*window, eps),
                         oracle->RangeQuery(*window, eps),
                         "range shards=" + std::to_string(shards) + " q=" +
                             std::to_string(q));
    }
  }
}

TEST(ShardedEngineTest, KnnBitIdenticalToSingleEngine) {
  const auto corpus = MakeCorpus();
  auto oracle = MakeOracle(corpus);
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    auto sharded = MakeSharded(corpus, shards);
    for (std::size_t q = 0; q < 12; ++q) {
      auto window = oracle->ReadWindow(
          seq::MakeRecordId(static_cast<storage::SeriesId>(q % corpus.size()),
                            static_cast<std::uint32_t>((q * 31) % 128)));
      ASSERT_TRUE(window.ok());
      const std::size_t k = 1 + q % 9;
      ExpectBitIdentical(sharded->Knn(*window, k), oracle->Knn(*window, k),
                         "knn shards=" + std::to_string(shards) + " k=" +
                             std::to_string(k));
    }
  }
}

TEST(ShardedEngineTest, KnnEdgeCases) {
  const auto corpus = MakeCorpus(4, 64);
  auto oracle = MakeOracle(corpus);
  auto sharded = MakeSharded(corpus, 4);
  auto window = oracle->ReadWindow(seq::MakeRecordId(0, 0));
  ASSERT_TRUE(window.ok());

  // k == 0 is an empty answer, k beyond the corpus returns everything.
  ExpectBitIdentical(sharded->Knn(*window, 0), oracle->Knn(*window, 0),
                     "knn k=0");
  ExpectBitIdentical(sharded->Knn(*window, 100000),
                     oracle->Knn(*window, 100000), "knn k=all");

  // Self-match anchor: the window itself is its own nearest neighbour at
  // (numerically) zero distance — a = 1, b = 0 is admissible.
  auto self = sharded->Knn(*window, 1);
  ASSERT_TRUE(self.ok());
  ASSERT_EQ(self->size(), 1u);
  EXPECT_EQ((*self)[0].record, seq::MakeRecordId(0, 0));
  EXPECT_NEAR((*self)[0].distance, 0.0, 1e-9);
}

TEST(ShardedEngineTest, LongRangeBitIdenticalToSingleEngine) {
  const auto corpus = MakeCorpus();
  auto oracle = MakeOracle(corpus);
  for (const std::uint32_t shards : {2u, 4u}) {
    auto sharded = MakeSharded(corpus, shards);
    Rng rng(7);
    for (std::size_t q = 0; q < 8; ++q) {
      const auto series = static_cast<storage::SeriesId>(q % corpus.size());
      geom::Vec query(3 * kWindow);
      for (std::size_t j = 0; j < query.size(); ++j) {
        query[j] = corpus[series].values[(q * 11) % 64 + j];
      }
      const double eps = 8.0 + rng.Uniform(0.0, 8.0);
      ExpectBitIdentical(sharded->LongRangeQuery(query, eps),
                         oracle->LongRangeQuery(query, eps),
                         "long shards=" + std::to_string(shards) + " q=" +
                             std::to_string(q));
    }
  }
}

TEST(ShardedEngineTest, MergedExplainWaterfallStaysAccounted) {
  const auto corpus = MakeCorpus();
  auto oracle = MakeOracle(corpus);
  auto sharded = MakeSharded(corpus, 4);
  auto window = oracle->ReadWindow(seq::MakeRecordId(3, 40));
  ASSERT_TRUE(window.ok());

  core::QueryStats stats;
  auto matches = sharded->RangeQuery(*window, 6.0, {}, &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(stats.matches, matches->size());

  auto merged = sharded->ExplainLast();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(obs::explain_accounted(*merged));
  EXPECT_EQ(merged->kind, "range");
  EXPECT_EQ(merged->matches, matches->size());
  EXPECT_EQ(merged->entries_tested, stats.telemetry.entries_tested);
  // The merged report covers the whole partitioned index.
  EXPECT_EQ(merged->indexed_windows, sharded->num_indexed_windows());

  // Same identity for the k-NN and long-range walks.
  ASSERT_TRUE(sharded->Knn(*window, 5).ok());
  merged = sharded->ExplainLast();
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(obs::explain_accounted(*merged));
  EXPECT_EQ(merged->kind, "knn");

  geom::Vec long_query(3 * kWindow);
  for (std::size_t j = 0; j < long_query.size(); ++j) {
    long_query[j] = corpus[1].values[j];
  }
  ASSERT_TRUE(sharded->LongRangeQuery(long_query, 10.0).ok());
  merged = sharded->ExplainLast();
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(obs::explain_accounted(*merged));
  EXPECT_EQ(merged->kind, "long_range");
}

TEST(ShardedEngineTest, StatsSumAcrossShardsMatchSingleEngineCandidates) {
  const auto corpus = MakeCorpus();
  auto oracle = MakeOracle(corpus);
  auto sharded = MakeSharded(corpus, 4);
  auto window = oracle->ReadWindow(seq::MakeRecordId(5, 20));
  ASSERT_TRUE(window.ok());

  core::QueryStats sharded_stats;
  core::QueryStats oracle_stats;
  ASSERT_TRUE(sharded->RangeQuery(*window, 6.0, {}, &sharded_stats).ok());
  ASSERT_TRUE(oracle->RangeQuery(*window, 6.0, {}, &oracle_stats).ok());
  EXPECT_EQ(sharded_stats.matches, oracle_stats.matches);
  // Trees differ in shape, but the verified-candidate funnel is a property
  // of the indexed set + reducer, not the partitioning: every window within
  // reach of the query line is expanded exactly once either way.
  EXPECT_EQ(sharded_stats.candidates, oracle_stats.candidates);
}

TEST(ShardedEngineTest, EmptyAndUnevenShardsAnswerCorrectly) {
  // 2 series over 4 shards: at least two shards are empty.
  const auto corpus = MakeCorpus(2, 128);
  auto oracle = MakeOracle(corpus);
  auto sharded = MakeSharded(corpus, 4, ShardScheme::kRoundRobin);
  auto window = oracle->ReadWindow(seq::MakeRecordId(1, 10));
  ASSERT_TRUE(window.ok());
  ExpectBitIdentical(sharded->RangeQuery(*window, 8.0),
                     oracle->RangeQuery(*window, 8.0), "range empty-shards");
  ExpectBitIdentical(sharded->Knn(*window, 6), oracle->Knn(*window, 6),
                     "knn empty-shards");
}

TEST(ShardedEngineTest, AddSeriesRoutesThroughShardMap) {
  const auto corpus = MakeCorpus(6, 128);
  auto oracle = MakeOracle(corpus);
  ShardedEngineConfig config;
  config.engine = SmallEngineConfig();
  config.num_shards = 3;
  auto sharded = ShardedEngine::Create(config);
  ASSERT_TRUE(sharded.ok());
  for (std::size_t g = 0; g < corpus.size(); ++g) {
    auto id = (*sharded)->AddSeries(corpus[g].name, corpus[g].values);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, g);  // global ids follow insertion order
  }
  EXPECT_EQ((*sharded)->total_series(), corpus.size());

  auto window = oracle->ReadWindow(seq::MakeRecordId(2, 30));
  ASSERT_TRUE(window.ok());
  ExpectBitIdentical((*sharded)->RangeQuery(*window, 6.0),
                     oracle->RangeQuery(*window, 6.0), "range add-series");

  // The global directory resolves names and values across shards.
  for (std::size_t g = 0; g < corpus.size(); ++g) {
    auto name = (*sharded)->SeriesName(static_cast<storage::SeriesId>(g));
    ASSERT_TRUE(name.ok());
    EXPECT_EQ(*name, corpus[g].name);
    auto found = (*sharded)->FindSeries(corpus[g].name);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(*found, g);
  }
}

class ShardedPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/tsss_sharded_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ShardedPersistenceTest, CheckpointOpenRoundTripsAnswers) {
  const auto corpus = MakeCorpus(8, 128);
  auto oracle = MakeOracle(corpus);
  ShardedEngineConfig config;
  config.engine = SmallEngineConfig();
  config.engine.storage_dir = dir_;
  config.num_shards = 3;
  auto built = ShardedEngine::Create(config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->BulkBuild(corpus).ok());
  ASSERT_TRUE((*built)->Checkpoint().ok());
  built->reset();

  // The shard map sits next to the per-shard engine metadata.
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/shard_map.tsss"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/shard-0/engine.meta"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/shard-2/engine.meta"));

  auto reopened = ShardedEngine::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_shards(), 3u);
  EXPECT_EQ((*reopened)->total_series(), corpus.size());
  // The facade's logical config comes back from the shards' engine.meta
  // (tools resolve query windows through it).
  EXPECT_EQ((*reopened)->engine_config().window, kWindow);
  EXPECT_EQ((*reopened)->engine_config().storage_dir, dir_);

  auto window = oracle->ReadWindow(seq::MakeRecordId(4, 50));
  ASSERT_TRUE(window.ok());
  ExpectBitIdentical((*reopened)->RangeQuery(*window, 6.0),
                     oracle->RangeQuery(*window, 6.0), "range reopened");
  ExpectBitIdentical((*reopened)->Knn(*window, 4), oracle->Knn(*window, 4),
                     "knn reopened");
}

TEST_F(ShardedPersistenceTest, OpenRejectsTamperedShardMap) {
  const auto corpus = MakeCorpus(6, 64);
  ShardedEngineConfig config;
  config.engine = SmallEngineConfig();
  config.engine.storage_dir = dir_;
  config.num_shards = 2;
  auto built = ShardedEngine::Create(config);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->BulkBuild(corpus).ok());
  ASSERT_TRUE((*built)->Checkpoint().ok());
  built->reset();

  // Hostile rewrite: a map that disagrees with the shard datasets (all six
  // series claimed by shard 0) must be caught, not silently mis-routed.
  {
    std::ofstream out(dir_ + "/shard_map.tsss", std::ios::trunc);
    out << "tsss-shard-map-v1\nshards 2\nscheme 0\nseries 6\n"
           "0 0 0\n1 0 1\n2 0 2\n3 0 3\n4 0 4\n5 0 5\n";
  }
  auto reopened = ShardedEngine::Open(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);

  // Outright garbage fails in the parser with the same clean status.
  {
    std::ofstream out(dir_ + "/shard_map.tsss", std::ios::trunc);
    out << "not a shard map";
  }
  reopened = ShardedEngine::Open(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);

  // A missing map is NotFound (distinct from corruption: nothing to trust).
  std::filesystem::remove(dir_ + "/shard_map.tsss");
  reopened = ShardedEngine::Open(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotFound);
}

TEST(ShardedEngineTest, RejectsZeroShards) {
  ShardedEngineConfig config;
  config.engine = SmallEngineConfig();
  config.num_shards = 0;
  auto sharded = ShardedEngine::Create(config);
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedEngineTest, FanoutPoolCountsSubQueries) {
  const auto corpus = MakeCorpus(4, 64);
  auto sharded = MakeSharded(corpus, 4);
  auto window = sharded->SeriesValues(0);
  ASSERT_TRUE(window.ok());
  ASSERT_TRUE(sharded->RangeQuery(window->subspan(0, kWindow), 5.0).ok());
  const service::ServiceMetrics metrics = sharded->FanoutStats();
  // One logical query = one sub-query per shard.
  EXPECT_EQ(metrics.submitted, 4u);
  EXPECT_EQ(metrics.served, 4u);
  EXPECT_EQ(metrics.rejected, 0u);

  // Per-shard pool hit rates are exposed for the scaling benchmark.
  const std::vector<ShardInfo> infos = sharded->ShardInfos();
  ASSERT_EQ(infos.size(), 4u);
  for (const ShardInfo& info : infos) {
    EXPECT_GE(info.pool_hit_rate, 0.0);
    EXPECT_LE(info.pool_hit_rate, 1.0);
  }
}

TEST(ShardedEngineTest, CancelledCallerIsNotAdmitted) {
  const auto corpus = MakeCorpus(4, 64);
  auto sharded = MakeSharded(corpus, 4);
  auto window = sharded->SeriesValues(0);
  ASSERT_TRUE(window.ok());
  ExecControl control;
  control.RequestCancel();
  {
    ScopedExecControl scoped(&control);
    auto result = sharded->RangeQuery(window->subspan(0, kWindow), 5.0);
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status();
  }
  // The fan-out stopped before admission: no sub-query reached the queue.
  EXPECT_EQ(sharded->FanoutStats().submitted, 0u);
}

}  // namespace
}  // namespace tsss::shard

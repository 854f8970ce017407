// Multi-shard concurrency stress: many client threads drive mixed Range /
// k-NN / LongRange queries through one ShardedEngine (4 shards, 8 fan-out
// workers), and every answer is cross-checked against a single-engine
// oracle computed single-threaded up front. Concurrent fan-outs interleave
// sub-queries from different logical queries on the same worker pool and
// share k-NN bounds only *within* a logical query — any cross-query bleed
// or data race shows up as a wrong answer here (and the CI TSan job runs
// this file under -fsanitize=thread).

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/core/engine.h"
#include "tsss/seq/stock_generator.h"
#include "tsss/seq/window.h"
#include "tsss/shard/sharded_engine.h"

namespace tsss::shard {
namespace {

constexpr std::size_t kWindow = 16;
constexpr std::size_t kNumQueries = 96;
constexpr std::uint32_t kShards = 4;
constexpr std::size_t kFanoutWorkers = 8;
constexpr std::size_t kClients = 8;

struct StressQuery {
  service::QueryKind kind = service::QueryKind::kRange;
  geom::Vec query;
  double eps = 0.0;
  std::size_t k = 0;
};

core::EngineConfig StressEngineConfig() {
  core::EngineConfig config;
  config.window = kWindow;
  config.reduced_dim = 4;
  config.tree.max_entries = 8;
  // Small enough that concurrent sub-queries contend on eviction inside
  // each shard's private pool.
  config.buffer_pool_pages = 64;
  config.cold_cache_per_query = false;
  return config;
}

std::vector<seq::TimeSeries> StressCorpus() {
  seq::StockMarketConfig market;
  market.num_companies = 16;
  market.values_per_company = 256;
  market.seed = 4242;
  return seq::GenerateStockMarket(market);
}

std::vector<StressQuery> MakeWorkload(const core::SearchEngine& oracle) {
  Rng rng(1234);
  std::vector<StressQuery> workload;
  workload.reserve(kNumQueries);
  const std::size_t num_series = oracle.dataset().size();
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    const auto series = static_cast<storage::SeriesId>(i % num_series);
    const auto offset = static_cast<std::uint32_t>((i * 13) % 128);
    StressQuery q;
    switch (i % 3) {
      case 0: {
        q.kind = service::QueryKind::kRange;
        auto window = oracle.ReadWindow(seq::MakeRecordId(series, offset));
        EXPECT_TRUE(window.ok());
        q.query = *window;
        for (double& v : q.query) v += rng.Uniform(-0.5, 0.5);
        q.eps = 4.0 + rng.Uniform(0.0, 4.0);
        break;
      }
      case 1: {
        q.kind = service::QueryKind::kKnn;
        auto window = oracle.ReadWindow(seq::MakeRecordId(series, offset));
        EXPECT_TRUE(window.ok());
        q.query = *window;
        q.k = 1 + i % 7;
        break;
      }
      default: {
        q.kind = service::QueryKind::kLongRange;
        geom::Vec query(3 * kWindow);
        auto values = oracle.dataset().Values(series);
        EXPECT_TRUE(values.ok());
        for (std::size_t j = 0; j < query.size(); ++j) {
          query[j] = (*values)[offset + j];
        }
        q.query = std::move(query);
        q.eps = 8.0 + rng.Uniform(0.0, 8.0);
        break;
      }
    }
    workload.push_back(std::move(q));
  }
  return workload;
}

Result<std::vector<core::Match>> RunOnOracle(const core::SearchEngine& oracle,
                                             const StressQuery& q) {
  switch (q.kind) {
    case service::QueryKind::kRange:
      return oracle.RangeQuery(q.query, q.eps);
    case service::QueryKind::kKnn:
      return oracle.Knn(q.query, q.k);
    case service::QueryKind::kLongRange:
      return oracle.LongRangeQuery(q.query, q.eps);
  }
  return Status::InvalidArgument("unknown kind");
}

Result<std::vector<core::Match>> RunOnSharded(const ShardedEngine& sharded,
                                              const StressQuery& q) {
  switch (q.kind) {
    case service::QueryKind::kRange:
      return sharded.RangeQuery(q.query, q.eps);
    case service::QueryKind::kKnn:
      return sharded.Knn(q.query, q.k);
    case service::QueryKind::kLongRange:
      return sharded.LongRangeQuery(q.query, q.eps);
  }
  return Status::InvalidArgument("unknown kind");
}

TEST(ShardStressTest, ConcurrentMixedWorkloadMatchesSingleEngineOracle) {
  const auto corpus = StressCorpus();

  auto oracle_engine = core::SearchEngine::Create(StressEngineConfig());
  ASSERT_TRUE(oracle_engine.ok());
  for (const seq::TimeSeries& series : corpus) {
    ASSERT_TRUE((*oracle_engine)->AddSeries(series.name, series.values).ok());
  }
  const std::vector<StressQuery> workload = MakeWorkload(**oracle_engine);

  // Single-threaded oracle answers, computed before any concurrency exists.
  std::vector<Result<std::vector<core::Match>>> oracle;
  oracle.reserve(workload.size());
  for (const StressQuery& q : workload) {
    oracle.push_back(RunOnOracle(**oracle_engine, q));
  }

  ShardedEngineConfig config;
  config.engine = StressEngineConfig();
  config.num_shards = kShards;
  config.fanout_workers = kFanoutWorkers;
  auto sharded = ShardedEngine::Create(config);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE((*sharded)->BulkBuild(corpus).ok());

  // kClients threads hammer the sharded engine concurrently, each over a
  // strided slice of the workload, twice (the second pass runs against a
  // warm pool and interleaves with first-pass stragglers).
  std::vector<std::vector<Result<std::vector<core::Match>>>> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &got, &workload, &sharded] {
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = c; i < workload.size(); i += kClients) {
          got[c].push_back(RunOnSharded(**sharded, workload[i]));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    std::size_t slot = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = c; i < workload.size(); i += kClients, ++slot) {
        const auto& want = oracle[i];
        const auto& have = got[c][slot];
        ASSERT_TRUE(want.ok()) << "oracle query " << i;
        ASSERT_TRUE(have.ok())
            << "query " << i << ": " << have.status().ToString();
        ASSERT_EQ(have->size(), want->size()) << "query " << i;
        for (std::size_t m = 0; m < want->size(); ++m) {
          EXPECT_EQ((*have)[m].record, (*want)[m].record)
              << "query " << i << " match " << m;
          EXPECT_EQ((*have)[m].distance, (*want)[m].distance)
              << "query " << i << " match " << m;
        }
      }
    }
  }

  // Every sub-query was admitted (possibly after ScatterGather retries) and served.
  const service::ServiceMetrics metrics = (*sharded)->FanoutStats();
  EXPECT_EQ(metrics.served, 2 * workload.size() * kShards);
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_EQ(metrics.timed_out, 0u);

  // No pin leaked and no frame corrupted in any shard's private pool.
  for (std::uint32_t i = 0; i < (*sharded)->num_shards(); ++i) {
    EXPECT_TRUE((*sharded)->shard(i).pool().AuditPins().ok());
  }
}

TEST(ShardStressTest, RepeatedRoundsKeepShardPoolsConsistent) {
  const auto corpus = StressCorpus();
  auto oracle_engine = core::SearchEngine::Create(StressEngineConfig());
  ASSERT_TRUE(oracle_engine.ok());
  for (const seq::TimeSeries& series : corpus) {
    ASSERT_TRUE((*oracle_engine)->AddSeries(series.name, series.values).ok());
  }
  const std::vector<StressQuery> workload = MakeWorkload(**oracle_engine);

  // The engine (and its fan-out pool) is torn down and rebuilt each round
  // while clients are strictly scoped inside the round: destructor-ordering
  // and shutdown races surface here.
  for (int round = 0; round < 3; ++round) {
    ShardedEngineConfig config;
    config.engine = StressEngineConfig();
    config.num_shards = kShards;
    config.fanout_workers = 4;
    auto sharded = ShardedEngine::Create(config);
    ASSERT_TRUE(sharded.ok());
    ASSERT_TRUE((*sharded)->BulkBuild(corpus).ok());

    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 4; ++c) {
      clients.emplace_back([c, &workload, &sharded] {
        for (std::size_t i = c; i < workload.size(); i += 4) {
          EXPECT_TRUE(RunOnSharded(**sharded, workload[i]).ok());
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (std::uint32_t i = 0; i < (*sharded)->num_shards(); ++i) {
      EXPECT_TRUE((*sharded)->shard(i).pool().AuditPins().ok());
    }
  }
}

}  // namespace
}  // namespace tsss::shard

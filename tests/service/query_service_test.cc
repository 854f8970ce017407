#include "tsss/service/query_service.h"

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/common/exec_control.h"
#include "tsss/seq/stock_generator.h"

namespace tsss::service {
namespace {

using std::chrono::milliseconds;

core::EngineConfig SmallEngineConfig() {
  core::EngineConfig config;
  config.window = 16;
  config.reduced_dim = 4;
  config.tree.max_entries = 8;
  config.buffer_pool_pages = 256;
  return config;
}

std::unique_ptr<core::SearchEngine> MakeEngine(std::size_t companies = 12,
                                               std::size_t length = 200) {
  auto engine = core::SearchEngine::Create(SmallEngineConfig());
  EXPECT_TRUE(engine.ok());
  seq::StockMarketConfig market;
  market.num_companies = companies;
  market.values_per_company = length;
  market.seed = 7;
  for (const seq::TimeSeries& series : seq::GenerateStockMarket(market)) {
    EXPECT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
  }
  return std::move(engine).value();
}

QueryRequest RangeRequest(const core::SearchEngine& engine, double eps = 5.0) {
  QueryRequest request;
  request.kind = QueryKind::kRange;
  // Query with the first indexed window so at least the self-match exists.
  auto window = engine.ReadWindow(0);
  EXPECT_TRUE(window.ok());
  request.query = *window;
  request.eps = eps;
  return request;
}

TEST(QueryServiceCreateTest, ValidatesConfig) {
  auto engine = MakeEngine();
  ServiceConfig config;
  config.num_workers = 0;
  EXPECT_FALSE(QueryService::Create(engine.get(), config).ok());
  config = ServiceConfig{};
  config.queue_capacity = 0;
  EXPECT_FALSE(QueryService::Create(engine.get(), config).ok());
  EXPECT_FALSE(QueryService::Create(nullptr, ServiceConfig{}).ok());
  EXPECT_TRUE(QueryService::Create(engine.get(), ServiceConfig{}).ok());
}

TEST(QueryServiceCreateTest, DisablesColdCachePerQuery) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->config().cold_cache_per_query);
  auto service = QueryService::Create(engine.get(), ServiceConfig{});
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE(engine->config().cold_cache_per_query);
}

TEST(QueryServiceTest, ServesRangeQueryMatchingDirectCall) {
  auto engine = MakeEngine();
  QueryRequest request = RangeRequest(*engine);

  engine->set_cold_cache_per_query(false);
  core::QueryStats direct_stats;
  auto direct = engine->RangeQuery(request.query, request.eps, request.cost,
                                   &direct_stats);
  ASSERT_TRUE(direct.ok());

  auto service = QueryService::Create(engine.get(), ServiceConfig{});
  ASSERT_TRUE(service.ok());
  auto future = (*service)->Submit(request);
  ASSERT_TRUE(future.ok());
  QueryResponse response = future->get();
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.matches.size(), direct->size());
  for (std::size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(response.matches[i].record, (*direct)[i].record);
    EXPECT_DOUBLE_EQ(response.matches[i].distance, (*direct)[i].distance);
  }
  EXPECT_EQ(response.stats.matches, direct_stats.matches);
  EXPECT_EQ(response.stats.candidates, direct_stats.candidates);
  EXPECT_GT(response.latency.count(), 0);

  ServiceMetrics metrics = (*service)->Stats();
  EXPECT_EQ(metrics.submitted, 1u);
  EXPECT_EQ(metrics.served, 1u);
  EXPECT_EQ(metrics.rejected, 0u);
}

TEST(QueryServiceTest, FeedsRollingWindowAndWindowedStats) {
  auto engine = MakeEngine();
  auto service = QueryService::Create(engine.get(), ServiceConfig{});
  ASSERT_TRUE(service.ok());
  QueryRequest request = RangeRequest(*engine);
  for (int i = 0; i < 5; ++i) {
    auto future = (*service)->Submit(request);
    ASSERT_TRUE(future.ok());
    EXPECT_TRUE(future->get().status.ok());
  }
  // Every completion lands in the service's rolling window; Stats() mirrors
  // the trailing minute next to the cumulative counters.
  const ServiceMetrics metrics = (*service)->Stats();
  EXPECT_EQ(metrics.last_minute.count, 5u);
  EXPECT_EQ(metrics.last_minute.errors, 0u);
  EXPECT_DOUBLE_EQ(metrics.last_minute.availability(), 1.0);
  EXPECT_GT(metrics.last_minute.p50_ms, 0.0);
  EXPECT_EQ((*service)->rolling().Window(60'000'000).count, 5u);
}

TEST(QueryServiceTest, RejectsWhenQueueFull) {
  auto engine = MakeEngine();
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 2;
  auto service = QueryService::Create(engine.get(), config);
  ASSERT_TRUE(service.ok());

  // Stall the single worker with a request whose ExecControl deadline can
  // never fire, then fill the queue behind it.
  QueryRequest request = RangeRequest(*engine);
  std::vector<std::future<QueryResponse>> accepted;
  std::size_t rejected = 0;
  for (int i = 0; i < 32; ++i) {
    auto future = (*service)->Submit(request);
    if (future.ok()) {
      accepted.push_back(std::move(future).value());
    } else {
      EXPECT_EQ(future.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  // With capacity 2 and one worker, at most 3 requests can be in the system
  // untouched (1 running + 2 queued); queries are fast, so the worker may
  // drain some, but 32 back-to-back submissions must overflow at least once.
  EXPECT_GT(rejected, 0u);
  for (auto& future : accepted) {
    EXPECT_TRUE(future.get().status.ok());
  }
  ServiceMetrics metrics = (*service)->Stats();
  EXPECT_EQ(metrics.rejected, rejected);
  EXPECT_EQ(metrics.submitted, accepted.size());
  EXPECT_EQ(metrics.served, accepted.size());
}

TEST(QueryServiceTest, SubmitBatchIsAllOrNothing) {
  auto engine = MakeEngine();
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 4;
  auto service = QueryService::Create(engine.get(), config);
  ASSERT_TRUE(service.ok());

  std::vector<QueryRequest> big(32, RangeRequest(*engine));
  auto too_big = (*service)->SubmitBatch(std::move(big));
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);

  std::vector<QueryRequest> fits(3, RangeRequest(*engine));
  auto futures = (*service)->SubmitBatch(std::move(fits));
  ASSERT_TRUE(futures.ok());
  ASSERT_EQ(futures->size(), 3u);
  for (auto& future : *futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
}

TEST(QueryServiceTest, ExpiredDeadlineFailsWithDeadlineExceeded) {
  auto engine = MakeEngine();
  ServiceConfig config;
  config.num_workers = 1;
  auto service = QueryService::Create(engine.get(), config);
  ASSERT_TRUE(service.ok());

  // A deadline this short expires before the worker dequeues the request
  // (or during its first node loads); either path must report timeout.
  QueryRequest request = RangeRequest(*engine);
  request.timeout = milliseconds(1);
  std::this_thread::sleep_for(milliseconds(5));  // warm up the clock
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 32; ++i) {
    auto future = (*service)->Submit(request);
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(future).value());
  }
  std::size_t timed_out = 0;
  for (auto& future : futures) {
    QueryResponse response = future.get();
    if (response.status.code() == StatusCode::kDeadlineExceeded) ++timed_out;
  }
  // The first request may finish inside 1ms; the ones queued behind it
  // cannot all do so.
  EXPECT_GT(timed_out, 0u);
  EXPECT_EQ((*service)->Stats().timed_out, timed_out);
}

TEST(QueryServiceTest, DefaultTimeoutAppliesWhenRequestLeavesZero) {
  auto engine = MakeEngine();
  ServiceConfig config;
  config.num_workers = 1;
  config.default_timeout = milliseconds(1);
  auto service = QueryService::Create(engine.get(), config);
  ASSERT_TRUE(service.ok());

  QueryRequest request = RangeRequest(*engine);
  request.timeout = milliseconds(-1);  // explicitly unbounded
  auto unbounded = (*service)->Submit(request);
  ASSERT_TRUE(unbounded.ok());
  EXPECT_TRUE(unbounded->get().status.ok());
}

TEST(QueryServiceTest, ShutdownDrainsInFlightQueries) {
  auto engine = MakeEngine();
  ServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = 64;
  auto service = QueryService::Create(engine.get(), config);
  ASSERT_TRUE(service.ok());

  QueryRequest request = RangeRequest(*engine);
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 24; ++i) {
    auto future = (*service)->Submit(request);
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(future).value());
  }
  (*service)->Shutdown();
  // Every accepted future resolves even though shutdown raced the queue.
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  auto after = (*service)->Submit(request);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
  (*service)->Shutdown();  // idempotent
  EXPECT_EQ((*service)->Stats().queue_depth, 0u);
  EXPECT_TRUE(engine->pool().AuditPins().ok());
}

TEST(QueryServiceTest, InvalidRequestFailsThatQueryOnly) {
  auto engine = MakeEngine();
  auto service = QueryService::Create(engine.get(), ServiceConfig{});
  ASSERT_TRUE(service.ok());

  QueryRequest bad;
  bad.kind = QueryKind::kRange;
  bad.query = geom::Vec(3, 0.0);  // wrong length
  bad.eps = 1.0;
  auto bad_future = (*service)->Submit(bad);
  ASSERT_TRUE(bad_future.ok());
  EXPECT_EQ(bad_future->get().status.code(), StatusCode::kInvalidArgument);

  auto good_future = (*service)->Submit(RangeRequest(*engine));
  ASSERT_TRUE(good_future.ok());
  EXPECT_TRUE(good_future->get().status.ok());

  ServiceMetrics metrics = (*service)->Stats();
  EXPECT_EQ(metrics.failed, 1u);
  EXPECT_EQ(metrics.served, 1u);
}

TEST(LatencyHistogramTest, BucketsAreMonotoneAndAligned) {
  std::uint64_t prev_floor = 0;
  for (std::size_t b = 1; b < obs::LatencyHistogram::kNumBuckets; ++b) {
    const std::uint64_t floor = obs::LatencyHistogram::BucketFloorUs(b);
    EXPECT_GT(floor, prev_floor) << "bucket " << b;
    // The floor of a bucket maps back into that bucket.
    EXPECT_EQ(obs::LatencyHistogram::BucketFor(floor), b);
    prev_floor = floor;
  }
}

TEST(LatencyHistogramTest, PercentilesBracketRecordedValues) {
  obs::LatencyHistogram hist;
  EXPECT_EQ(hist.PercentileMs(0.5), 0.0);  // empty
  for (int i = 0; i < 99; ++i) hist.Record(std::chrono::microseconds(1000));
  hist.Record(std::chrono::microseconds(1u << 20));  // one ~1s outlier
  const double p50 = hist.PercentileMs(0.50);
  const double p99 = hist.PercentileMs(0.99);
  EXPECT_GE(p50, 0.5);
  EXPECT_LE(p50, 1.5);
  EXPECT_GE(p99, p50);
  EXPECT_LT(p99, 1000.0);
  EXPECT_GE(hist.PercentileMs(1.0), 1000.0);
}

}  // namespace
}  // namespace tsss::service

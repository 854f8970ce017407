// Flight-recorder coverage: arming/threshold semantics, ring eviction, the
// rate limiter, the schema-v1 JSON dump, the deterministic service-side
// capture path (check-budget-forced slow query), and an 8-writer stress that
// runs under TSan in CI.

#include "tsss/obs/flight_recorder.h"

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/seq/stock_generator.h"
#include "tsss/service/query_service.h"

namespace tsss::obs {
namespace {

constexpr std::uint64_t kNoRateLimit =
    std::numeric_limits<std::uint64_t>::max();

FlightRecord MakeRecord(const std::string& kind) {
  FlightRecord r;
  r.kind = kind;
  r.outcome = "served";
  r.latency_us = 1234;
  r.explain.cpu_us = 10;
  return r;
}

TEST(FlightRecorderTest, ShouldCaptureFollowsArmingAndThreshold) {
  FlightRecorder recorder;
  // Disarmed: nothing qualifies, not even failures.
  EXPECT_FALSE(recorder.ShouldCapture(1000000, false));

  recorder.Arm(500);
  EXPECT_TRUE(recorder.armed());
  EXPECT_EQ(recorder.threshold_us(), 500u);
  EXPECT_TRUE(recorder.ShouldCapture(500, true));
  EXPECT_FALSE(recorder.ShouldCapture(499, true));
  EXPECT_TRUE(recorder.ShouldCapture(0, false));  // failures always qualify

  recorder.Disarm();
  EXPECT_FALSE(recorder.ShouldCapture(1000000, false));
}

TEST(FlightRecorderTest, RingOverflowEvictsOldest) {
  FlightRecorder recorder(4);
  recorder.Arm(0, kNoRateLimit);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(recorder.MaybeCapture(MakeRecord("range")));
  }
  const std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Ids are 1-based admission order; 1 and 2 were evicted, oldest first.
  EXPECT_EQ(records.front().id, 3u);
  EXPECT_EQ(records.back().id, 6u);
  EXPECT_EQ(recorder.captured(), 6u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(FlightRecorderTest, RateLimiterDropsAndCounts) {
  FlightRecorder recorder;
  recorder.Arm(0, 2);
  int stored = 0;
  for (int i = 0; i < 5; ++i) {
    if (recorder.MaybeCapture(MakeRecord("knn"))) ++stored;
  }
  // 2 per wall-clock second; the loop usually stays inside one window but
  // may straddle a boundary, which admits at most one extra pair.
  EXPECT_GE(stored, 2);
  EXPECT_LE(stored, 4);
  EXPECT_EQ(recorder.captured() + recorder.dropped(), 5u);
  EXPECT_GE(recorder.dropped(), 1u);
}

TEST(FlightRecorderTest, ClearEmptiesRingButKeepsTotals) {
  FlightRecorder recorder;
  recorder.Arm(0, kNoRateLimit);
  ASSERT_TRUE(recorder.MaybeCapture(MakeRecord("range")));
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.captured(), 1u);
  // New captures keep counting from the old total.
  ASSERT_TRUE(recorder.MaybeCapture(MakeRecord("range")));
  EXPECT_EQ(recorder.Snapshot().front().id, 2u);
}

TEST(FlightRecorderTest, DumpJsonEmbedsExplainAndTrace) {
  FlightRecorder recorder(8);
  recorder.Arm(250, kNoRateLimit);

  FlightRecord with_all = MakeRecord("range");
  with_all.has_explain = true;
  with_all.explain.kind = "range";
  with_all.explain.entries_tested = 4;
  with_all.explain.ep_prunes = 4;  // waterfall identity: 4 == 4+0+0+0+0
  with_all.trace_json = "{\"traceEvents\":[]}\n";
  ASSERT_TRUE(recorder.MaybeCapture(std::move(with_all)));
  ASSERT_TRUE(recorder.MaybeCapture(MakeRecord("knn")));  // no explain/trace

  const std::string json = recorder.DumpJson();
  EXPECT_NE(json.find("{\"schema_version\":1,\"report\":\"flight\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"armed\":1,\"threshold_us\":250,\"capacity\":8"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"captured\":2,\"dropped\":0"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"kind\":\"range\""), std::string::npos) << json;
  // The explain document is embedded as a JSON value, not a string.
  EXPECT_NE(json.find("\"explain\":{\"schema_version\":1"), std::string::npos)
      << json;
  // The trailing newline of the embedded trace document is trimmed.
  EXPECT_NE(json.find("\"trace\":{\"traceEvents\":[]}}"), std::string::npos)
      << json;
  // The second record carries neither.
  EXPECT_NE(json.find("\"explain\":null,\"trace\":null"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("\\n{\\\"traceEvents\\\""), std::string::npos) << json;
}

// --- Service-side capture path ---------------------------------------------

core::EngineConfig SmallEngineConfig() {
  core::EngineConfig config;
  config.window = 16;
  config.reduced_dim = 4;
  config.tree.max_entries = 8;
  config.buffer_pool_pages = 256;
  return config;
}

std::unique_ptr<core::SearchEngine> MakeEngine() {
  auto engine = core::SearchEngine::Create(SmallEngineConfig());
  EXPECT_TRUE(engine.ok());
  seq::StockMarketConfig market;
  market.num_companies = 12;
  market.values_per_company = 200;
  market.seed = 7;
  for (const seq::TimeSeries& series : seq::GenerateStockMarket(market)) {
    EXPECT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
  }
  return std::move(engine).value();
}

service::QueryRequest RangeRequest(const core::SearchEngine& engine) {
  service::QueryRequest request;
  request.kind = service::QueryKind::kRange;
  auto window = engine.ReadWindow(0);
  EXPECT_TRUE(window.ok());
  request.query = *window;
  request.eps = 5.0;
  return request;
}

/// RAII guard: tests of the process-wide recorder must leave it disarmed and
/// empty for whatever runs next in this binary.
struct GlobalRecorderGuard {
  GlobalRecorderGuard() { FlightRecorder::Global().Clear(); }
  ~GlobalRecorderGuard() {
    FlightRecorder::Global().Disarm();
    FlightRecorder::Global().Clear();
  }
};

TEST(FlightRecorderServiceTest, CheckBudgetForcesExactlyOneTimedOutCapture) {
  GlobalRecorderGuard guard;
  auto engine = MakeEngine();
  // Threshold far beyond any test query: only not-OK completions qualify.
  FlightRecorder::Global().Arm(60'000'000, kNoRateLimit);

  service::ServiceConfig config;
  config.num_workers = 1;
  auto query_service = service::QueryService::Create(engine.get(), config);
  ASSERT_TRUE(query_service.ok());

  // A healthy query completes OK and is not captured.
  auto ok_future = (*query_service)->Submit(RangeRequest(*engine));
  ASSERT_TRUE(ok_future.ok());
  ASSERT_TRUE(ok_future->get().status.ok());
  EXPECT_TRUE(FlightRecorder::Global().Snapshot().empty());

  // The check budget trips the deadline at the first poll site — a
  // deterministic "slow query" with no wall clock involved.
  service::QueryRequest slow = RangeRequest(*engine);
  slow.check_budget = 1;
  auto slow_future = (*query_service)->Submit(std::move(slow));
  ASSERT_TRUE(slow_future.ok());
  const service::QueryResponse response = slow_future->get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);

  const std::vector<FlightRecord> records =
      FlightRecorder::Global().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, "range");
  EXPECT_EQ(records[0].outcome, "timed_out");
  EXPECT_GT(records[0].latency_us, 0u);
  // The query unwound before the engine filled stats, so the explain totals
  // must match the (empty) telemetry the response actually carries.
  ASSERT_TRUE(records[0].has_explain);
  EXPECT_EQ(records[0].explain.entries_tested,
            response.stats.telemetry.entries_tested);
  EXPECT_TRUE(explain_accounted(records[0].explain));
  // Armed ⇒ the query ran under a trace; the capture carries it.
  EXPECT_NE(records[0].trace_json.find("\"traceEvents\""), std::string::npos);
}

TEST(FlightRecorderServiceTest, CapturedExplainTotalsMatchQueryStats) {
  GlobalRecorderGuard guard;
  auto engine = MakeEngine();
  FlightRecorder::Global().Arm(0, kNoRateLimit);  // capture every completion

  service::ServiceConfig config;
  config.num_workers = 1;
  auto query_service = service::QueryService::Create(engine.get(), config);
  ASSERT_TRUE(query_service.ok());
  auto future = (*query_service)->Submit(RangeRequest(*engine));
  ASSERT_TRUE(future.ok());
  const service::QueryResponse response = future->get();
  ASSERT_TRUE(response.status.ok());

  const std::vector<FlightRecord> records =
      FlightRecorder::Global().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const FlightRecord& record = records[0];
  EXPECT_EQ(record.outcome, "served");
  ASSERT_TRUE(record.has_explain);

  // The explain report is derived from this query's own stats; its totals
  // must agree with the telemetry the response carries, field by field.
  const QueryTelemetry& t = response.stats.telemetry;
  EXPECT_EQ(record.explain.entries_tested, t.entries_tested);
  EXPECT_EQ(record.explain.ep_prunes, t.ep_prunes);
  EXPECT_EQ(record.explain.bs_prunes, t.bs_prunes);
  EXPECT_EQ(record.explain.exact_prunes, t.exact_prunes);
  EXPECT_EQ(record.explain.nodes_visited, t.nodes_visited);
  EXPECT_EQ(record.explain.leaf_candidates, t.leaf_candidates);
  EXPECT_EQ(record.explain.mbr_distance_evals, t.mbr_distance_evals);
  EXPECT_TRUE(explain_accounted(record.explain));

  // The cost figures come from the query's own stats, and the trace
  // produced explain phases.
  const core::QueryStats& stats = response.stats;
  EXPECT_EQ(record.explain.cpu_us, stats.cpu_us);
  EXPECT_EQ(record.explain.index_page_hits, stats.index_page_hits());
  EXPECT_EQ(record.explain.index_page_misses, stats.index_page_misses);
  EXPECT_EQ(record.explain.data_page_reads, stats.data_page_reads);
  EXPECT_EQ(record.explain.bytes_touched,
            stats.total_page_reads() * storage::kPageSize);
  EXPECT_EQ(record.explain.candidates, stats.candidates);
  EXPECT_FALSE(record.explain.phases.empty());
  EXPECT_EQ(record.latency_us,
            static_cast<std::uint64_t>(response.latency.count()));
}

// --- Concurrency (runs under TSan in CI: FlightRecorder*) -------------------

TEST(FlightRecorderStressTest, EightWritersWithConcurrentReaders) {
  FlightRecorder recorder(32);
  recorder.Arm(0, kNoRateLimit);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        FlightRecord r;
        r.kind = "range";
        r.outcome = "served";
        r.latency_us = static_cast<std::uint64_t>(t * kPerThread + i);
        recorder.MaybeCapture(std::move(r));
        if (i % 256 == 0) {
          (void)recorder.Snapshot();
          (void)recorder.DumpJson();
        }
        if (i % 512 == 0) {
          // Re-arm races against writers and the lock-free ShouldCapture.
          recorder.Arm(static_cast<std::uint64_t>(i), kNoRateLimit);
          (void)recorder.ShouldCapture(static_cast<std::uint64_t>(i), true);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Arm() resets the rate window but never the id counter: every admission
  // is still accounted for and ids stay strictly increasing.
  EXPECT_EQ(recorder.captured() + recorder.dropped(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 32u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].id, records[i].id);
  }
}

}  // namespace
}  // namespace tsss::obs

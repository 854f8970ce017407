// Tests of the ST-index style sub-trail mode (EngineConfig::subtrail_len):
// identical answers to point mode and the scan, far fewer index pages, and
// correct dynamic maintenance (append rebuilds the partial tail trail).

#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/core/engine.h"
#include "tsss/core/seq_scan.h"
#include "tsss/seq/stock_generator.h"
#include "tsss/seq/window.h"

namespace tsss::core {
namespace {

using geom::Vec;

EngineConfig TrailConfig(std::size_t subtrail_len) {
  EngineConfig config;
  config.window = 16;
  config.reduced_dim = 4;
  config.tree.max_entries = 8;
  config.buffer_pool_pages = 256;
  config.subtrail_len = subtrail_len;
  return config;
}

std::vector<seq::TimeSeries> Market(std::size_t companies = 12,
                                    std::size_t length = 120) {
  seq::StockMarketConfig mc;
  mc.num_companies = companies;
  mc.values_per_company = length;
  mc.seed = 1234;
  return seq::GenerateStockMarket(mc);
}

TEST(SubtrailTest, RangeQueryMatchesSequentialScan) {
  const auto market = Market();
  auto engine = SearchEngine::Create(TrailConfig(8));
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (const auto& series : market) {
    ASSERT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
  }
  ASSERT_TRUE((*engine)->tree().ValidateInvariants().ok());
  SequentialScanner scanner(&(*engine)->dataset(), 16);

  Rng rng(9);
  for (int q = 0; q < 10; ++q) {
    const std::size_t series = static_cast<std::size_t>(rng.UniformInt(0, 11));
    const std::size_t offset = static_cast<std::size_t>(rng.UniformInt(0, 100));
    Vec query(market[series].values.begin() + static_cast<std::ptrdiff_t>(offset),
              market[series].values.begin() + static_cast<std::ptrdiff_t>(offset + 16));
    for (auto& x : query) x = 1.5 * x + 2.0;
    const double eps = rng.Uniform(0.05, 1.5);

    auto fast = (*engine)->RangeQuery(query, eps);
    auto slow = scanner.RangeQuery(query, eps);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    std::set<index::RecordId> fast_set, slow_set;
    for (const Match& m : *fast) fast_set.insert(m.record);
    for (const Match& m : *slow) slow_set.insert(m.record);
    EXPECT_EQ(fast_set, slow_set) << "query " << q << " eps " << eps;
  }
}

TEST(SubtrailTest, TrailLengthSweepAllAgree) {
  const auto market = Market(8, 100);
  std::set<index::RecordId> reference;
  for (const std::size_t trail : {0u, 1u, 4u, 16u, 64u}) {
    auto engine = SearchEngine::Create(TrailConfig(trail));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->BulkBuild(market).ok());
    const Vec query(market[2].values.begin() + 5,
                    market[2].values.begin() + 21);
    auto matches = (*engine)->RangeQuery(query, 0.8);
    ASSERT_TRUE(matches.ok());
    std::set<index::RecordId> got;
    for (const Match& m : *matches) got.insert(m.record);
    if (trail == 0) {
      reference = got;
    } else {
      EXPECT_EQ(got, reference) << "trail " << trail;
    }
  }
}

TEST(SubtrailTest, IndexIsSmallerAndReadsFewerPages) {
  const auto market = Market(20, 200);
  const Vec query(market[0].values.begin(), market[0].values.begin() + 16);

  std::size_t entries[2];
  std::uint64_t pages[2];
  int i = 0;
  for (const std::size_t trail : {0u, 16u}) {
    auto engine = SearchEngine::Create(TrailConfig(trail));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->BulkBuild(market).ok());
    entries[i] = (*engine)->tree().size();
    QueryStats stats;
    auto matches = (*engine)->RangeQuery(query, 0.2, TransformCost{}, &stats);
    ASSERT_TRUE(matches.ok());
    pages[i] = stats.index_page_reads;
    ++i;
  }
  EXPECT_LT(entries[1], entries[0] / 8) << "trails should shrink the index";
  EXPECT_LT(pages[1], pages[0]) << "trails should cut index page reads";
}

TEST(SubtrailTest, AppendRebuildsPartialTrail) {
  auto engine = SearchEngine::Create(TrailConfig(4));
  ASSERT_TRUE(engine.ok());
  Rng rng(10);
  Vec initial(25);
  for (auto& x : initial) x = rng.Uniform(0, 10);
  auto id = (*engine)->AddSeries("grow", initial);
  ASSERT_TRUE(id.ok());
  // 25 values, window 16 -> windows 0..9 -> trails {0..3},{4..7},{8,9}.
  EXPECT_EQ((*engine)->tree().size(), 3u);

  Vec extra(7);
  for (auto& x : extra) x = rng.Uniform(0, 10);
  ASSERT_TRUE((*engine)->Append(*id, extra).ok());
  // 32 values -> windows 0..16 -> trails {0..3},{4..7},{8..11},{12..15},{16}.
  EXPECT_EQ((*engine)->tree().size(), 5u);
  ASSERT_TRUE((*engine)->tree().ValidateInvariants().ok());

  // Every window, including those spanning the append boundary, is found.
  auto values = (*engine)->dataset().Values(*id);
  ASSERT_TRUE(values.ok());
  for (std::size_t off = 0; off + 16 <= values->size(); off += 3) {
    const Vec query(values->begin() + static_cast<std::ptrdiff_t>(off),
                    values->begin() + static_cast<std::ptrdiff_t>(off + 16));
    auto matches = (*engine)->RangeQuery(query, 1e-9);
    ASSERT_TRUE(matches.ok());
    bool found = false;
    for (const Match& m : *matches) {
      if (m.offset == off) found = true;
    }
    EXPECT_TRUE(found) << "offset " << off;
  }
}

TEST(SubtrailTest, KnnMatchesScan) {
  const auto market = Market(10, 100);
  auto engine = SearchEngine::Create(TrailConfig(8));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BulkBuild(market).ok());
  SequentialScanner scanner(&(*engine)->dataset(), 16);

  Rng rng(11);
  for (int q = 0; q < 5; ++q) {
    const std::size_t series = static_cast<std::size_t>(rng.UniformInt(0, 9));
    Vec query(market[series].values.begin() + 3,
              market[series].values.begin() + 19);
    for (auto& x : query) x *= 1.0 + rng.Uniform(-0.01, 0.01);
    for (const std::size_t k : {1u, 7u}) {
      auto fast = (*engine)->Knn(query, k);
      auto slow = scanner.Knn(query, k);
      ASSERT_TRUE(fast.ok());
      ASSERT_TRUE(slow.ok());
      ASSERT_EQ(fast->size(), slow->size());
      for (std::size_t i = 0; i < fast->size(); ++i) {
        EXPECT_NEAR((*fast)[i].distance, (*slow)[i].distance, 1e-7);
      }
    }
  }
}

TEST(SubtrailTest, LongRangeQueryWorks) {
  auto engine = SearchEngine::Create(TrailConfig(8));
  ASSERT_TRUE(engine.ok());
  Rng rng(12);
  Vec values(150);
  for (auto& x : values) x = rng.Uniform(0, 20);
  ASSERT_TRUE((*engine)->AddSeries("s", values).ok());

  const Vec query(values.begin() + 40, values.begin() + 88);  // length 48
  auto matches = (*engine)->LongRangeQuery(query, 1e-9);
  ASSERT_TRUE(matches.ok());
  bool found = false;
  for (const Match& m : *matches) {
    if (m.offset == 40) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SubtrailTest, RemoveWindowRejected) {
  auto engine = SearchEngine::Create(TrailConfig(4));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AddSeries("s", std::vector<double>(30, 1.0)).ok());
  EXPECT_EQ((*engine)->RemoveWindow(seq::MakeRecordId(0, 0)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SubtrailTest, PersistsThroughCheckpoint) {
  const std::string dir = ::testing::TempDir() + "/tsss_subtrail_persist";
  std::filesystem::remove_all(dir);
  const auto market = Market(6, 80);
  const Vec query(market[1].values.begin(), market[1].values.begin() + 16);
  std::vector<Match> before;
  {
    EngineConfig config = TrailConfig(8);
    config.storage_dir = dir;
    auto engine = SearchEngine::Create(config);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->BulkBuild(market).ok());
    auto matches = (*engine)->RangeQuery(query, 0.5);
    ASSERT_TRUE(matches.ok());
    before = *matches;
    ASSERT_TRUE((*engine)->Checkpoint().ok());
  }
  auto reopened = SearchEngine::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->config().subtrail_len, 8u);
  auto matches = (*reopened)->RangeQuery(query, 0.5);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), before.size());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tsss::core

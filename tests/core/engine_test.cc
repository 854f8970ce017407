#include "tsss/core/engine.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/core/seq_scan.h"
#include "tsss/seq/stock_generator.h"
#include "tsss/seq/window.h"

namespace tsss::core {
namespace {

using geom::Vec;

EngineConfig SmallEngineConfig() {
  EngineConfig config;
  config.window = 16;
  config.reduced_dim = 4;
  config.tree.max_entries = 8;
  config.buffer_pool_pages = 128;
  return config;
}

std::vector<seq::TimeSeries> SmallMarket(std::size_t companies = 20,
                                         std::size_t length = 120,
                                         std::uint64_t seed = 99) {
  seq::StockMarketConfig config;
  config.num_companies = companies;
  config.values_per_company = length;
  config.seed = seed;
  return seq::GenerateStockMarket(config);
}

TEST(EngineCreateTest, ValidatesConfig) {
  EngineConfig config = SmallEngineConfig();
  config.window = 1;
  EXPECT_FALSE(SearchEngine::Create(config).ok());
  config = SmallEngineConfig();
  config.stride = 0;
  EXPECT_FALSE(SearchEngine::Create(config).ok());
  config = SmallEngineConfig();
  config.reduced_dim = 5;  // odd for DFT
  EXPECT_FALSE(SearchEngine::Create(config).ok());
  EXPECT_TRUE(SearchEngine::Create(SmallEngineConfig()).ok());
}

TEST(EngineCreateTest, PaperDefaultsWork) {
  EXPECT_TRUE(SearchEngine::Create(EngineConfig{}).ok());
}

TEST(EngineTest, IndexesAllWindows) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  auto id = (*engine)->AddSeries("s", std::vector<double>(100, 0.0));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ((*engine)->num_indexed_windows(), 100u - 16u + 1u);
}

TEST(EngineTest, ShortSeriesIndexesNothing) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AddSeries("tiny", std::vector<double>(5, 1.0)).ok());
  EXPECT_EQ((*engine)->num_indexed_windows(), 0u);
}

TEST(EngineTest, StrideReducesWindows) {
  EngineConfig config = SmallEngineConfig();
  config.stride = 4;
  auto engine = SearchEngine::Create(config);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AddSeries("s", std::vector<double>(32, 0.0)).ok());
  // offsets 0,4,8,12,16 -> 5 windows (32-16=16).
  EXPECT_EQ((*engine)->num_indexed_windows(), 5u);
}

TEST(EngineTest, FindsExactSelfMatch) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  const auto market = SmallMarket(5);
  for (const auto& series : market) {
    ASSERT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
  }
  // Query = an indexed window: must be found with eps 0 (distance 0).
  const Vec query(market[2].values.begin() + 10, market[2].values.begin() + 26);
  auto matches = (*engine)->RangeQuery(query, 1e-9);
  ASSERT_TRUE(matches.ok());
  bool found = false;
  for (const Match& m : *matches) {
    if (m.series == 2 && m.offset == 10) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(EngineTest, FindsScaledAndShiftedCopies) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  Rng rng(5);
  Vec base(40);
  for (auto& x : base) x = rng.Uniform(0, 10);
  // Series B = 3*base - 7: similar to base with a=3, b=-7.
  Vec scaled(40);
  for (std::size_t i = 0; i < 40; ++i) scaled[i] = 3.0 * base[i] - 7.0;
  ASSERT_TRUE((*engine)->AddSeries("scaled", scaled).ok());

  const Vec query(base.begin(), base.begin() + 16);
  auto matches = (*engine)->RangeQuery(query, 1e-6);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  bool found_aligned = false;
  for (const Match& m : *matches) {
    if (m.offset == 0) {
      found_aligned = true;
      EXPECT_NEAR(m.transform.scale, 3.0, 1e-6);
      EXPECT_NEAR(m.transform.offset, -7.0, 1e-5);
      EXPECT_NEAR(m.distance, 0.0, 1e-6);
    }
  }
  EXPECT_TRUE(found_aligned);
}

TEST(EngineTest, AgreesWithSequentialScanOnStockData) {
  // The central no-false-dismissal + no-false-positive check: engine results
  // must equal the brute-force sequential scanner exactly.
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  const auto market = SmallMarket(15, 100);
  for (const auto& series : market) {
    ASSERT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
  }
  SequentialScanner scanner(&(*engine)->dataset(), 16);

  Rng rng(6);
  for (int q = 0; q < 10; ++q) {
    const std::size_t series = static_cast<std::size_t>(rng.UniformInt(0, 14));
    const std::size_t offset = static_cast<std::size_t>(rng.UniformInt(0, 84));
    Vec query(market[series].values.begin() + static_cast<std::ptrdiff_t>(offset),
              market[series].values.begin() + static_cast<std::ptrdiff_t>(offset + 16));
    // Perturb slightly so matches are non-trivial.
    for (auto& x : query) x *= 1.0 + rng.Uniform(-0.002, 0.002);
    const double eps = rng.Uniform(0.05, 2.0);

    auto tree_matches = (*engine)->RangeQuery(query, eps);
    auto scan_matches = scanner.RangeQuery(query, eps);
    ASSERT_TRUE(tree_matches.ok());
    ASSERT_TRUE(scan_matches.ok());

    std::set<index::RecordId> tree_set, scan_set;
    for (const Match& m : *tree_matches) tree_set.insert(m.record);
    for (const Match& m : *scan_matches) scan_set.insert(m.record);
    EXPECT_EQ(tree_set, scan_set) << "query " << q << " eps " << eps;
  }
}

TEST(EngineTest, AllPruneStrategiesReturnIdenticalAnswers) {
  const auto market = SmallMarket(10, 80);
  std::vector<std::vector<Match>> all_results;
  for (geom::PruneStrategy strategy :
       {geom::PruneStrategy::kEepOnly, geom::PruneStrategy::kBoundingSpheres,
        geom::PruneStrategy::kExactDistance}) {
    EngineConfig config = SmallEngineConfig();
    config.prune = strategy;
    auto engine = SearchEngine::Create(config);
    ASSERT_TRUE(engine.ok());
    for (const auto& series : market) {
      ASSERT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
    }
    const Vec query(market[0].values.begin(), market[0].values.begin() + 16);
    auto matches = (*engine)->RangeQuery(query, 0.5);
    ASSERT_TRUE(matches.ok());
    all_results.push_back(*matches);
  }
  ASSERT_EQ(all_results[0].size(), all_results[1].size());
  ASSERT_EQ(all_results[0].size(), all_results[2].size());
  for (std::size_t i = 0; i < all_results[0].size(); ++i) {
    EXPECT_EQ(all_results[0][i].record, all_results[1][i].record);
    EXPECT_EQ(all_results[0][i].record, all_results[2][i].record);
  }
}

TEST(EngineTest, CostConstraintsFilterMatches) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  Rng rng(7);
  Vec base(16);
  for (auto& x : base) x = rng.Uniform(0, 10);
  Vec negated(16);
  for (std::size_t i = 0; i < 16; ++i) negated[i] = -2.0 * base[i] + 4.0;
  ASSERT_TRUE((*engine)->AddSeries("neg", negated).ok());

  auto unrestricted = (*engine)->RangeQuery(base, 1e-6);
  ASSERT_TRUE(unrestricted.ok());
  EXPECT_EQ(unrestricted->size(), 1u);
  EXPECT_NEAR((*unrestricted)[0].transform.scale, -2.0, 1e-6);

  auto positive_only =
      (*engine)->RangeQuery(base, 1e-6, TransformCost::PositiveScale());
  ASSERT_TRUE(positive_only.ok());
  EXPECT_TRUE(positive_only->empty());
}

TEST(EngineTest, QueryStatsPopulated) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  const auto market = SmallMarket(10, 100);
  for (const auto& series : market) {
    ASSERT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
  }
  const Vec query(market[0].values.begin(), market[0].values.begin() + 16);
  QueryStats stats;
  auto matches = (*engine)->RangeQuery(query, 0.5, TransformCost{}, &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_GT(stats.index_page_reads, 0u);
  EXPECT_EQ(stats.matches, matches->size());
  EXPECT_GE(stats.candidates, stats.matches);
  if (stats.candidates > 0) {
    EXPECT_GT(stats.data_page_reads, 0u);
  }
}

TEST(EngineTest, AppendIndexesNewWindowsOnly) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  auto id = (*engine)->AddSeries("grow", std::vector<double>(20, 1.0));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ((*engine)->num_indexed_windows(), 5u);  // 20-16+1
  ASSERT_TRUE((*engine)->Append(*id, std::vector<double>(10, 2.0)).ok());
  EXPECT_EQ((*engine)->num_indexed_windows(), 15u);  // 30-16+1
  ASSERT_TRUE((*engine)->tree().ValidateInvariants().ok());
}

TEST(EngineTest, AppendedWindowsAreSearchable) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  Rng rng(8);
  Vec initial(20);
  for (auto& x : initial) x = rng.Uniform(0, 5);
  auto id = (*engine)->AddSeries("grow", initial);
  ASSERT_TRUE(id.ok());
  Vec extra(20);
  for (auto& x : extra) x = rng.Uniform(100, 105);
  ASSERT_TRUE((*engine)->Append(*id, extra).ok());

  // Query the window that spans the append boundary.
  auto values = (*engine)->dataset().Values(*id);
  ASSERT_TRUE(values.ok());
  const Vec query(values->begin() + 12, values->begin() + 28);
  auto matches = (*engine)->RangeQuery(query, 1e-9);
  ASSERT_TRUE(matches.ok());
  bool found = false;
  for (const Match& m : *matches) {
    if (m.offset == 12) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(EngineTest, RemoveWindowDeletesFromIndex) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  Rng rng(9);
  Vec values(40);
  for (auto& x : values) x = rng.Uniform(0, 10);
  auto id = (*engine)->AddSeries("s", values);
  ASSERT_TRUE(id.ok());
  const std::size_t before = (*engine)->num_indexed_windows();
  ASSERT_TRUE((*engine)->RemoveWindow(seq::MakeRecordId(*id, 3)).ok());
  EXPECT_EQ((*engine)->num_indexed_windows(), before - 1);

  const Vec query(values.begin() + 3, values.begin() + 19);
  auto matches = (*engine)->RangeQuery(query, 1e-9);
  ASSERT_TRUE(matches.ok());
  for (const Match& m : *matches) EXPECT_NE(m.offset, 3u);
}

TEST(EngineTest, BulkBuildEquivalentToIncremental) {
  const auto market = SmallMarket(8, 80);
  auto incremental = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(incremental.ok());
  for (const auto& series : market) {
    ASSERT_TRUE((*incremental)->AddSeries(series.name, series.values).ok());
  }
  auto bulk = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(bulk.ok());
  ASSERT_TRUE((*bulk)->BulkBuild(market).ok());
  ASSERT_TRUE((*bulk)->tree().ValidateInvariants().ok());
  EXPECT_EQ((*bulk)->num_indexed_windows(), (*incremental)->num_indexed_windows());

  Rng rng(10);
  for (int q = 0; q < 5; ++q) {
    const std::size_t series = static_cast<std::size_t>(rng.UniformInt(0, 7));
    Vec query(market[series].values.begin(), market[series].values.begin() + 16);
    const double eps = rng.Uniform(0.1, 1.0);
    auto a = (*incremental)->RangeQuery(query, eps);
    auto b = (*bulk)->RangeQuery(query, eps);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (std::size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].record, (*b)[i].record);
    }
  }
}

TEST(EngineTest, BulkBuildRequiresEmptyEngine) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AddSeries("s", std::vector<double>(20, 1.0)).ok());
  EXPECT_EQ((*engine)->BulkBuild(SmallMarket(2)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, KnnMatchesSequentialScan) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  const auto market = SmallMarket(12, 90);
  for (const auto& series : market) {
    ASSERT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
  }
  SequentialScanner scanner(&(*engine)->dataset(), 16);

  Rng rng(11);
  for (int q = 0; q < 6; ++q) {
    const std::size_t series = static_cast<std::size_t>(rng.UniformInt(0, 11));
    Vec query(market[series].values.begin() + 5,
              market[series].values.begin() + 21);
    for (auto& x : query) x *= 1.0 + rng.Uniform(-0.01, 0.01);

    for (std::size_t k : {1u, 5u, 12u}) {
      auto fast = (*engine)->Knn(query, k);
      auto slow = scanner.Knn(query, k);
      ASSERT_TRUE(fast.ok());
      ASSERT_TRUE(slow.ok());
      ASSERT_EQ(fast->size(), slow->size());
      for (std::size_t i = 0; i < fast->size(); ++i) {
        EXPECT_NEAR((*fast)[i].distance, (*slow)[i].distance, 1e-7)
            << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST(EngineTest, KnnZeroReturnsEmpty) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AddSeries("s", std::vector<double>(30, 1.0)).ok());
  auto result = (*engine)->Knn(Vec(16, 1.0), 0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(EngineTest, RangeQueryRejectsBadArguments) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE((*engine)->RangeQuery(Vec(7, 0.0), 1.0).ok());   // wrong length
  EXPECT_FALSE((*engine)->RangeQuery(Vec(16, 0.0), -1.0).ok()); // negative eps
}

TEST(EngineTest, ConstantQueryDegeneratesGracefully) {
  auto engine = SearchEngine::Create(SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  // Data: one constant region and one wiggly region.
  Vec values(60);
  for (std::size_t i = 0; i < 30; ++i) values[i] = 5.0;
  Rng rng(12);
  for (std::size_t i = 30; i < 60; ++i) values[i] = rng.Uniform(0, 100);
  ASSERT_TRUE((*engine)->AddSeries("s", values).ok());

  const Vec query(16, 42.0);  // constant query
  auto matches = (*engine)->RangeQuery(query, 1e-6);
  ASSERT_TRUE(matches.ok());
  // All-constant windows (offsets 0..14) match; wiggly ones don't.
  std::set<std::uint32_t> offsets;
  for (const Match& m : *matches) offsets.insert(m.offset);
  for (std::uint32_t off = 0; off <= 14; ++off) EXPECT_TRUE(offsets.count(off));
  EXPECT_FALSE(offsets.count(40));
}

TEST(EngineTest, ReducerVariantsAllAgreeWithScan) {
  const auto market = SmallMarket(6, 64);
  for (reduce::ReducerKind kind :
       {reduce::ReducerKind::kDft, reduce::ReducerKind::kPaa,
        reduce::ReducerKind::kHaar, reduce::ReducerKind::kIdentity}) {
    EngineConfig config = SmallEngineConfig();
    config.reducer = kind;
    config.reduced_dim = kind == reduce::ReducerKind::kIdentity ? 16 : 4;
    auto engine = SearchEngine::Create(config);
    ASSERT_TRUE(engine.ok()) << reduce::ReducerKindToString(kind);
    for (const auto& series : market) {
      ASSERT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
    }
    SequentialScanner scanner(&(*engine)->dataset(), 16);
    const Vec query(market[3].values.begin() + 7,
                    market[3].values.begin() + 23);
    auto fast = (*engine)->RangeQuery(query, 0.8);
    auto slow = scanner.RangeQuery(query, 0.8);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    std::set<index::RecordId> fast_set, slow_set;
    for (const Match& m : *fast) fast_set.insert(m.record);
    for (const Match& m : *slow) slow_set.insert(m.record);
    EXPECT_EQ(fast_set, slow_set) << reduce::ReducerKindToString(kind);
  }
}

}  // namespace
}  // namespace tsss::core

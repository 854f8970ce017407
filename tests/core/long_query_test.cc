#include <set>
#include <string>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/core/engine.h"
#include "tsss/core/similarity.h"
#include "tsss/seq/stock_generator.h"
#include "tsss/seq/window.h"

namespace tsss::core {
namespace {

using geom::Vec;

EngineConfig LongQueryConfig() {
  EngineConfig config;
  config.window = 16;
  config.reduced_dim = 4;
  config.tree.max_entries = 8;
  config.buffer_pool_pages = 256;
  return config;
}

/// Reference: scan every full-length window with the exact distance.
std::set<index::RecordId> BruteLongSearch(seq::Dataset& ds,
                                          std::span<const double> query,
                                          double eps) {
  const QueryContext ctx(query);
  std::set<index::RecordId> out;
  for (storage::SeriesId s = 0; s < ds.size(); ++s) {
    auto values = ds.Values(s);
    EXPECT_TRUE(values.ok());
    if (values->size() < query.size()) continue;
    for (std::size_t off = 0; off + query.size() <= values->size(); ++off) {
      if (ctx.Distance(values->subspan(off, query.size())) <= eps) {
        out.insert(seq::MakeRecordId(s, static_cast<std::uint32_t>(off)));
      }
    }
  }
  return out;
}

TEST(LongQueryTest, RejectsShortQueries) {
  auto engine = SearchEngine::Create(LongQueryConfig());
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE((*engine)->LongRangeQuery(Vec(16, 0.0), 1.0).ok());
  EXPECT_FALSE((*engine)->LongRangeQuery(Vec(8, 0.0), 1.0).ok());
}

TEST(LongQueryTest, RequiresStrideOne) {
  EngineConfig config = LongQueryConfig();
  config.stride = 2;
  auto engine = SearchEngine::Create(config);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AddSeries("s", std::vector<double>(100, 1.0)).ok());
  EXPECT_EQ((*engine)->LongRangeQuery(Vec(40, 0.0), 1.0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LongQueryTest, FindsExactLongSelfMatch) {
  auto engine = SearchEngine::Create(LongQueryConfig());
  ASSERT_TRUE(engine.ok());
  Rng rng(81);
  Vec values(120);
  for (auto& x : values) x = rng.Uniform(0, 20);
  ASSERT_TRUE((*engine)->AddSeries("s", values).ok());

  const Vec query(values.begin() + 30, values.begin() + 70);  // length 40
  auto matches = (*engine)->LongRangeQuery(query, 1e-9);
  ASSERT_TRUE(matches.ok());
  bool found = false;
  for (const Match& m : *matches) {
    if (m.offset == 30) {
      found = true;
      EXPECT_NEAR(m.distance, 0.0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(LongQueryTest, NoFalseDismissalsAgainstBruteForce) {
  auto engine = SearchEngine::Create(LongQueryConfig());
  ASSERT_TRUE(engine.ok());
  seq::StockMarketConfig market_config;
  market_config.num_companies = 8;
  market_config.values_per_company = 150;
  market_config.seed = 4;
  const auto market = seq::GenerateStockMarket(market_config);
  for (const auto& series : market) {
    ASSERT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
  }

  Rng rng(82);
  for (int q = 0; q < 6; ++q) {
    const std::size_t series = static_cast<std::size_t>(rng.UniformInt(0, 7));
    const std::size_t offset = static_cast<std::size_t>(rng.UniformInt(0, 100));
    const std::size_t len = 33 + static_cast<std::size_t>(rng.UniformInt(0, 15));
    Vec query(market[series].values.begin() + static_cast<std::ptrdiff_t>(offset),
              market[series].values.begin() +
                  static_cast<std::ptrdiff_t>(offset + len));
    for (auto& x : query) x = 2.0 * x + 5.0;  // scale-shift the query
    const double eps = rng.Uniform(0.1, 1.5);

    auto matches = (*engine)->LongRangeQuery(query, eps);
    ASSERT_TRUE(matches.ok());
    std::set<index::RecordId> got;
    for (const Match& m : *matches) got.insert(m.record);
    const std::set<index::RecordId> expected =
        BruteLongSearch((*engine)->dataset(), query, eps);
    EXPECT_EQ(got, expected) << "query " << q;
  }
}

TEST(LongQueryTest, MatchesCarryGlobalTransform) {
  auto engine = SearchEngine::Create(LongQueryConfig());
  ASSERT_TRUE(engine.ok());
  Rng rng(83);
  Vec base(50);
  for (auto& x : base) x = rng.Uniform(0, 10);
  Vec scaled(50);
  for (std::size_t i = 0; i < 50; ++i) scaled[i] = 4.0 * base[i] + 11.0;
  ASSERT_TRUE((*engine)->AddSeries("scaled", scaled).ok());

  const Vec query(base.begin(), base.begin() + 40);
  auto matches = (*engine)->LongRangeQuery(query, 1e-6);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  bool found = false;
  for (const Match& m : *matches) {
    if (m.offset == 0) {
      found = true;
      EXPECT_NEAR(m.transform.scale, 4.0, 1e-6);
      EXPECT_NEAR(m.transform.offset, 11.0, 1e-5);
    }
  }
  EXPECT_TRUE(found);
}

TEST(LongQueryTest, QueryStatsPopulated) {
  // `candidates` counts windows verified (after sub-trail expansion,
  // de-duplication across pieces and the series-bounds check), like range
  // and k-NN, so the post-filter identity holds in both index modes.
  for (const std::size_t subtrail_len : {0u, 4u}) {
    EngineConfig config = LongQueryConfig();
    config.subtrail_len = subtrail_len;
    auto engine = SearchEngine::Create(config);
    ASSERT_TRUE(engine.ok());
    Rng rng(84);
    Vec values(200);
    for (auto& x : values) x = rng.Uniform(0, 10);
    ASSERT_TRUE((*engine)->AddSeries("s", values).ok());

    const Vec query(values.begin(), values.begin() + 48);
    for (const double eps : {0.5, 3.0, 1e6}) {
      SCOPED_TRACE("subtrail_len " + std::to_string(subtrail_len) + " eps " +
                   std::to_string(eps));
      QueryStats stats;
      auto matches =
          (*engine)->LongRangeQuery(query, eps, TransformCost{}, &stats);
      ASSERT_TRUE(matches.ok());
      EXPECT_GT(stats.index_page_reads, 0u);
      EXPECT_EQ(stats.matches, matches->size());
      EXPECT_EQ(stats.telemetry.candidates_postfiltered + stats.matches,
                stats.candidates);
      if (eps > 1e5) {
        // Every piece hits every window, yet each of the 200 - 48 + 1
        // full-length windows is verified exactly once.
        EXPECT_EQ(stats.candidates, 153u);
      }
    }
  }
}

}  // namespace
}  // namespace tsss::core

// End-to-end integration tests: the full paper pipeline at a (scaled-down)
// realistic operating point, cross-checked against the sequential-scan
// baseline, across engine configurations (TEST_P sweep).

#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/core/engine.h"
#include "tsss/core/seq_scan.h"
#include "tsss/seq/stock_generator.h"

namespace tsss::core {
namespace {

using geom::Vec;

using IntegrationParam =
    std::tuple<reduce::ReducerKind, geom::PruneStrategy, index::SplitAlgorithm>;

class IntegrationTest : public ::testing::TestWithParam<IntegrationParam> {
 protected:
  static constexpr std::size_t kWindow = 32;

  void SetUp() override {
    const auto [reducer, prune, split] = GetParam();
    EngineConfig config;
    config.window = kWindow;
    config.reducer = reducer;
    config.reduced_dim = 6;
    config.prune = prune;
    config.tree.split = split;
    config.tree.max_entries = 12;
    config.tree.leaf_max_entries = 12;  // small nodes -> deep tree to exercise
    config.buffer_pool_pages = 512;
    auto engine = SearchEngine::Create(config);
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(engine).value();

    seq::StockMarketConfig market_config;
    market_config.num_companies = 25;
    market_config.values_per_company = 160;
    market_config.seed = 20260706;
    market_ = seq::GenerateStockMarket(market_config);
    ASSERT_TRUE(engine_->BulkBuild(market_).ok());
    ASSERT_TRUE(engine_->tree().ValidateInvariants().ok());
  }

  Vec QueryFromData(Rng& rng) {
    const std::size_t series =
        static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(market_.size()) - 1));
    const std::size_t offset = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(market_[series].values.size() - kWindow)));
    Vec query(market_[series].values.begin() + static_cast<std::ptrdiff_t>(offset),
              market_[series].values.begin() +
                  static_cast<std::ptrdiff_t>(offset + kWindow));
    // Random scale-shift so the query is not a literal copy of the data.
    const double a = rng.Uniform(0.5, 3.0);
    const double b = rng.Uniform(-20, 20);
    for (auto& x : query) x = a * x + b;
    return query;
  }

  std::unique_ptr<SearchEngine> engine_;
  std::vector<seq::TimeSeries> market_;
};

TEST_P(IntegrationTest, RangeQueriesMatchBaselineExactly) {
  SequentialScanner scanner(&engine_->dataset(), kWindow);
  Rng rng(1);
  for (int q = 0; q < 8; ++q) {
    const Vec query = QueryFromData(rng);
    const double eps = rng.Uniform(0.0, 3.0);
    auto fast = engine_->RangeQuery(query, eps);
    auto slow = scanner.RangeQuery(query, eps);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    std::set<index::RecordId> fast_set, slow_set;
    for (const Match& m : *fast) fast_set.insert(m.record);
    for (const Match& m : *slow) slow_set.insert(m.record);
    EXPECT_EQ(fast_set, slow_set);
  }
}

TEST_P(IntegrationTest, ReportedTransformsReconstructTheData) {
  SequentialScanner scanner(&engine_->dataset(), kWindow);
  Rng rng(2);
  const Vec query = QueryFromData(rng);
  auto matches = engine_->RangeQuery(query, 5.0);
  ASSERT_TRUE(matches.ok());
  for (const Match& m : *matches) {
    auto window = engine_->ReadWindow(m.record);
    ASSERT_TRUE(window.ok());
    // ||a*Q + b - S'|| must equal the reported distance.
    const Vec reconstructed = m.transform.Apply(query);
    EXPECT_NEAR(geom::Distance(reconstructed, *window), m.distance, 1e-6);
    EXPECT_LE(m.distance, 5.0);
  }
}

TEST_P(IntegrationTest, SelectiveQueriesVisitFractionOfIndex) {
  // The point of Theorem 3: a selective query must not traverse the whole
  // tree. (The sequential-scan comparison happens at realistic scale in the
  // benchmarks; data pages here are too few for that comparison to bind.)
  Rng rng(3);
  const Vec query = QueryFromData(rng);
  QueryStats stats;
  ASSERT_TRUE(engine_->RangeQuery(query, 0.02, TransformCost{}, &stats).ok());
  auto tree_stats = engine_->tree().ComputeStats();
  ASSERT_TRUE(tree_stats.ok());
  // Coarser reducers (Haar keeps only 6 coarse coefficients) admit more
  // subtrees; 70% is a conservative bound that still proves pruning works.
  EXPECT_LT(stats.index_page_reads, tree_stats->node_count * 7 / 10)
      << "pruning should skip a good part of the tree for a selective query";
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, IntegrationTest,
    ::testing::Values(
        // The paper's configuration: DFT + EEP + R*.
        std::make_tuple(reduce::ReducerKind::kDft, geom::PruneStrategy::kEepOnly,
                        index::SplitAlgorithm::kRStar),
        // Experiment set 3: bounding spheres.
        std::make_tuple(reduce::ReducerKind::kDft,
                        geom::PruneStrategy::kBoundingSpheres,
                        index::SplitAlgorithm::kRStar),
        // Extension: exact-distance pruning.
        std::make_tuple(reduce::ReducerKind::kDft,
                        geom::PruneStrategy::kExactDistance,
                        index::SplitAlgorithm::kRStar),
        // Alternative reducers.
        std::make_tuple(reduce::ReducerKind::kPaa, geom::PruneStrategy::kEepOnly,
                        index::SplitAlgorithm::kRStar),
        std::make_tuple(reduce::ReducerKind::kHaar, geom::PruneStrategy::kEepOnly,
                        index::SplitAlgorithm::kRStar),
        // Classic Guttman trees.
        std::make_tuple(reduce::ReducerKind::kDft, geom::PruneStrategy::kEepOnly,
                        index::SplitAlgorithm::kLinear),
        std::make_tuple(reduce::ReducerKind::kDft, geom::PruneStrategy::kEepOnly,
                        index::SplitAlgorithm::kQuadratic)),
    [](const testing::TestParamInfo<IntegrationParam>& param_info) {
      std::string name(reduce::ReducerKindToString(std::get<0>(param_info.param)));
      name += "_";
      name += geom::PruneStrategyToString(std::get<1>(param_info.param));
      name += "_";
      name += index::SplitAlgorithmToString(std::get<2>(param_info.param));
      return name;
    });

TEST(IntegrationSmokeTest, PaperScaleMiniatureEndToEnd) {
  // A miniature of the full paper experiment: build, query at several eps,
  // confirm monotone match counts and bounded page cost.
  EngineConfig config;
  config.window = 32;
  config.reduced_dim = 6;
  config.tree.max_entries = 20;
  auto engine = SearchEngine::Create(config);
  ASSERT_TRUE(engine.ok());

  seq::StockMarketConfig market_config;
  market_config.num_companies = 40;
  market_config.values_per_company = 130;
  const auto market = seq::GenerateStockMarket(market_config);
  ASSERT_TRUE((*engine)->BulkBuild(market).ok());

  const Vec query(market[7].values.begin() + 20, market[7].values.begin() + 52);
  std::size_t prev_matches = 0;
  for (double eps : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    QueryStats stats;
    auto matches = (*engine)->RangeQuery(query, eps, TransformCost{}, &stats);
    ASSERT_TRUE(matches.ok());
    EXPECT_GE(matches->size(), prev_matches);
    prev_matches = matches->size();
    EXPECT_EQ(stats.matches, matches->size());
  }
  EXPECT_GE(prev_matches, 1u);  // the self-window matches at eps >= 0
}

}  // namespace
}  // namespace tsss::core

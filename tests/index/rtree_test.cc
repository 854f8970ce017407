#include "tsss/index/rtree.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"

namespace tsss::index {
namespace {

using geom::Mbr;
using geom::Vec;

struct TreeFixture {
  storage::MemPageStore store;
  storage::BufferPool pool{&store, 256};
  std::unique_ptr<RTree> tree;

  explicit TreeFixture(const RTreeConfig& config) {
    auto created = RTree::Create(&pool, config);
    EXPECT_TRUE(created.ok()) << created.status();
    tree = std::move(created).value();
  }
};

RTreeConfig SmallConfig(SplitAlgorithm split = SplitAlgorithm::kRStar) {
  RTreeConfig config;
  config.dim = 2;
  config.max_entries = 8;
  config.split = split;
  return config;
}

Vec RandomPoint(Rng& rng, std::size_t dim, double lo = -100, double hi = 100) {
  Vec p(dim);
  for (auto& x : p) x = rng.Uniform(lo, hi);
  return p;
}

TEST(RTreeCreateTest, ValidatesConfig) {
  storage::MemPageStore store;
  storage::BufferPool pool(&store, 16);
  RTreeConfig config;
  config.dim = 0;
  EXPECT_FALSE(RTree::Create(&pool, config).ok());
  config.dim = 6;
  config.max_entries = 1;
  EXPECT_FALSE(RTree::Create(&pool, config).ok());
  config.max_entries = 10000;  // beyond page capacity
  EXPECT_FALSE(RTree::Create(&pool, config).ok());
  config.max_entries = 20;
  EXPECT_TRUE(RTree::Create(&pool, config).ok());
}

TEST(RTreeCreateTest, PaperConfigurationIsValid) {
  // dim 6, M = 20, m = 8, p = 6 - Section 7's exact setting.
  storage::MemPageStore store;
  storage::BufferPool pool(&store, 16);
  RTreeConfig config;
  auto tree = RTree::Create(&pool, config);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ((*tree)->config().min_entries(), 8u);
  EXPECT_EQ((*tree)->config().reinsert_count(), 6u);
}

TEST(RTreeTest, EmptyTreeQueries) {
  TreeFixture f(SmallConfig());
  auto result = f.tree->RangeQuery(Mbr::FromCorners({-1e9, -1e9}, {1e9, 1e9}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(f.tree->size(), 0u);
  EXPECT_EQ(f.tree->height(), 1u);
  EXPECT_TRUE(f.tree->ValidateInvariants().ok());
}

TEST(RTreeTest, InsertAndPointQuery) {
  TreeFixture f(SmallConfig());
  ASSERT_TRUE(f.tree->Insert(Vec{1.0, 2.0}, 42).ok());
  auto result = f.tree->RangeQuery(Mbr::FromPoint(Vec{1.0, 2.0}));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0], 42u);
}

TEST(RTreeTest, InsertRejectsWrongDim) {
  TreeFixture f(SmallConfig());
  EXPECT_FALSE(f.tree->Insert(Vec{1.0, 2.0, 3.0}, 1).ok());
}

class RTreeSplitParamTest : public ::testing::TestWithParam<SplitAlgorithm> {};

TEST_P(RTreeSplitParamTest, ManyInsertsKeepInvariantsAndFindEverything) {
  TreeFixture f(SmallConfig(GetParam()));
  Rng rng(42);
  std::vector<Vec> points;
  for (RecordId i = 0; i < 500; ++i) {
    points.push_back(RandomPoint(rng, 2));
    ASSERT_TRUE(f.tree->Insert(points.back(), i).ok());
  }
  EXPECT_EQ(f.tree->size(), 500u);
  ASSERT_TRUE(f.tree->ValidateInvariants().ok()) << f.tree->ValidateInvariants();
  EXPECT_GT(f.tree->height(), 1u);

  // Every point is found by a point query.
  for (RecordId i = 0; i < 500; ++i) {
    auto result = f.tree->RangeQuery(Mbr::FromPoint(points[i]));
    ASSERT_TRUE(result.ok());
    EXPECT_NE(std::find(result->begin(), result->end(), i), result->end())
        << "lost record " << i;
  }
}

TEST_P(RTreeSplitParamTest, RangeQueryMatchesLinearScan) {
  TreeFixture f(SmallConfig(GetParam()));
  Rng rng(43);
  std::vector<Vec> points;
  for (RecordId i = 0; i < 400; ++i) {
    points.push_back(RandomPoint(rng, 2));
    ASSERT_TRUE(f.tree->Insert(points.back(), i).ok());
  }
  for (int q = 0; q < 25; ++q) {
    Vec lo = RandomPoint(rng, 2);
    Vec hi = lo;
    for (std::size_t d = 0; d < 2; ++d) hi[d] += rng.Uniform(1, 80);
    const Mbr box = Mbr::FromCorners(lo, hi);

    auto result = f.tree->RangeQuery(box);
    ASSERT_TRUE(result.ok());
    std::set<RecordId> got(result->begin(), result->end());

    std::set<RecordId> expected;
    for (RecordId i = 0; i < 400; ++i) {
      if (box.Contains(points[i])) expected.insert(i);
    }
    EXPECT_EQ(got, expected);
  }
}

TEST_P(RTreeSplitParamTest, DuplicatePointsAllFound) {
  TreeFixture f(SmallConfig(GetParam()));
  const Vec p{5.0, 5.0};
  for (RecordId i = 0; i < 50; ++i) ASSERT_TRUE(f.tree->Insert(p, i).ok());
  ASSERT_TRUE(f.tree->ValidateInvariants().ok());
  auto result = f.tree->RangeQuery(Mbr::FromPoint(p));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 50u);
}

INSTANTIATE_TEST_SUITE_P(AllSplits, RTreeSplitParamTest,
                         ::testing::Values(SplitAlgorithm::kLinear,
                                           SplitAlgorithm::kQuadratic,
                                           SplitAlgorithm::kRStar),
                         [](const auto& param_info) {
                           return std::string(SplitAlgorithmToString(param_info.param));
                         });

TEST(RTreeDeleteTest, DeleteMissingRecordIsNotFound) {
  TreeFixture f(SmallConfig());
  ASSERT_TRUE(f.tree->Insert(Vec{1.0, 1.0}, 1).ok());
  EXPECT_EQ(f.tree->Delete(Vec{1.0, 1.0}, 2).code(), StatusCode::kNotFound);
  EXPECT_EQ(f.tree->Delete(Vec{9.0, 9.0}, 1).code(), StatusCode::kNotFound);
}

TEST(RTreeDeleteTest, InsertThenDeleteAllLeavesEmptyTree) {
  TreeFixture f(SmallConfig());
  Rng rng(44);
  std::vector<Vec> points;
  for (RecordId i = 0; i < 300; ++i) {
    points.push_back(RandomPoint(rng, 2));
    ASSERT_TRUE(f.tree->Insert(points.back(), i).ok());
  }
  // Delete in a shuffled order.
  std::vector<RecordId> order(300);
  for (RecordId i = 0; i < 300; ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(i) - 1))]);
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    const RecordId i = order[k];
    ASSERT_TRUE(f.tree->Delete(points[i], i).ok()) << "record " << i;
    if (k % 37 == 0) {
      ASSERT_TRUE(f.tree->ValidateInvariants().ok())
          << "after " << (k + 1) << " deletes: " << f.tree->ValidateInvariants();
    }
  }
  EXPECT_EQ(f.tree->size(), 0u);
  EXPECT_EQ(f.tree->height(), 1u);
  ASSERT_TRUE(f.tree->ValidateInvariants().ok());
}

TEST(RTreeDeleteTest, RemainingRecordsStillFindableAfterDeletes) {
  TreeFixture f(SmallConfig());
  Rng rng(45);
  std::vector<Vec> points;
  for (RecordId i = 0; i < 200; ++i) {
    points.push_back(RandomPoint(rng, 2));
    ASSERT_TRUE(f.tree->Insert(points.back(), i).ok());
  }
  // Delete even records.
  for (RecordId i = 0; i < 200; i += 2) {
    ASSERT_TRUE(f.tree->Delete(points[i], i).ok());
  }
  ASSERT_TRUE(f.tree->ValidateInvariants().ok());
  EXPECT_EQ(f.tree->size(), 100u);
  for (RecordId i = 1; i < 200; i += 2) {
    auto result = f.tree->RangeQuery(Mbr::FromPoint(points[i]));
    ASSERT_TRUE(result.ok());
    EXPECT_NE(std::find(result->begin(), result->end(), i), result->end());
  }
  // Deleted ones are gone.
  for (RecordId i = 0; i < 200; i += 2) {
    auto result = f.tree->RangeQuery(Mbr::FromPoint(points[i]));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(std::find(result->begin(), result->end(), i), result->end());
  }
}

TEST(RTreeDeleteTest, MixedInsertDeleteChurn) {
  TreeFixture f(SmallConfig());
  Rng rng(46);
  std::vector<std::pair<Vec, RecordId>> live;
  RecordId next_id = 0;
  for (int step = 0; step < 1500; ++step) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      Vec p = RandomPoint(rng, 2);
      ASSERT_TRUE(f.tree->Insert(p, next_id).ok());
      live.emplace_back(std::move(p), next_id);
      ++next_id;
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      ASSERT_TRUE(f.tree->Delete(live[pick].first, live[pick].second).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (step % 100 == 99) {
      ASSERT_TRUE(f.tree->ValidateInvariants().ok());
      EXPECT_EQ(f.tree->size(), live.size());
    }
  }
}

TEST(RTreeTest, HigherDimensionalTree) {
  RTreeConfig config;
  config.dim = 6;
  config.max_entries = 20;
  TreeFixture f(config);
  Rng rng(47);
  std::vector<Vec> points;
  for (RecordId i = 0; i < 300; ++i) {
    points.push_back(RandomPoint(rng, 6));
    ASSERT_TRUE(f.tree->Insert(points.back(), i).ok());
  }
  ASSERT_TRUE(f.tree->ValidateInvariants().ok());
  for (RecordId i = 0; i < 300; i += 17) {
    auto result = f.tree->RangeQuery(Mbr::FromPoint(points[i]));
    ASSERT_TRUE(result.ok());
    EXPECT_NE(std::find(result->begin(), result->end(), i), result->end());
  }
}

TEST(RTreeTest, ComputeStatsReflectsShape) {
  TreeFixture f(SmallConfig());
  Rng rng(48);
  for (RecordId i = 0; i < 500; ++i) {
    ASSERT_TRUE(f.tree->Insert(RandomPoint(rng, 2), i).ok());
  }
  auto stats = f.tree->ComputeStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->entry_count, 500u);
  EXPECT_GT(stats->leaf_count, 1u);
  EXPECT_GT(stats->node_count, stats->leaf_count);
  EXPECT_EQ(stats->height, f.tree->height());
  EXPECT_GT(stats->avg_leaf_fill, 0.3);
  EXPECT_LE(stats->avg_leaf_fill, 1.0);
}

TEST(RTreeTest, NodePagesAreCountedByBufferPool) {
  TreeFixture f(SmallConfig());
  Rng rng(49);
  for (RecordId i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.tree->Insert(RandomPoint(rng, 2), i).ok());
  }
  ASSERT_TRUE(f.pool.Clear().ok());
  f.pool.ResetMetrics();
  auto result = f.tree->RangeQuery(Mbr::FromCorners({-10.0, -10.0}, {10.0, 10.0}));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(f.pool.metrics().logical_reads, 0u);
}

}  // namespace
}  // namespace tsss::index

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/index/rtree.h"

namespace tsss::index {
namespace {

using geom::Vec;

struct StatsFixture {
  storage::MemPageStore store;
  storage::BufferPool pool{&store, 512};
  std::unique_ptr<RTree> tree;

  StatsFixture(std::size_t leaf_max = 16) {
    RTreeConfig config;
    config.dim = 3;
    config.max_entries = 8;
    config.leaf_max_entries = leaf_max;
    auto created = RTree::Create(&pool, config);
    EXPECT_TRUE(created.ok());
    tree = std::move(created).value();
  }
};

TEST(TreeStatsTest, EmptyTree) {
  StatsFixture f;
  auto stats = f.tree->ComputeStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->height, 1u);
  EXPECT_EQ(stats->node_count, 1u);
  EXPECT_EQ(stats->node_pages, 1u);
  EXPECT_EQ(stats->leaf_count, 1u);
  EXPECT_EQ(stats->entry_count, 0u);
  EXPECT_DOUBLE_EQ(stats->avg_leaf_fill, 0.0);
}

TEST(TreeStatsTest, CountsAreConsistent) {
  StatsFixture f;
  Rng rng(1);
  for (RecordId i = 0; i < 1000; ++i) {
    Vec p(3);
    for (auto& x : p) x = rng.Uniform(-10, 10);
    ASSERT_TRUE(f.tree->Insert(p, i).ok());
  }
  auto stats = f.tree->ComputeStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->entry_count, 1000u);
  EXPECT_EQ(stats->height, f.tree->height());
  EXPECT_GE(stats->node_count, stats->leaf_count);
  EXPECT_GE(stats->node_pages, stats->node_count);
  // 1000 entries over leaves of <= 16: at least 63 leaves.
  EXPECT_GE(stats->leaf_count, 63u);
  // Fill fractions are sane.
  EXPECT_GT(stats->avg_leaf_fill, 0.3);
  EXPECT_LE(stats->avg_leaf_fill, 1.0);
  EXPECT_GT(stats->avg_internal_fill, 0.3);
  EXPECT_LE(stats->avg_internal_fill, 1.0);
}

TEST(TreeStatsTest, AspectRatioDetectsThinBoxes) {
  // Points along a line -> child boxes are long and thin -> large ratios.
  StatsFixture f;
  Rng rng(2);
  for (RecordId i = 0; i < 600; ++i) {
    const double t = rng.Uniform(0, 1000);
    Vec p{t, rng.Uniform(0, 0.5), rng.Uniform(0, 0.5)};
    ASSERT_TRUE(f.tree->Insert(p, i).ok());
  }
  auto stats = f.tree->ComputeStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->avg_aspect_ratio, 5.0);
  EXPECT_GE(stats->avg_diag_to_min_side, stats->avg_aspect_ratio);
}

TEST(TreeStatsTest, OverlapZeroForWellSeparatedClusters) {
  StatsFixture f;
  Rng rng(3);
  // Two far-apart tight clusters; sibling boxes at the top level should not
  // overlap at all.
  for (RecordId i = 0; i < 100; ++i) {
    Vec p{rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)};
    ASSERT_TRUE(f.tree->Insert(p, i).ok());
  }
  auto one_cluster = f.tree->ComputeStats();
  ASSERT_TRUE(one_cluster.ok());

  for (RecordId i = 100; i < 200; ++i) {
    Vec p{1e6 + rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)};
    ASSERT_TRUE(f.tree->Insert(p, i).ok());
  }
  auto stats = f.tree->ComputeStats();
  ASSERT_TRUE(stats.ok());
  // Overlap cannot explode just because a distant cluster was added.
  EXPECT_LE(stats->total_overlap_volume,
            one_cluster->total_overlap_volume * 10 + 1.0);
}

TEST(TreeStatsTest, VisitNodesSeesEveryNodeOnce) {
  StatsFixture f;
  Rng rng(4);
  for (RecordId i = 0; i < 400; ++i) {
    Vec p(3);
    for (auto& x : p) x = rng.Uniform(-10, 10);
    ASSERT_TRUE(f.tree->Insert(p, i).ok());
  }
  std::size_t visited = 0;
  std::size_t leaf_entries = 0;
  ASSERT_TRUE(f.tree
                  ->VisitNodes([&](const Node& node, storage::PageId) {
                    ++visited;
                    if (node.is_leaf()) leaf_entries += node.entries.size();
                  })
                  .ok());
  auto stats = f.tree->ComputeStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(visited, stats->node_count);
  EXPECT_EQ(leaf_entries, 400u);
}

}  // namespace
}  // namespace tsss::index

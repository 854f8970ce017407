// Oracle tests for RTree::ComputeStructuralStats(): exact per-level shape on
// degenerate trees, cross-checked totals against ComputeStats() on random and
// bulk-loaded trees, and the depth-uniformity / occupancy-histogram
// invariants the `tsss_cli inspect` report builds on.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/index/rtree.h"
#include "tsss/obs/metrics.h"

namespace tsss::index {
namespace {

using geom::Vec;

struct Fixture {
  storage::MemPageStore store;
  storage::BufferPool pool{&store, 512};
  std::unique_ptr<RTree> tree;

  explicit Fixture(std::size_t max_entries = 8, std::size_t leaf_max = 16) {
    RTreeConfig config;
    config.dim = 3;
    config.max_entries = max_entries;
    config.leaf_max_entries = leaf_max;
    auto created = RTree::Create(&pool, config);
    EXPECT_TRUE(created.ok());
    tree = std::move(created).value();
  }
};

std::size_t HistogramSum(const LevelStats& level) {
  std::size_t sum = 0;
  for (std::size_t bucket : level.occupancy_histogram) sum += bucket;
  return sum;
}

TEST(StructuralStatsTest, EmptyTreeIsOneEmptyLeaf) {
  Fixture f;
  auto stats = f.tree->ComputeStructuralStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->height, 1u);
  EXPECT_EQ(stats->node_count, 1u);
  EXPECT_EQ(stats->entry_count, 0u);
  EXPECT_TRUE(stats->depth_uniform);
  ASSERT_EQ(stats->levels.size(), 1u);
  const LevelStats& leaves = stats->levels[0];
  EXPECT_EQ(leaves.nodes, 1u);
  EXPECT_EQ(leaves.entries, 0u);
  EXPECT_EQ(leaves.min_fanout, 0u);
  EXPECT_EQ(leaves.max_fanout, 0u);
  EXPECT_DOUBLE_EQ(leaves.avg_fanout, 0.0);
  EXPECT_DOUBLE_EQ(leaves.avg_occupancy, 0.0);
  EXPECT_EQ(HistogramSum(leaves), 1u);
  EXPECT_EQ(leaves.occupancy_histogram[0], 1u);
}

TEST(StructuralStatsTest, DegenerateSingleLeafIsExact) {
  Fixture f;
  for (RecordId i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.tree->Insert(Vec{double(i), 0.0, 0.0}, i).ok());
  }
  auto stats = f.tree->ComputeStructuralStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->height, 1u);
  EXPECT_EQ(stats->node_count, 1u);
  EXPECT_EQ(stats->entry_count, 5u);
  EXPECT_TRUE(stats->depth_uniform);
  ASSERT_EQ(stats->levels.size(), 1u);
  const LevelStats& leaves = stats->levels[0];
  EXPECT_EQ(leaves.entries, 5u);
  EXPECT_EQ(leaves.min_fanout, 5u);
  EXPECT_EQ(leaves.max_fanout, 5u);
  EXPECT_DOUBLE_EQ(leaves.avg_fanout, 5.0);
  // 5 of 16 slots: occupancy 0.3125 lands in decile bucket 3.
  EXPECT_DOUBLE_EQ(leaves.avg_occupancy, 5.0 / 16.0);
  EXPECT_EQ(leaves.occupancy_histogram[3], 1u);
  EXPECT_EQ(HistogramSum(leaves), 1u);
}

TEST(StructuralStatsTest, AgreesWithComputeStatsOnRandomTree) {
  Fixture f;
  Rng rng(7);
  for (RecordId i = 0; i < 1000; ++i) {
    Vec p(3);
    for (auto& x : p) x = rng.Uniform(-10, 10);
    ASSERT_TRUE(f.tree->Insert(p, i).ok());
  }
  auto flat = f.tree->ComputeStats();
  auto deep = f.tree->ComputeStructuralStats();
  ASSERT_TRUE(flat.ok());
  ASSERT_TRUE(deep.ok());

  EXPECT_EQ(deep->height, flat->height);
  EXPECT_EQ(deep->node_count, flat->node_count);
  EXPECT_EQ(deep->entry_count, flat->entry_count);
  EXPECT_TRUE(deep->depth_uniform);
  ASSERT_EQ(deep->levels.size(), deep->height);

  std::size_t nodes = 0;
  for (const LevelStats& level : deep->levels) {
    nodes += level.nodes;
    EXPECT_EQ(HistogramSum(level), level.nodes) << "level " << level.level;
    EXPECT_GE(level.max_fanout, level.min_fanout);
    EXPECT_GE(level.avg_fanout, double(level.min_fanout));
    EXPECT_LE(level.avg_fanout, double(level.max_fanout));
    EXPECT_GE(level.avg_occupancy, 0.0);
    EXPECT_GE(level.dead_space_ratio, 0.0);
    EXPECT_LE(level.dead_space_ratio, 1.0);
    EXPECT_GE(level.overlap_volume, 0.0);
    EXPECT_GE(level.margin_sum, 0.0);
  }
  EXPECT_EQ(nodes, deep->node_count);
  // Leaves hold every data entry; the root level is a single node.
  EXPECT_EQ(deep->levels[0].entries, 1000u);
  EXPECT_EQ(deep->levels.back().nodes, 1u);
  // Each internal level fans out to exactly the nodes of the level below.
  for (std::size_t l = 1; l < deep->levels.size(); ++l) {
    EXPECT_EQ(deep->levels[l].entries, deep->levels[l - 1].nodes)
        << "level " << l;
  }
  // Point leaves enclose zero-volume boxes: their dead space is total.
  EXPECT_DOUBLE_EQ(deep->levels[0].dead_space_ratio, 1.0);
}

TEST(StructuralStatsTest, BulkLoadedTreeIsDenserThanIncremental) {
  Rng rng(13);
  std::vector<Vec> points;
  std::vector<Entry> entries;
  for (RecordId i = 0; i < 1000; ++i) {
    Vec p(3);
    for (auto& x : p) x = rng.Uniform(-10, 10);
    entries.push_back(Entry::ForRecord(i, p));
    points.push_back(std::move(p));
  }

  Fixture incremental;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(
        incremental.tree->Insert(points[i], static_cast<RecordId>(i)).ok());
  }
  Fixture bulk;
  ASSERT_TRUE(bulk.tree->BulkLoad(std::move(entries)).ok());

  auto inc_stats = incremental.tree->ComputeStructuralStats();
  auto bulk_stats = bulk.tree->ComputeStructuralStats();
  ASSERT_TRUE(inc_stats.ok());
  ASSERT_TRUE(bulk_stats.ok());

  EXPECT_TRUE(bulk_stats->depth_uniform);
  EXPECT_EQ(bulk_stats->entry_count, 1000u);
  // STR packs leaves near full, so the bulk tree needs no more nodes than
  // the incrementally-grown one and its leaves sit at higher occupancy.
  EXPECT_LE(bulk_stats->node_count, inc_stats->node_count);
  EXPECT_GE(bulk_stats->levels[0].avg_occupancy,
            inc_stats->levels[0].avg_occupancy);
}

TEST(StructuralStatsTest, GaugesAreRegistered) {
  Fixture f;
  for (RecordId i = 0; i < 100; ++i) {
    Vec p{double(i % 10), double(i / 10), 0.5};
    ASSERT_TRUE(f.tree->Insert(p, i).ok());
  }
  auto stats = f.tree->ComputeStructuralStats();
  ASSERT_TRUE(stats.ok());
  RegisterStructuralGauges(*stats);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("tsss_tree_height", "")->Value(),
            static_cast<std::int64_t>(stats->height));
  EXPECT_EQ(registry.GetGauge("tsss_tree_nodes", "")->Value(),
            static_cast<std::int64_t>(stats->node_count));
  EXPECT_EQ(registry.GetGauge("tsss_tree_entries", "")->Value(), 100);
  EXPECT_EQ(registry.GetGauge("tsss_tree_depth_uniform", "")->Value(),
            stats->depth_uniform ? 1 : 0);
}

}  // namespace
}  // namespace tsss::index

// Tests of the X-tree supernode extension: multi-page node chains and the
// overlap-triggered "don't split" policy.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/index/rtree.h"

namespace tsss::index {
namespace {

using geom::Mbr;
using geom::Vec;

TEST(NodeChainCodecTest, PartRoundTripWithNextPointer) {
  const NodeCodec codec(4);
  std::vector<Entry> entries;
  for (RecordId i = 0; i < 5; ++i) {
    entries.push_back(
        Entry::ForRecord(i, Vec{static_cast<double>(i), 2.0, 3.0, 4.0}));
  }
  storage::Page page;
  ASSERT_TRUE(codec.EncodePart(0, entries, 1234, &page).ok());
  auto part = codec.DecodePart(page);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(part->level, 0);
  EXPECT_EQ(part->next, 1234u);
  ASSERT_EQ(part->entries.size(), 5u);
  EXPECT_EQ(part->entries[3].record, 3u);
}

TEST(NodeChainCodecTest, DecodeRejectsChainedPage) {
  const NodeCodec codec(2);
  std::vector<Entry> entries;
  entries.push_back(Entry::ForRecord(1, Vec{1.0, 2.0}));
  storage::Page page;
  ASSERT_TRUE(codec.EncodePart(0, entries, 7, &page).ok());
  EXPECT_EQ(codec.Decode(page).status().code(), StatusCode::kFailedPrecondition);
}

struct SupernodeFixture {
  storage::MemPageStore store;
  storage::BufferPool pool{&store, 1024};
  std::unique_ptr<RTree> tree;

  explicit SupernodeFixture(std::size_t dim = 8, bool supernodes = true) {
    RTreeConfig config;
    config.dim = dim;
    config.max_entries = 8;
    config.leaf_max_entries = 16;
    config.enable_supernodes = supernodes;
    config.supernode_overlap_fraction = 0.05;  // aggressive: form supernodes
    auto created = RTree::Create(&pool, config);
    EXPECT_TRUE(created.ok()) << created.status();
    tree = std::move(created).value();
  }
};

/// Points drawn uniformly in a high-dimensional cube: splits overlap badly,
/// the classic X-tree trigger.
std::vector<Vec> UniformCloud(Rng& rng, std::size_t count, std::size_t dim) {
  std::vector<Vec> points;
  for (std::size_t i = 0; i < count; ++i) {
    Vec p(dim);
    for (auto& x : p) x = rng.Uniform(0, 1);
    points.push_back(std::move(p));
  }
  return points;
}

TEST(SupernodeTest, FormsSupernodesOnUniformHighDimData) {
  SupernodeFixture f;
  Rng rng(1);
  const auto points = UniformCloud(rng, 3000, 8);
  for (RecordId i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(f.tree->Insert(points[i], i).ok());
  }
  ASSERT_TRUE(f.tree->ValidateInvariants().ok()) << f.tree->ValidateInvariants();
  auto stats = f.tree->ComputeStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->supernode_count, 0u)
      << "uniform high-dim data should trigger supernodes";
  EXPECT_GE(stats->node_pages, stats->node_count);
}

TEST(SupernodeTest, AllRecordsRemainFindable) {
  SupernodeFixture f;
  Rng rng(2);
  const auto points = UniformCloud(rng, 2000, 8);
  for (RecordId i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(f.tree->Insert(points[i], i).ok());
  }
  for (RecordId i = 0; i < points.size(); i += 41) {
    auto result = f.tree->RangeQuery(Mbr::FromPoint(points[i]));
    ASSERT_TRUE(result.ok());
    EXPECT_NE(std::find(result->begin(), result->end(), i), result->end())
        << "lost record " << i;
  }
}

TEST(SupernodeTest, LineQueryMatchesBruteForce) {
  SupernodeFixture f;
  Rng rng(3);
  const auto points = UniformCloud(rng, 1500, 8);
  for (RecordId i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(f.tree->Insert(points[i], i).ok());
  }
  for (int q = 0; q < 10; ++q) {
    Vec p(8), d(8);
    for (std::size_t i = 0; i < 8; ++i) {
      p[i] = rng.Uniform(0, 1);
      d[i] = rng.Uniform(-1, 1);
    }
    const geom::Line line{p, d};
    const double eps = rng.Uniform(0.05, 0.3);
    auto result =
        f.tree->LineQuery(line, eps, geom::PruneStrategy::kEepOnly, nullptr);
    ASSERT_TRUE(result.ok());
    std::set<RecordId> got;
    for (const LineMatch& m : *result) got.insert(m.record);
    std::set<RecordId> expected;
    for (RecordId i = 0; i < points.size(); ++i) {
      if (geom::Pld(points[i], line) <= eps) expected.insert(i);
    }
    EXPECT_EQ(got, expected) << "query " << q;
  }
}

TEST(SupernodeTest, DeletesShrinkChainsAndKeepInvariants) {
  SupernodeFixture f;
  Rng rng(4);
  const auto points = UniformCloud(rng, 1200, 8);
  for (RecordId i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(f.tree->Insert(points[i], i).ok());
  }
  const std::size_t live_before = f.store.num_live_pages();
  for (RecordId i = 0; i < points.size(); i += 2) {
    ASSERT_TRUE(f.tree->Delete(points[i], i).ok());
  }
  ASSERT_TRUE(f.tree->ValidateInvariants().ok()) << f.tree->ValidateInvariants();
  EXPECT_EQ(f.tree->size(), points.size() / 2);
  EXPECT_LT(f.store.num_live_pages(), live_before);
}

TEST(SupernodeTest, DisabledModeNeverFormsSupernodes) {
  SupernodeFixture f(8, /*supernodes=*/false);
  Rng rng(5);
  const auto points = UniformCloud(rng, 2000, 8);
  for (RecordId i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(f.tree->Insert(points[i], i).ok());
  }
  auto stats = f.tree->ComputeStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->supernode_count, 0u);
  EXPECT_EQ(stats->node_pages, stats->node_count);
}

TEST(SupernodeTest, SupernodesReduceOverlap) {
  // The whole point of the X-tree: trading fanout for overlap.
  Rng rng(6);
  const auto points = UniformCloud(rng, 2500, 8);
  double overlap[2];
  for (int mode = 0; mode < 2; ++mode) {
    SupernodeFixture f(8, mode == 1);
    for (RecordId i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(f.tree->Insert(points[i], i).ok());
    }
    auto stats = f.tree->ComputeStats();
    ASSERT_TRUE(stats.ok());
    overlap[mode] = stats->total_overlap_volume;
  }
  EXPECT_LT(overlap[1], overlap[0]);
}

}  // namespace
}  // namespace tsss::index

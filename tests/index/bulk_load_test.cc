#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/index/rtree.h"

namespace tsss::index {
namespace {

using geom::Mbr;
using geom::Vec;

struct BulkFixture {
  storage::MemPageStore store;
  storage::BufferPool pool{&store, 512};
  std::unique_ptr<RTree> tree;

  BulkFixture() {
    RTreeConfig config;
    config.dim = 3;
    config.max_entries = 16;
    auto created = RTree::Create(&pool, config);
    EXPECT_TRUE(created.ok());
    tree = std::move(created).value();
  }
};

std::vector<Entry> RandomEntries(Rng& rng, std::size_t count, std::size_t dim) {
  std::vector<Entry> out;
  for (RecordId i = 0; i < count; ++i) {
    Vec p(dim);
    for (auto& x : p) x = rng.Uniform(-100, 100);
    out.push_back(Entry::ForRecord(i, p));
  }
  return out;
}

TEST(BulkLoadTest, EmptyLoadGivesEmptyTree) {
  BulkFixture f;
  ASSERT_TRUE(f.tree->BulkLoad({}).ok());
  EXPECT_EQ(f.tree->size(), 0u);
  EXPECT_EQ(f.tree->height(), 1u);
  ASSERT_TRUE(f.tree->ValidateInvariants().ok());
}

TEST(BulkLoadTest, SingleLeafWhenFewEntries) {
  BulkFixture f;
  Rng rng(1);
  ASSERT_TRUE(f.tree->BulkLoad(RandomEntries(rng, 10, 3)).ok());
  EXPECT_EQ(f.tree->size(), 10u);
  EXPECT_EQ(f.tree->height(), 1u);
  ASSERT_TRUE(f.tree->ValidateInvariants().ok());
}

TEST(BulkLoadTest, LargeLoadKeepsAllRecordsQueryable) {
  BulkFixture f;
  Rng rng(2);
  std::vector<Entry> entries = RandomEntries(rng, 5000, 3);
  std::vector<Vec> points;
  for (const Entry& e : entries) points.push_back(e.mbr.lo());
  ASSERT_TRUE(f.tree->BulkLoad(std::move(entries)).ok());
  EXPECT_EQ(f.tree->size(), 5000u);
  EXPECT_GT(f.tree->height(), 2u);
  ASSERT_TRUE(f.tree->ValidateInvariants().ok()) << f.tree->ValidateInvariants();

  for (RecordId i = 0; i < 5000; i += 113) {
    auto result = f.tree->RangeQuery(Mbr::FromPoint(points[i]));
    ASSERT_TRUE(result.ok());
    EXPECT_NE(std::find(result->begin(), result->end(), i), result->end());
  }
}

TEST(BulkLoadTest, ReplacesPreviousContents) {
  BulkFixture f;
  Rng rng(3);
  ASSERT_TRUE(f.tree->Insert(Vec{1.0, 2.0, 3.0}, 999999).ok());
  ASSERT_TRUE(f.tree->BulkLoad(RandomEntries(rng, 100, 3)).ok());
  EXPECT_EQ(f.tree->size(), 100u);
  auto result = f.tree->RangeQuery(Mbr::FromPoint(Vec{1.0, 2.0, 3.0}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::find(result->begin(), result->end(), RecordId{999999}),
            result->end());
}

TEST(BulkLoadTest, DoesNotLeakPages) {
  BulkFixture f;
  Rng rng(4);
  ASSERT_TRUE(f.tree->BulkLoad(RandomEntries(rng, 2000, 3)).ok());
  const std::size_t live_after_first = f.store.num_live_pages();
  // Re-loading the same data must free the old tree's pages.
  ASSERT_TRUE(f.tree->BulkLoad(RandomEntries(rng, 2000, 3)).ok());
  EXPECT_LE(f.store.num_live_pages(), live_after_first + 2);
}

TEST(BulkLoadTest, SupportsDynamicInsertAfterLoad) {
  BulkFixture f;
  Rng rng(5);
  ASSERT_TRUE(f.tree->BulkLoad(RandomEntries(rng, 1000, 3)).ok());
  for (RecordId i = 0; i < 200; ++i) {
    Vec p(3);
    for (auto& x : p) x = rng.Uniform(-100, 100);
    ASSERT_TRUE(f.tree->Insert(p, 100000 + i).ok());
  }
  EXPECT_EQ(f.tree->size(), 1200u);
  ASSERT_TRUE(f.tree->ValidateInvariants().ok()) << f.tree->ValidateInvariants();
}

TEST(BulkLoadTest, RejectsDimensionMismatch) {
  BulkFixture f;
  std::vector<Entry> bad;
  bad.push_back(Entry::ForRecord(1, Vec{1.0, 2.0}));  // dim 2, tree dim 3
  EXPECT_FALSE(f.tree->BulkLoad(std::move(bad)).ok());
}

TEST(BulkLoadTest, PacksLeavesWell) {
  BulkFixture f;
  Rng rng(6);
  ASSERT_TRUE(f.tree->BulkLoad(RandomEntries(rng, 3000, 3)).ok());
  auto stats = f.tree->ComputeStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->avg_leaf_fill, 0.85) << "STR should pack leaves nearly full";
}

}  // namespace
}  // namespace tsss::index

// Failure injection: corrupt pages underneath a live R-tree and verify that
// every query path surfaces a clean Corruption status instead of crashing or
// silently returning wrong answers.

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/index/rtree.h"

namespace tsss::index {
namespace {

using geom::Line;
using geom::Mbr;
using geom::Vec;

struct CorruptionFixture : public ::testing::Test {
  storage::MemPageStore store;
  storage::BufferPool pool{&store, 64};
  std::unique_ptr<RTree> tree;
  std::vector<Vec> points;

  void SetUp() override {
    RTreeConfig config;
    config.dim = 2;
    config.max_entries = 4;
    config.leaf_max_entries = 4;
    auto created = RTree::Create(&pool, config);
    ASSERT_TRUE(created.ok());
    tree = std::move(created).value();
    Rng rng(1);
    for (RecordId i = 0; i < 200; ++i) {
      Vec p{rng.Uniform(-50, 50), rng.Uniform(-50, 50)};
      points.push_back(p);
      ASSERT_TRUE(tree->Insert(p, i).ok());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
  }

  /// Overwrites every live page except the root's first page with garbage,
  /// so any descent must hit a bad page.
  void SmashAllButRoot() {
    ASSERT_TRUE(pool.Clear().ok());
    storage::Page garbage;
    garbage.bytes.fill(0x5A);
    for (storage::PageId id = 0; id < store.capacity_pages(); ++id) {
      if (id == tree->root_page()) continue;
      if (store.num_live_pages() == 0) break;
      Status s = store.Write(id, garbage);
      (void)s;  // freed pages are skipped via error
    }
  }
};

TEST_F(CorruptionFixture, RangeQuerySurfacesCorruption) {
  SmashAllButRoot();
  auto result = tree->RangeQuery(Mbr::FromCorners({-100, -100}, {100, 100}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST_F(CorruptionFixture, LineQuerySurfacesCorruption) {
  SmashAllButRoot();
  const Line line{{0.0, 0.0}, {1.0, 1.0}};
  auto result = tree->LineQuery(line, 100.0, geom::PruneStrategy::kEepOnly,
                                nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST_F(CorruptionFixture, KnnSurfacesCorruption) {
  SmashAllButRoot();
  const Line line{{0.0, 0.0}, {1.0, 1.0}};
  auto it = tree->NearestLineNeighbors(line);
  Status last = Status::OK();
  for (int i = 0; i < 500; ++i) {
    auto next = it.Next();
    if (!next.ok()) {
      last = next.status();
      break;
    }
    if (!next->has_value()) break;
  }
  EXPECT_EQ(last.code(), StatusCode::kCorruption);
}

TEST_F(CorruptionFixture, InsertSurfacesCorruption) {
  SmashAllButRoot();
  // The root decodes, but descending to choose a leaf cannot.
  Status s = tree->Insert(Vec{0.0, 0.0}, 99999);
  EXPECT_FALSE(s.ok());
}

TEST_F(CorruptionFixture, CheckInvariantsDetectsDamage) {
  SmashAllButRoot();
  EXPECT_FALSE(tree->ValidateInvariants().ok());
}

TEST(CorruptionDetailTest, BadLevelInChildIsCaught) {
  // Surgical corruption: rewrite one leaf with a wrong level field.
  storage::MemPageStore store;
  storage::BufferPool pool(&store, 64);
  RTreeConfig config;
  config.dim = 2;
  config.max_entries = 4;
  config.leaf_max_entries = 4;
  auto tree = RTree::Create(&pool, config).value();
  Rng rng(2);
  for (RecordId i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        tree->Insert(Vec{rng.Uniform(0, 10), rng.Uniform(0, 10)}, i).ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.Clear().ok());

  // Find some non-root page and re-encode it with a bogus level.
  const NodeCodec codec(2);
  for (storage::PageId id = 0; id < store.capacity_pages(); ++id) {
    if (id == tree->root_page()) continue;
    storage::Page page;
    if (!store.Read(id, &page).ok()) continue;
    auto leaf = codec.Decode(page);
    if (!leaf.ok() || leaf->level != 0) continue;
    Node fake;
    fake.level = 7;  // wrong level
    fake.entries = leaf->entries;
    ASSERT_TRUE(codec.Encode(fake, &page).ok());
    ASSERT_TRUE(store.Write(id, page).ok());
    break;
  }
  EXPECT_FALSE(tree->ValidateInvariants().ok());
}

}  // namespace
}  // namespace tsss::index

// The query read path reads node pages in place through NodeView. These
// tests pin it to the decoded form it replaces:
//  * every page of point-leaf and box-leaf (sub-trail) trees reads the
//    same through View as through Decode, bit for bit;
//  * LineQuery and LineKnn give the same answers, order, distances and
//    PenetrationStats as a reference traversal over VisitNodes' decoded
//    nodes and the Mbr forms of the geometry;
//  * four threads reading one shared pool agree with a single thread.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/core/engine.h"
#include "tsss/index/rtree.h"
#include "tsss/seq/stock_generator.h"

namespace tsss::index {
namespace {

using geom::Line;
using geom::PenetrationStats;
using geom::PruneStrategy;
using geom::Vec;

constexpr PruneStrategy kStrategies[] = {PruneStrategy::kEepOnly,
                                         PruneStrategy::kBoundingSpheres,
                                         PruneStrategy::kExactDistance};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Reads every page of `tree` both ways and compares all fields.
void ExpectViewsMatchDecode(const RTree& tree, storage::BufferPool* pool,
                            std::size_t* pages_seen) {
  const NodeCodec codec(tree.config().dim, tree.config().box_leaves);
  const std::size_t dim = tree.config().dim;
  Vec lo(dim);
  Vec hi(dim);
  std::vector<storage::PageId> pages;
  ASSERT_TRUE(tree.VisitNodes([&](const Node&, storage::PageId id) {
                    pages.push_back(id);
                  }).ok());
  for (storage::PageId id : pages) {
    Result<storage::PageGuard> guard = pool->Fetch(id);
    ASSERT_TRUE(guard.ok());
    Result<NodeView> view = codec.View(guard->page());
    Result<Node> node = codec.Decode(guard->page());
    ASSERT_TRUE(view.ok()) << view.status();
    ASSERT_TRUE(node.ok()) << node.status();
    ++*pages_seen;
    EXPECT_EQ(view->level(), node->level);
    EXPECT_EQ(view->is_leaf(), node->is_leaf());
    ASSERT_EQ(view->size(), node->entries.size());
    for (std::size_t k = 0; k < view->size(); ++k) {
      const Entry& e = node->entries[k];
      if (view->is_leaf()) {
        EXPECT_EQ(view->record(k), e.record);
      } else {
        EXPECT_EQ(view->child(k), e.child);
      }
      view->Corners(k, lo, hi);
      for (std::size_t i = 0; i < dim; ++i) {
        EXPECT_TRUE(SameBits(lo[i], e.mbr.lo()[i])) << "page " << id;
        EXPECT_TRUE(SameBits(hi[i], e.mbr.hi()[i])) << "page " << id;
      }
    }
  }
}

/// Reference traversal over decoded nodes and the Mbr forms of the
/// geometry: the visit order, answers, distances and counters that
/// LineQuery and LineKnn must reproduce.
struct Reference {
  std::map<storage::PageId, Node> nodes;
  storage::PageId root = storage::kInvalidPageId;
  bool box_leaves = false;

  explicit Reference(const RTree& tree)
      : root(tree.root_page()), box_leaves(tree.config().box_leaves) {
    EXPECT_TRUE(tree.VisitNodes([&](const Node& node, storage::PageId id) {
                      nodes[id] = node;
                    }).ok());
  }

  std::vector<LineMatch> LineQuery(const Line& line, double eps,
                                   PruneStrategy strategy,
                                   PenetrationStats* stats) const {
    std::vector<LineMatch> out;
    std::vector<storage::PageId> stack{root};
    while (!stack.empty()) {
      const Node& node = nodes.at(stack.back());
      stack.pop_back();
      for (const Entry& e : node.entries) {
        if (!node.is_leaf()) {
          if (geom::ShouldVisit(line, e.mbr, eps, strategy, stats)) {
            stack.push_back(e.child);
          }
        } else if (box_leaves) {
          if (geom::ShouldVisit(line, e.mbr, eps, strategy, stats)) {
            out.push_back(LineMatch{e.record, geom::LineMbrDistance(line, e.mbr)});
          }
        } else {
          const double d = geom::Pld(e.mbr.lo(), line);
          if (d <= eps) out.push_back(LineMatch{e.record, d});
        }
      }
    }
    return out;
  }

  std::vector<LineMatch> LineKnn(const Line& line, std::size_t k) const {
    struct Item {
      double distance;
      bool is_record;
      storage::PageId page;
      LineMatch match;
      bool operator>(const Item& other) const { return distance > other.distance; }
    };
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    heap.push(Item{0.0, false, root, {}});
    std::vector<LineMatch> out;
    while (!heap.empty() && out.size() < k) {
      const Item item = heap.top();
      heap.pop();
      if (item.is_record) {
        out.push_back(item.match);
        continue;
      }
      const Node& node = nodes.at(item.page);
      for (const Entry& e : node.entries) {
        Item child{};
        if (node.is_leaf()) {
          child.is_record = true;
          child.distance = box_leaves ? geom::LineMbrDistance(line, e.mbr)
                                      : geom::Pld(e.mbr.lo(), line);
          child.match = LineMatch{e.record, child.distance};
        } else {
          child.page = e.child;
          child.distance = geom::LineMbrDistance(line, e.mbr);
        }
        heap.push(child);
      }
    }
    return out;
  }
};

void ExpectSameMatches(const std::vector<LineMatch>& got,
                       const std::vector<LineMatch>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].record, want[i].record) << "at " << i;
    EXPECT_TRUE(SameBits(got[i].reduced_distance, want[i].reduced_distance))
        << "at " << i << ": " << got[i].reduced_distance << " vs "
        << want[i].reduced_distance;
  }
}

void ExpectSameStats(const PenetrationStats& got, const PenetrationStats& want) {
  EXPECT_EQ(got.tests, want.tests);
  EXPECT_EQ(got.visits, want.visits);
  EXPECT_EQ(got.outer_rejects, want.outer_rejects);
  EXPECT_EQ(got.inner_accepts, want.inner_accepts);
  EXPECT_EQ(got.slab_tests, want.slab_tests);
  EXPECT_EQ(got.sphere_tests, want.sphere_tests);
  EXPECT_EQ(got.exact_tests, want.exact_tests);
}

/// Query lines for a tree over points in [lo, hi]^dim: random lines through
/// the data, an axis-parallel one (zero direction components) and a
/// zero-direction line (the scaling line of a constant query).
std::vector<Line> QueryLines(Rng& rng, std::size_t dim, double lo, double hi) {
  std::vector<Line> lines;
  for (int q = 0; q < 6; ++q) {
    Vec p(dim);
    Vec d(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      p[i] = rng.Uniform(lo, hi);
      d[i] = rng.Uniform(-1, 1);
    }
    lines.push_back(Line{p, d});
  }
  Vec p(dim);
  for (double& x : p) x = rng.Uniform(lo, hi);
  Vec axis(dim, 0.0);
  axis[0] = 1.0;
  lines.push_back(Line{p, axis});
  lines.push_back(Line{p, Vec(dim, 0.0)});
  return lines;
}

/// LineQuery (every strategy, several eps including 0) and LineKnn against
/// the reference traversal.
void ExpectQueriesMatchReference(const RTree& tree, double lo, double hi,
                                 std::uint64_t seed) {
  const Reference ref(tree);
  Rng rng(seed);
  const double span = hi - lo;
  for (const Line& line : QueryLines(rng, tree.config().dim, lo, hi)) {
    for (const double eps : {0.0, 0.02 * span, 0.2 * span}) {
      for (const PruneStrategy strategy : kStrategies) {
        SCOPED_TRACE(::testing::Message()
                     << "eps " << eps << " strategy "
                     << geom::PruneStrategyToString(strategy));
        PenetrationStats got_stats;
        PenetrationStats want_stats;
        Result<std::vector<LineMatch>> got =
            tree.LineQuery(line, eps, strategy, &got_stats);
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectSameMatches(*got, ref.LineQuery(line, eps, strategy, &want_stats));
        ExpectSameStats(got_stats, want_stats);
      }
    }
    for (const std::size_t k : {std::size_t{1}, std::size_t{10}, std::size_t{60}}) {
      Result<std::vector<LineMatch>> got = tree.LineKnn(line, k);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectSameMatches(*got, ref.LineKnn(line, k));
    }
  }
}

struct PointTree {
  storage::MemPageStore store;
  storage::BufferPool pool;
  std::unique_ptr<RTree> tree;

  explicit PointTree(std::size_t points, std::size_t pool_pages = 1024)
      : pool(&store, pool_pages) {
    RTreeConfig config;
    config.dim = 6;
    config.max_entries = 8;
    config.leaf_max_entries = 16;
    auto created = RTree::Create(&pool, config);
    EXPECT_TRUE(created.ok()) << created.status();
    tree = std::move(created).value();
    Rng rng(3);
    for (RecordId r = 0; r < points; ++r) {
      Vec p(config.dim);
      for (double& x : p) x = rng.Uniform(0, 1);
      EXPECT_TRUE(tree->Insert(p, r).ok());
    }
  }
};

TEST(NodeViewTest, PointLeafTreeReadsTheSameBothWays) {
  PointTree f(1500);
  std::size_t pages = 0;
  ExpectViewsMatchDecode(*f.tree, &f.pool, &pages);
  EXPECT_GT(pages, 100u);
  ExpectQueriesMatchReference(*f.tree, 0.0, 1.0, 11);
}

TEST(NodeViewTest, SubtrailBoxLeafTreeReadsTheSameBothWays) {
  core::EngineConfig config;
  config.window = 32;
  config.subtrail_len = 25;
  config.buffer_pool_pages = 1024;
  config.cold_cache_per_query = false;
  auto engine = core::SearchEngine::Create(config);
  ASSERT_TRUE(engine.ok()) << engine.status();
  seq::StockMarketConfig mc;
  mc.num_companies = 40;
  mc.values_per_company = 400;
  mc.seed = 5;
  ASSERT_TRUE((*engine)->BulkBuild(seq::GenerateStockMarket(mc)).ok());
  RTree& tree = (*engine)->tree();
  ASSERT_TRUE(tree.config().box_leaves);
  std::size_t pages = 0;
  ExpectViewsMatchDecode(tree, tree.pool(), &pages);
  EXPECT_GT(pages, 5u);

  // Query lines through the reduced space the boxes occupy.
  double lo = 0.0;
  double hi = 0.0;
  ASSERT_TRUE(tree.VisitNodes([&](const Node& node, storage::PageId) {
                    for (const Entry& e : node.entries) {
                      for (std::size_t i = 0; i < e.mbr.dim(); ++i) {
                        lo = std::min(lo, e.mbr.lo()[i]);
                        hi = std::max(hi, e.mbr.hi()[i]);
                      }
                    }
                  }).ok());
  ExpectQueriesMatchReference(tree, lo, hi, 13);
}

TEST(NodeViewTest, ViewRejectsWhatDecodeRejects) {
  const NodeCodec codec(3, /*box_leaves=*/true);
  Node internal;
  internal.level = 1;
  internal.entries.push_back(
      Entry::ForChild(4, geom::Mbr::FromCorners({0, 0, 0}, {1, 1, 1})));
  internal.entries.push_back(
      Entry::ForChild(5, geom::Mbr::FromCorners({2, 2, 2}, {3, 3, 3})));
  storage::Page good;
  ASSERT_TRUE(codec.Encode(internal, &good).ok());
  ASSERT_TRUE(codec.View(good).ok());

  // Second entry's hi[1] (header 14 B, internal entry 4 + 48 B).
  const std::size_t hi1 = 14 + 52 + 4 + 3 * 8 + 8;
  for (const double bad : {std::nan(""), -1.0,
                           std::numeric_limits<double>::infinity()}) {
    storage::Page page = good;
    std::memcpy(page.bytes.data() + hi1, &bad, sizeof bad);
    Result<NodeView> view = codec.View(page);
    Result<Node> node = codec.Decode(page);
    ASSERT_FALSE(view.ok());
    EXPECT_EQ(view.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(view.status().ToString(), node.status().ToString());
  }
  storage::Page wrong_magic = good;
  wrong_magic.bytes[0] ^= 0xFF;
  EXPECT_EQ(codec.View(wrong_magic).status().ToString(),
            codec.Decode(wrong_magic).status().ToString());
  EXPECT_EQ(NodeCodec(4, true).View(good).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(NodeCodec(3, false).View(good).status().code(), StatusCode::kCorruption);
}

// Four threads read one tree through one shared, evicting pool. Each must
// see exactly what a lone thread sees. Run under TSan in CI.
TEST(ReadPathConcurrencyTest, FourThreadsShareOnePool) {
  PointTree f(4000, /*pool_pages=*/64);
  Rng rng(21);
  const std::vector<Line> lines = QueryLines(rng, 6, 0.0, 1.0);
  std::vector<std::vector<LineMatch>> want_range;
  std::vector<std::vector<LineMatch>> want_knn;
  for (const Line& line : lines) {
    want_range.push_back(
        *f.tree->LineQuery(line, 0.1, PruneStrategy::kEepOnly, nullptr));
    want_knn.push_back(*f.tree->LineKnn(line, 10));
  }
  std::vector<std::vector<std::vector<LineMatch>>> got_range(4);
  std::vector<std::vector<std::vector<LineMatch>>> got_knn(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t q = 0; q < lines.size(); ++q) {
          const std::size_t at = (q + t) % lines.size();
          Result<std::vector<LineMatch>> range = f.tree->LineQuery(
              lines[at], 0.1, PruneStrategy::kEepOnly, nullptr);
          Result<std::vector<LineMatch>> knn = f.tree->LineKnn(lines[at], 10);
          if (round == 0) {
            got_range[t].resize(lines.size());
            got_knn[t].resize(lines.size());
          }
          got_range[t][at] = range.ok() ? *range : std::vector<LineMatch>{};
          got_knn[t][at] = knn.ok() ? *knn : std::vector<LineMatch>{};
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t q = 0; q < lines.size(); ++q) {
      ExpectSameMatches(got_range[t][q], want_range[q]);
      ExpectSameMatches(got_knn[t][q], want_knn[q]);
    }
  }
  EXPECT_TRUE(f.pool.AuditPins().ok());
}

}  // namespace
}  // namespace tsss::index

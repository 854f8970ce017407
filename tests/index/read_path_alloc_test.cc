// The query read path must not allocate per index entry: nodes are read in
// place through NodeView and the penetration/distance tests run on
// per-query scratch. This executable replaces the global operator new with a
// counting one and checks that one LineQuery and one 10-NN on a point tree
// allocate about as often on a tree 10x larger as on a small one, with the
// same result size. What is left is per-query setup and the geometric growth
// of the stack and heap vectors - logarithmic, not per node.
//
// It is its own executable because the replacement operator new is global.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/index/rtree.h"
#include "tsss/obs/query_telemetry.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Kept out of line: inlined into a caller, a `malloc` in `new` or a `free`
// in `delete` reads to GCC as a mismatched pair (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: test counter
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tsss::index {
namespace {

using geom::Line;
using geom::PruneStrategy;
using geom::Vec;

constexpr std::size_t kDim = 6;
constexpr std::size_t kPlanted = 10;

/// Allocation slack between the two trees: the DFS-stack and kNN heap
/// vectors grow geometrically, so a tree visiting ~4x the nodes may
/// reallocate them a few more times. A per-node or per-entry allocation
/// would add hundreds.
constexpr std::uint64_t kGrowthSlack = 4;

/// The query line: every tree holds kPlanted points exactly on it and
/// random points in a thin tube around it, so a near-zero eps and k = 10
/// return the same records on every tree while the walk visits every node
/// the line passes through - a number that grows with the tree.
Line QueryLine() {
  Vec p(kDim, 0.5);
  Vec d(kDim);
  for (std::size_t i = 0; i < kDim; ++i) d[i] = 0.1 * static_cast<double>(i + 1);
  return Line{p, d};
}

struct Tree {
  storage::MemPageStore store;
  storage::BufferPool pool{&store, 8192};
  std::unique_ptr<RTree> tree;

  explicit Tree(std::size_t random_points) {
    RTreeConfig config;
    config.dim = kDim;
    config.leaf_max_entries = 16;
    tree = std::move(RTree::Create(&pool, config)).value();
    const Line line = QueryLine();
    std::vector<Entry> entries;
    for (std::size_t j = 0; j < kPlanted; ++j) {
      const double t = -1.0 + 0.2 * static_cast<double>(j);
      entries.push_back(Entry::ForRecord(j, line.At(t)));
    }
    Rng rng(99);
    for (std::size_t j = 0; j < random_points; ++j) {
      Vec p = line.At(rng.Uniform(-2.0, 2.0));
      for (double& x : p) x += rng.Uniform(-0.05, 0.05);
      entries.push_back(Entry::ForRecord(kPlanted + j, p));
    }
    EXPECT_TRUE(tree->BulkLoad(std::move(entries)).ok());
  }
};

struct Cost {
  std::uint64_t allocations = 0;
  std::uint64_t nodes = 0;
  std::size_t results = 0;
};

template <typename Query>
Cost Measure(Query query) {
  query();  // warm-up: every visited page is now resident
  obs::QueryTelemetry telemetry;
  obs::ScopedQueryTelemetry scope(&telemetry);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);  // relaxed-ok: single thread
  const std::size_t results = query();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);  // relaxed-ok: single thread
  return Cost{after - before, telemetry.nodes_visited, results};
}

TEST(ReadPathAllocTest, LineQueryAllocationsDoNotGrowWithNodesVisited) {
  Tree small(2000);
  Tree large(20000);
  const Line line = QueryLine();
  auto range = [&line](const Tree& t) {
    return [&line, &t] {
      return t.tree->LineQuery(line, 1e-9, PruneStrategy::kEepOnly, nullptr)->size();
    };
  };
  const Cost s = Measure(range(small));
  const Cost l = Measure(range(large));
  ASSERT_EQ(s.results, kPlanted);
  ASSERT_EQ(l.results, kPlanted);
  ASSERT_GE(l.nodes, 3 * s.nodes) << "the large tree must visit many more nodes";
  EXPECT_LE(l.allocations, s.allocations + kGrowthSlack)
      << "small: " << s.allocations << " allocations over " << s.nodes
      << " nodes; large: " << l.allocations << " over " << l.nodes;
}

TEST(ReadPathAllocTest, KnnAllocationsDoNotGrowWithNodesVisited) {
  Tree small(2000);
  Tree large(20000);
  const Line line = QueryLine();
  auto knn = [&line](const Tree& t) {
    return [&line, &t] { return t.tree->LineKnn(line, kPlanted)->size(); };
  };
  const Cost s = Measure(knn(small));
  const Cost l = Measure(knn(large));
  ASSERT_EQ(s.results, kPlanted);
  ASSERT_EQ(l.results, kPlanted);
  ASSERT_GE(l.nodes, 3 * s.nodes) << "the large tree must visit many more nodes";
  EXPECT_LE(l.allocations, s.allocations + kGrowthSlack)
      << "small: " << s.allocations << " allocations over " << s.nodes
      << " nodes; large: " << l.allocations << " over " << l.nodes;
}

}  // namespace
}  // namespace tsss::index

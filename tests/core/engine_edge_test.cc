// Edge-case behaviours of the engine not covered by the main suites:
// mixed-length corpora, ingestion ordering constraints, degenerate epsilon,
// and stats determinism under the cold-cache model.

#include <cstdio>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/core/engine.h"
#include "tsss/seq/patterns.h"

namespace tsss::core {
namespace {

using geom::Vec;

EngineConfig SmallConfig() {
  EngineConfig config;
  config.window = 16;
  config.reduced_dim = 4;
  config.tree.max_entries = 8;
  return config;
}

TEST(EngineEdgeTest, MixedLengthCorpusIndexesOnlyCompleteWindows) {
  auto engine = SearchEngine::Create(SmallConfig());
  ASSERT_TRUE(engine.ok());
  std::vector<seq::TimeSeries> corpus;
  corpus.push_back({"empty", {}});
  corpus.push_back({"short", Vec(7, 1.0)});
  corpus.push_back({"exact", Vec(16, 2.0)});
  corpus.push_back({"long", Vec(20, 3.0)});
  ASSERT_TRUE((*engine)->BulkBuild(corpus).ok());
  EXPECT_EQ((*engine)->num_indexed_windows(), 0u + 0u + 1u + 5u);
  EXPECT_EQ((*engine)->dataset().size(), 4u);  // all series stored regardless
}

TEST(EngineEdgeTest, AppendToNonLastSeriesFailsCleanly) {
  auto engine = SearchEngine::Create(SmallConfig());
  ASSERT_TRUE(engine.ok());
  auto first = (*engine)->AddSeries("a", Vec(20, 1.0));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*engine)->AddSeries("b", Vec(20, 2.0)).ok());
  const std::size_t before = (*engine)->num_indexed_windows();
  const double v = 3.0;
  EXPECT_EQ((*engine)->Append(*first, std::span<const double>(&v, 1)).code(),
            StatusCode::kFailedPrecondition);
  // The failed append must not have half-indexed anything.
  EXPECT_EQ((*engine)->num_indexed_windows(), before);
  ASSERT_TRUE((*engine)->tree().ValidateInvariants().ok());
}

TEST(EngineEdgeTest, AppendSingleValuesStreamEquivalentToBatch) {
  Rng rng(77);
  Vec values(48);
  for (auto& x : values) x = rng.Uniform(0, 10);

  auto batch = SearchEngine::Create(SmallConfig());
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE((*batch)->AddSeries("s", values).ok());

  auto streamed = SearchEngine::Create(SmallConfig());
  ASSERT_TRUE(streamed.ok());
  auto id = (*streamed)->AddSeries("s", std::span<const double>(values.data(), 1));
  ASSERT_TRUE(id.ok());
  for (std::size_t i = 1; i < values.size(); ++i) {
    ASSERT_TRUE(
        (*streamed)->Append(*id, std::span<const double>(&values[i], 1)).ok());
  }
  EXPECT_EQ((*streamed)->num_indexed_windows(), (*batch)->num_indexed_windows());

  const Vec query(values.begin() + 13, values.begin() + 29);
  auto a = (*batch)->RangeQuery(query, 0.5);
  auto b = (*streamed)->RangeQuery(query, 0.5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].record, (*b)[i].record);
  }
}

TEST(EngineEdgeTest, HugeEpsilonReturnsEveryWindow) {
  auto engine = SearchEngine::Create(SmallConfig());
  ASSERT_TRUE(engine.ok());
  Rng rng(78);
  Vec values(60);
  for (auto& x : values) x = rng.Uniform(0, 100);
  ASSERT_TRUE((*engine)->AddSeries("s", values).ok());
  auto matches = (*engine)->RangeQuery(seq::RampPattern(16), 1e12);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 45u);
}

TEST(EngineEdgeTest, QueryStatsDeterministicUnderColdCache) {
  auto engine = SearchEngine::Create(SmallConfig());
  ASSERT_TRUE(engine.ok());
  Rng rng(79);
  for (int s = 0; s < 6; ++s) {
    Vec values(80);
    for (auto& x : values) x = rng.Uniform(0, 10);
    char name[16];
    std::snprintf(name, sizeof(name), "s%d", s);
    ASSERT_TRUE((*engine)->AddSeries(name, values).ok());
  }
  const Vec query = seq::SinePattern(16);
  QueryStats first, second;
  ASSERT_TRUE((*engine)->RangeQuery(query, 0.7, TransformCost{}, &first).ok());
  ASSERT_TRUE((*engine)->RangeQuery(query, 0.7, TransformCost{}, &second).ok());
  EXPECT_EQ(first.index_page_reads, second.index_page_reads);
  EXPECT_EQ(first.data_page_reads, second.data_page_reads);
  EXPECT_EQ(first.candidates, second.candidates);
  EXPECT_EQ(first.matches, second.matches);
}

TEST(EngineEdgeTest, MinimumWindowLengthTwo) {
  EngineConfig config;
  config.window = 2;
  config.reducer = reduce::ReducerKind::kIdentity;
  config.reduced_dim = 2;
  config.tree.max_entries = 8;
  auto engine = SearchEngine::Create(config);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->AddSeries("s", Vec{1.0, 2.0, 4.0, 4.0}).ok());
  // Window (1,2): every non-constant length-2 window is an affine image.
  auto matches = (*engine)->RangeQuery(Vec{10.0, 20.0}, 1e-9);
  ASSERT_TRUE(matches.ok());
  // (1,2) and (2,4) match exactly; (4,4) is constant - not reachable from a
  // non-constant query with distance 0... but a*x+b with a=0,b=4 reaches it!
  // Distance 0 via a = 0: all three windows match.
  EXPECT_EQ(matches->size(), 3u);
}

}  // namespace
}  // namespace tsss::core

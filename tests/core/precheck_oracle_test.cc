// Engine-level guard for the verification pre-check and the no-copy window
// view: range and k-NN answers of point-mode and sub-trail engines must be
// bit-identical to the unfiltered sequential scan across many eps and k, and
// the per-query counts must equal those of a reference verify loop that runs
// Align() on every candidate: the same candidates, and the data pages that
// the storage layout says those candidates occupy.

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/core/engine.h"
#include "tsss/core/seq_scan.h"
#include "tsss/seq/stock_generator.h"
#include "tsss/seq/window.h"

namespace tsss::core {
namespace {

using geom::Vec;

constexpr std::size_t kWindow = 32;

/// A small market plus the shapes that produce exact ties: a duplicated
/// series and two flat ones.
std::vector<seq::TimeSeries> Corpus() {
  seq::StockMarketConfig mc;
  mc.num_companies = 10;
  mc.values_per_company = 160;
  mc.seed = 4242;
  std::vector<seq::TimeSeries> corpus = seq::GenerateStockMarket(mc);
  seq::TimeSeries copy = corpus[3];
  copy.name += "_copy";
  corpus.push_back(copy);
  corpus.push_back(seq::TimeSeries{"flat_low", Vec(80, 17.25)});
  corpus.push_back(seq::TimeSeries{"flat_high", Vec(60, 1e6 + 0.1)});
  return corpus;
}

EngineConfig Config(std::size_t subtrail_len) {
  EngineConfig config;
  config.window = kWindow;
  config.reduced_dim = 4;
  config.tree.max_entries = 12;
  config.buffer_pool_pages = 512;
  config.subtrail_len = subtrail_len;
  return config;
}

/// The windows one leaf entry stands for (SearchEngine::ExpandCandidate).
std::vector<index::RecordId> Expand(const SearchEngine& engine,
                                    index::RecordId record) {
  const EngineConfig& config = engine.config();
  if (config.subtrail_len == 0) return {record};
  const storage::SeriesId series = seq::SeriesOf(record);
  auto len = engine.dataset().store().SeriesLength(series);
  EXPECT_TRUE(len.ok());
  const std::size_t first = seq::OffsetOf(record) / config.stride;
  const std::size_t last = (*len - config.window) / config.stride;
  std::vector<index::RecordId> out;
  for (std::size_t w = first; w <= std::min(first + config.subtrail_len - 1, last);
       ++w) {
    out.push_back(
        seq::MakeRecordId(series, static_cast<std::uint32_t>(w * config.stride)));
  }
  return out;
}

/// The data pages [first, last] that window `record` occupies in the
/// densely packed value heap (4 KiB pages, SequenceStore's layout).
std::pair<std::size_t, std::size_t> PagesOf(const SearchEngine& engine,
                                            index::RecordId record) {
  const storage::SequenceStore& store = engine.dataset().store();
  auto base = store.SeriesValues(0);
  auto series = store.SeriesValues(seq::SeriesOf(record));
  EXPECT_TRUE(base.ok() && series.ok());
  const auto start = static_cast<std::size_t>(series->data() - base->data()) +
                     seq::OffsetOf(record);
  const std::size_t per_page = storage::SequenceStore::kValuesPerPage;
  return {start / per_page, (start + kWindow - 1) / per_page};
}

/// What a query counted and answered before the pre-check: every expanded
/// candidate copied out and verified exactly. Page counts follow the
/// storage model directly rather than the store's own counters.
struct Reference {
  std::vector<Match> matches;
  std::uint64_t candidates = 0;
  std::uint64_t data_page_reads = 0;
};

Reference ReferenceRange(const SearchEngine& engine, const Vec& query, double eps) {
  const QueryContext ctx(query);
  geom::PenetrationStats pen;
  auto hits = engine.tree().LineQuery(engine.ReducedQueryLine(query), eps,
                                      engine.config().prune, &pen);
  EXPECT_TRUE(hits.ok());
  std::vector<index::RecordId> expanded;
  for (const index::LineMatch& hit : *hits) {
    for (const index::RecordId r : Expand(engine, hit.record)) expanded.push_back(r);
  }
  std::sort(expanded.begin(), expanded.end());
  Reference ref;
  Vec window(kWindow);
  std::set<std::size_t> pages;  // a range query reads each page once
  for (const index::RecordId record : expanded) {
    EXPECT_TRUE(engine.dataset()
                    .store()
                    .ReadWindow(seq::SeriesOf(record), seq::OffsetOf(record), window)
                    .ok());
    auto match = VerifyCandidateExact(ctx, window, record, eps, TransformCost{});
    if (match.has_value()) ref.matches.push_back(*match);
    const auto [first, last] = PagesOf(engine, record);
    for (std::size_t p = first; p <= last; ++p) pages.insert(p);
  }
  ref.candidates = expanded.size();
  ref.data_page_reads = pages.size();
  return ref;
}

Reference ReferenceKnn(const SearchEngine& engine, const Vec& query, std::size_t k) {
  const QueryContext ctx(query);
  std::priority_queue<Match, std::vector<Match>, decltype(&CanonicalBefore)> best(
      &CanonicalBefore);
  auto it = engine.tree().NearestLineNeighbors(engine.ReducedQueryLine(query));
  Reference ref;
  Vec window(kWindow);
  while (true) {
    auto next = it.Next();
    EXPECT_TRUE(next.ok());
    if (!next->has_value()) break;
    const double limit = best.size() == k ? best.top().distance
                                          : std::numeric_limits<double>::infinity();
    if ((*next)->reduced_distance > limit) break;
    for (const index::RecordId record : Expand(engine, (*next)->record)) {
      ++ref.candidates;
      const auto [first, last] = PagesOf(engine, record);
      ref.data_page_reads += last - first + 1;  // k-NN counts every read
      EXPECT_TRUE(engine.dataset()
                      .store()
                      .ReadWindow(seq::SeriesOf(record), seq::OffsetOf(record), window)
                      .ok());
      const Match match = MakeMatch(record, ctx.Align(window));
      if (best.size() == k && !CanonicalBefore(match, best.top())) continue;
      best.push(match);
      if (best.size() > k) best.pop();
    }
  }
  while (!best.empty()) {
    ref.matches.push_back(best.top());
    best.pop();
  }
  std::reverse(ref.matches.begin(), ref.matches.end());
  return ref;
}

/// Same records in the same order, with bit-identical distances and (a, b).
void ExpectIdentical(const std::vector<Match>& got, const std::vector<Match>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].record, want[i].record) << what << " #" << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " #" << i;
    EXPECT_EQ(got[i].transform.scale, want[i].transform.scale) << what << " #" << i;
    EXPECT_EQ(got[i].transform.offset, want[i].transform.offset) << what << " #" << i;
  }
}

std::vector<Match> ByRecord(std::vector<Match> matches) {
  std::sort(matches.begin(), matches.end(),
            [](const Match& a, const Match& b) { return a.record < b.record; });
  return matches;
}

/// Queries: windows of the corpus, affine images of them, flat ones.
std::vector<Vec> Queries(const std::vector<seq::TimeSeries>& corpus) {
  Rng rng(77);
  std::vector<Vec> queries;
  for (int q = 0; q < 6; ++q) {
    const auto& values = corpus[static_cast<std::size_t>(q) % 10].values;
    const std::size_t off = static_cast<std::size_t>(rng.UniformInt(0, 120));
    Vec query(values.begin() + static_cast<std::ptrdiff_t>(off),
              values.begin() + static_cast<std::ptrdiff_t>(off + kWindow));
    const double a = q % 3 == 2 ? -0.7 : rng.Uniform(0.5, 3.0);
    const double b = rng.Uniform(-20.0, 20.0);
    for (auto& x : query) x = a * x + b + rng.Uniform(-0.05, 0.05);
    queries.push_back(std::move(query));
  }
  queries.push_back(Vec(corpus[3].values.begin() + 40,
                        corpus[3].values.begin() + 40 + kWindow));  // duplicated
  queries.push_back(Vec(kWindow, 5.0));                              // constant
  return queries;
}

class PrecheckOracleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrecheckOracleTest, RangeMatchesScanAndKeepsCounts) {
  const auto corpus = Corpus();
  auto engine = SearchEngine::Create(Config(GetParam()));
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->BulkBuild(corpus).ok());
  const SequentialScanner scanner(&(*engine)->dataset(), kWindow);

  int nonempty = 0;
  for (const Vec& query : Queries(corpus)) {
    std::vector<double> eps_values = {0.0, 0.01, 0.05, 0.1, 0.2, 0.3,
                                      0.5, 0.8, 1.2, 2.0, 4.0};
    // Also probe exactly at answer distances, where a filter that is too
    // tight would drop the boundary match.
    auto wide = scanner.RangeQuery(query, 1.0);
    ASSERT_TRUE(wide.ok());
    const std::size_t step = std::max<std::size_t>(1, wide->size() / 8);
    for (std::size_t i = 0; i < wide->size(); i += step) {
      eps_values.push_back((*wide)[i].distance);
    }
    for (const double eps : eps_values) {
      const std::string what = "eps=" + std::to_string(eps);
      QueryStats stats;
      auto fast = (*engine)->RangeQuery(query, eps, TransformCost{}, &stats);
      auto slow = scanner.RangeQuery(query, eps);
      ASSERT_TRUE(fast.ok()) << fast.status();
      ASSERT_TRUE(slow.ok());
      ExpectIdentical(ByRecord(*fast), ByRecord(*slow), what);
      const Reference ref = ReferenceRange(**engine, query, eps);
      ExpectIdentical(*fast, ref.matches, what + " (reference)");
      EXPECT_EQ(stats.candidates, ref.candidates) << what;
      EXPECT_EQ(stats.data_page_reads, ref.data_page_reads) << what;
      if (!fast->empty()) ++nonempty;
    }
  }
  EXPECT_GT(nonempty, 20);
}

TEST_P(PrecheckOracleTest, KnnMatchesScanAndKeepsCounts) {
  const auto corpus = Corpus();
  auto engine = SearchEngine::Create(Config(GetParam()));
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->BulkBuild(corpus).ok());
  const SequentialScanner scanner(&(*engine)->dataset(), kWindow);

  for (const Vec& query : Queries(corpus)) {
    for (const std::size_t k : {1u, 2u, 5u, 10u, 40u}) {
      const std::string what = "k=" + std::to_string(k);
      QueryStats stats;
      auto fast = (*engine)->Knn(query, k, TransformCost{}, &stats);
      auto slow = scanner.Knn(query, k);
      ASSERT_TRUE(fast.ok()) << fast.status();
      ASSERT_TRUE(slow.ok());
      ExpectIdentical(*fast, *slow, what);
      const Reference ref = ReferenceKnn(**engine, query, k);
      ExpectIdentical(*fast, ref.matches, what + " (reference)");
      EXPECT_EQ(stats.candidates, ref.candidates) << what;
      EXPECT_EQ(stats.data_page_reads, ref.data_page_reads) << what;
    }
  }
}

std::string ModeName(const ::testing::TestParamInfo<std::size_t>& param) {
  return param.param == 0 ? std::string("point")
                          : "subtrail" + std::to_string(param.param);
}

INSTANTIATE_TEST_SUITE_P(Modes, PrecheckOracleTest, ::testing::Values(0u, 8u),
                         ModeName);

}  // namespace
}  // namespace tsss::core

#include "tsss/core/seq_scan.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/core/oracle.h"
#include "tsss/geom/line.h"
#include "tsss/seq/window.h"

namespace tsss::core {
namespace {

using geom::Vec;

TEST(SeqScanTest, FindsAllWindowsWithinEps) {
  seq::Dataset ds;
  // Series: a ramp. Query: another ramp (affine image of every sub-ramp).
  Vec ramp(32);
  for (std::size_t i = 0; i < 32; ++i) ramp[i] = static_cast<double>(i);
  ds.Add("ramp", ramp);
  SequentialScanner scanner(&ds, 8);

  Vec query(8);
  for (std::size_t i = 0; i < 8; ++i) query[i] = 100.0 + 3.0 * static_cast<double>(i);
  auto matches = scanner.RangeQuery(query, 1e-9);
  ASSERT_TRUE(matches.ok());
  // Every window of a straight line is an affine image of the query ramp.
  EXPECT_EQ(matches->size(), 32u - 8u + 1u);
  for (const Match& m : *matches) {
    EXPECT_NEAR(m.distance, 0.0, 1e-9);
    EXPECT_NEAR(m.transform.scale, 1.0 / 3.0, 1e-9);
  }
}

TEST(SeqScanTest, UsesLemmaTwoDistances) {
  // Scanner distances must equal LLD(scaling line, shifting line) - the
  // paper's described implementation of the baseline.
  seq::Dataset ds;
  Rng rng(71);
  Vec values(64);
  for (auto& x : values) x = rng.Uniform(0, 50);
  ds.Add("s", values);
  SequentialScanner scanner(&ds, 8);

  Vec query(8);
  for (auto& x : query) x = rng.Uniform(0, 50);
  auto matches = scanner.RangeQuery(query, 1e9);  // everything matches
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 57u);
  for (const Match& m : *matches) {
    Vec window(values.begin() + m.offset, values.begin() + m.offset + 8);
    const double lld =
        geom::Lld(geom::Line::ScalingLine(query), geom::Line::ShiftingLine(window));
    EXPECT_NEAR(m.distance, lld, 1e-8);
  }
}

TEST(SeqScanTest, PageCostIsConstantInEps) {
  seq::Dataset ds;
  ds.Add("s", Vec(2000, 1.0));
  SequentialScanner scanner(&ds, 16);
  const Vec query(16, 1.0);

  ds.store().ResetMetrics();
  ASSERT_TRUE(scanner.RangeQuery(query, 0.0).ok());
  const std::uint64_t pages_small = ds.store().metrics().logical_reads;
  ds.store().ResetMetrics();
  ASSERT_TRUE(scanner.RangeQuery(query, 100.0).ok());
  const std::uint64_t pages_large = ds.store().metrics().logical_reads;

  EXPECT_EQ(pages_small, pages_large);
  EXPECT_EQ(pages_small, ds.store().TotalPages());
}

TEST(SeqScanTest, RespectsCostConstraints) {
  seq::Dataset ds;
  Vec down(16);
  for (std::size_t i = 0; i < 16; ++i) down[i] = 16.0 - static_cast<double>(i);
  ds.Add("down", down);
  SequentialScanner scanner(&ds, 16);

  Vec up(16);
  for (std::size_t i = 0; i < 16; ++i) up[i] = static_cast<double>(i);
  auto all = scanner.RangeQuery(up, 1e-6);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 1u);  // matches with a = -1
  auto positive = scanner.RangeQuery(up, 1e-6, TransformCost::PositiveScale());
  ASSERT_TRUE(positive.ok());
  EXPECT_TRUE(positive->empty());
}

TEST(SeqScanTest, KnnReturnsClosestFirst) {
  seq::Dataset ds;
  Rng rng(72);
  Vec values(200);
  for (auto& x : values) x = rng.Uniform(0, 10);
  ds.Add("s", values);
  SequentialScanner scanner(&ds, 16);

  Vec query(16);
  for (auto& x : query) x = rng.Uniform(0, 10);
  auto top = scanner.Knn(query, 10);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 10u);
  for (std::size_t i = 1; i < top->size(); ++i) {
    EXPECT_LE((*top)[i - 1].distance, (*top)[i].distance);
  }
}

/// Every window of `ds` aligned and sorted in the canonical
/// (distance, record) order: the reference answer for any k.
std::vector<Match> AllWindowsCanonical(const seq::Dataset& ds, const Vec& query) {
  const QueryContext ctx(query);
  std::vector<Match> all;
  for (storage::SeriesId id = 0; id < ds.store().num_series(); ++id) {
    auto values = ds.store().SeriesValues(id);
    EXPECT_TRUE(values.ok());
    for (std::size_t off = 0; off + query.size() <= values->size(); ++off) {
      all.push_back(MakeMatch(seq::MakeRecordId(id, static_cast<std::uint32_t>(off)),
                              ctx.Align(values->subspan(off, query.size()))));
    }
  }
  std::sort(all.begin(), all.end(), CanonicalBefore);
  return all;
}

TEST(SeqScanTest, KnnTieBreaksDuplicatedSeriesByRecord) {
  // Windows A and B (duplicated series) tie; C comes later and is closer.
  // With k = 2 the answer is {C, A}: the tie keeps the lower record id even
  // though C's arrival evicts one of the tied pair.
  const Vec query = {1.0, 3.0, 2.0, 5.0, 4.0, 6.0, 8.0, 7.0};
  const Vec far = {5.0, 1.0, 4.0, 2.0, 8.0, 3.0, 7.0, 6.0};
  Vec near = query;
  near[3] += 0.5;
  seq::Dataset ds;
  ds.Add("a", far);
  ds.Add("b", far);
  ds.Add("c", near);
  SequentialScanner scanner(&ds, 8);
  auto top = scanner.Knn(query, 2);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 2u);
  EXPECT_EQ((*top)[0].record, seq::MakeRecordId(2, 0));
  EXPECT_EQ((*top)[1].record, seq::MakeRecordId(0, 0));
  EXPECT_EQ((*top)[1].distance, QueryContext(query).Distance(far));
}

TEST(SeqScanTest, KnnTieBreaksFlatWindowsByRecord) {
  // Flat windows all sit at one tiny distance; a later exact image of the
  // ramp query lands at distance 0 and pushes one of them out of the top k.
  // The lowest flat records must survive, for every k across the tie.
  Vec query(8);
  for (std::size_t i = 0; i < 8; ++i) query[i] = static_cast<double>(i);
  Vec image(8);
  for (std::size_t i = 0; i < 8; ++i) image[i] = 2.0 * query[i] + 1.0;
  seq::Dataset ds;
  ds.Add("flat", Vec(12, 0.1));  // five identical flat windows
  ds.Add("flat2", Vec(9, 0.1));  // two more
  ds.Add("ramp", image);
  SequentialScanner scanner(&ds, 8);
  const std::vector<Match> all = AllWindowsCanonical(ds, query);
  ASSERT_EQ(all.size(), 8u);
  ASSERT_EQ(all[0].record, seq::MakeRecordId(2, 0));
  ASSERT_LT(all[0].distance, all[1].distance) << "flat windows must rank second";
  for (std::size_t k = 2; k <= 7; ++k) {
    ASSERT_EQ(all[k - 1].distance, all[k].distance);  // the tie straddles slot k
    auto top = scanner.Knn(query, k);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top->size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ((*top)[i].record, all[i].record) << "k=" << k << " i=" << i;
      EXPECT_EQ((*top)[i].distance, all[i].distance);
    }
  }
}

TEST(SeqScanTest, KnnWithKBeyondWindowsReturnsAll) {
  seq::Dataset ds;
  ds.Add("s", Vec(20, 1.0));
  SequentialScanner scanner(&ds, 16);
  auto top = scanner.Knn(Vec(16, 1.0), 100);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 5u);
}

TEST(SeqScanTest, WrongQueryLengthRejected) {
  seq::Dataset ds;
  ds.Add("s", Vec(50, 1.0));
  SequentialScanner scanner(&ds, 16);
  EXPECT_FALSE(scanner.RangeQuery(Vec(8, 0.0), 1.0).ok());
  EXPECT_FALSE(scanner.Knn(Vec(8, 0.0), 3).ok());
  EXPECT_FALSE(scanner.RangeQuery(Vec(16, 0.0), -0.5).ok());
}

TEST(SeqScanTest, StrideSkipsWindows) {
  seq::Dataset ds;
  Vec ramp(32);
  for (std::size_t i = 0; i < 32; ++i) ramp[i] = static_cast<double>(i);
  ds.Add("ramp", ramp);
  SequentialScanner scanner(&ds, 8, 4);
  Vec query(8);
  for (std::size_t i = 0; i < 8; ++i) query[i] = static_cast<double>(i);
  auto matches = scanner.RangeQuery(query, 1e-9);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 7u);  // offsets 0,4,...,24
  for (const Match& m : *matches) EXPECT_EQ(m.offset % 4, 0u);
}

}  // namespace
}  // namespace tsss::core

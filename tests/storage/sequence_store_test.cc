#include "tsss/storage/sequence_store.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace tsss::storage {
namespace {

std::vector<double> Iota(std::size_t n, double start = 0.0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = start + static_cast<double>(i);
  return v;
}

TEST(SequenceStoreTest, AddAndReadBack) {
  SequenceStore store;
  const SeriesId id = store.AddSeries(Iota(100));
  auto len = store.SeriesLength(id);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, 100u);
  auto values = store.SeriesValues(id);
  ASSERT_TRUE(values.ok());
  EXPECT_DOUBLE_EQ((*values)[42], 42.0);
}

TEST(SequenceStoreTest, MultipleSeriesPackedDensely) {
  SequenceStore store;
  store.AddSeries(Iota(10, 0.0));
  const SeriesId b = store.AddSeries(Iota(10, 100.0));
  auto values = store.SeriesValues(b);
  ASSERT_TRUE(values.ok());
  EXPECT_DOUBLE_EQ((*values)[0], 100.0);
  EXPECT_EQ(store.total_values(), 20u);
}

TEST(SequenceStoreTest, UnknownSeriesFails) {
  SequenceStore store;
  EXPECT_FALSE(store.SeriesLength(3).ok());
  EXPECT_FALSE(store.SeriesValues(3).ok());
}

TEST(SequenceStoreTest, ReadWindowCopiesAndCounts) {
  SequenceStore store;
  const SeriesId id = store.AddSeries(Iota(1000));
  std::vector<double> out(64);
  ASSERT_TRUE(store.ReadWindow(id, 100, out).ok());
  EXPECT_DOUBLE_EQ(out[0], 100.0);
  EXPECT_DOUBLE_EQ(out[63], 163.0);
  // Window [100, 164) lives entirely in page 0 (values 0..511).
  EXPECT_EQ(store.metrics().logical_reads, 1u);
}

TEST(SequenceStoreTest, WindowSpanningPagesCountsBoth) {
  SequenceStore store;
  const SeriesId id = store.AddSeries(Iota(1024));
  std::vector<double> out(64);
  ASSERT_TRUE(store.ReadWindow(id, 480, out).ok());  // 480..543 spans page 0|1
  EXPECT_EQ(store.metrics().logical_reads, 2u);
}

TEST(SequenceStoreTest, ReadWindowOutOfRangeFails) {
  SequenceStore store;
  const SeriesId id = store.AddSeries(Iota(50));
  std::vector<double> out(64);
  EXPECT_EQ(store.ReadWindow(id, 0, out).code(), StatusCode::kOutOfRange);
}

TEST(SequenceStoreTest, TotalPagesMatchesPaperArithmetic) {
  // 650,000 values x 8 bytes / 4 KiB ~= 1270 pages (the paper rounds to
  // "approximately 1300").
  SequenceStore store;
  for (int i = 0; i < 1000; ++i) store.AddSeries(std::vector<double>(650, 1.0));
  EXPECT_EQ(store.total_values(), 650000u);
  EXPECT_EQ(store.TotalPages(), (650000 + 511) / 512);
  EXPECT_NEAR(static_cast<double>(store.TotalPages()), 1300.0, 40.0);
}

TEST(SequenceStoreTest, RecordFullScanCountsAllPages) {
  SequenceStore store;
  store.AddSeries(Iota(2000));
  store.RecordFullScan();
  EXPECT_EQ(store.metrics().logical_reads, store.TotalPages());
  store.ResetMetrics();
  EXPECT_EQ(store.metrics().logical_reads, 0u);
}

TEST(SequenceStoreTest, AppendToLastSeries) {
  SequenceStore store;
  const SeriesId id = store.AddSeries(Iota(10));
  ASSERT_TRUE(store.AppendToSeries(id, Iota(5, 10.0)).ok());
  auto len = store.SeriesLength(id);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, 15u);
  auto values = store.SeriesValues(id);
  ASSERT_TRUE(values.ok());
  EXPECT_DOUBLE_EQ((*values)[14], 14.0);
}

TEST(SequenceStoreTest, AppendToEarlierSeriesRejected) {
  SequenceStore store;
  const SeriesId a = store.AddSeries(Iota(10));
  store.AddSeries(Iota(10));
  EXPECT_EQ(store.AppendToSeries(a, Iota(1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SequenceStoreTest, EmptySeriesAllowed) {
  SequenceStore store;
  const SeriesId id = store.AddSeries({});
  auto len = store.SeriesLength(id);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, 0u);
  std::vector<double> out;
  EXPECT_TRUE(store.ReadWindow(id, 0, out).ok());
}


TEST(SequenceStoreTest, DedupedReadsCountEachPageOnce) {
  SequenceStore store;
  const SeriesId id = store.AddSeries(Iota(2048));  // 4 pages
  std::vector<double> out(64);
  std::size_t last_page = SequenceStore::kNoPageCounted;
  // Ascending overlapping windows within page 0: counted once.
  ASSERT_TRUE(store.ReadWindowDeduped(id, 0, out, &last_page).ok());
  ASSERT_TRUE(store.ReadWindowDeduped(id, 32, out, &last_page).ok());
  ASSERT_TRUE(store.ReadWindowDeduped(id, 100, out, &last_page).ok());
  EXPECT_EQ(store.metrics().logical_reads, 1u);
  // Crossing into page 1 counts exactly the new page.
  ASSERT_TRUE(store.ReadWindowDeduped(id, 500, out, &last_page).ok());
  EXPECT_EQ(store.metrics().logical_reads, 2u);
  // A far jump counts the new window's pages once (1040..1103: page 2).
  ASSERT_TRUE(store.ReadWindowDeduped(id, 1040, out, &last_page).ok());
  EXPECT_EQ(store.metrics().logical_reads, 3u);
  // And one spanning two fresh pages counts both (1500..1563: pages 2|3,
  // page 2 already counted).
  ASSERT_TRUE(store.ReadWindowDeduped(id, 1500, out, &last_page).ok());
  EXPECT_EQ(store.metrics().logical_reads, 4u);
  // Values are still correct.
  EXPECT_DOUBLE_EQ(out[0], 1500.0);
}

TEST(SequenceStoreTest, DedupedReadsValidateLikeReadWindow) {
  SequenceStore store;
  const SeriesId id = store.AddSeries(Iota(100));
  std::vector<double> out(64);
  std::size_t last_page = SequenceStore::kNoPageCounted;
  EXPECT_FALSE(store.ReadWindowDeduped(id, 90, out, &last_page).ok());
  EXPECT_FALSE(store.ReadWindowDeduped(7, 0, out, &last_page).ok());
}

TEST(SequenceStoreTest, DedupedBatchTotalEqualsDistinctPages) {
  // A full ascending sweep over every window touches every page exactly
  // once - the property that keeps tree verification I/O below a full scan.
  SequenceStore store;
  const SeriesId id = store.AddSeries(Iota(3000));
  std::vector<double> out(64);
  std::size_t last_page = SequenceStore::kNoPageCounted;
  for (std::size_t off = 0; off + 64 <= 3000; ++off) {
    ASSERT_TRUE(store.ReadWindowDeduped(id, off, out, &last_page).ok());
  }
  EXPECT_EQ(store.metrics().logical_reads, store.TotalPages());
}

TEST(SequenceStoreTest, ViewWindowPointsIntoTheHeapAndCounts) {
  SequenceStore store;
  store.AddSeries(Iota(300));
  const SeriesId id = store.AddSeries(Iota(1024, 5000.0));
  auto series = store.SeriesValues(id);
  ASSERT_TRUE(series.ok());
  auto view = store.ViewWindow(id, 480, 64);  // heap 780..843: page 1 only
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->data(), series->data() + 480);
  EXPECT_EQ(view->size(), 64u);
  EXPECT_DOUBLE_EQ((*view)[0], 5480.0);
  EXPECT_EQ(store.metrics().logical_reads, 1u);
  // A window crossing a page boundary counts both, as ReadWindow does.
  ASSERT_TRUE(store.ViewWindow(id, 200, 64).ok());  // heap 500..563: pages 0|1
  EXPECT_EQ(store.metrics().logical_reads, 3u);
}

TEST(SequenceStoreTest, ViewWindowCountsExactlyLikeTheCopyingReads) {
  // Same sweep through the view and through both copying forms: equal page
  // counts, in plain and in deduplicated mode.
  SequenceStore viewed;
  SequenceStore copied;
  const SeriesId a = viewed.AddSeries(Iota(3000));
  ASSERT_EQ(copied.AddSeries(Iota(3000)), a);
  std::vector<double> out(100);
  std::size_t view_last = SequenceStore::kNoPageCounted;
  std::size_t copy_last = SequenceStore::kNoPageCounted;
  for (std::size_t off = 0; off + 100 <= 3000; off += 37) {
    auto view = viewed.ViewWindow(a, off, 100, &view_last);
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(copied.ReadWindowDeduped(a, off, out, &copy_last).ok());
    EXPECT_TRUE(std::equal(view->begin(), view->end(), out.begin()));
    EXPECT_EQ(view_last, copy_last);
  }
  EXPECT_EQ(viewed.metrics().logical_reads, copied.metrics().logical_reads);
  for (std::size_t off = 0; off + 100 <= 3000; off += 211) {
    ASSERT_TRUE(viewed.ViewWindow(a, off, 100).ok());
    ASSERT_TRUE(copied.ReadWindow(a, off, out).ok());
  }
  EXPECT_EQ(viewed.metrics().logical_reads, copied.metrics().logical_reads);
  EXPECT_EQ(viewed.metrics().physical_reads, copied.metrics().physical_reads);
}

TEST(SequenceStoreTest, ViewWindowValidates) {
  SequenceStore store;
  const SeriesId id = store.AddSeries(Iota(100));
  EXPECT_EQ(store.ViewWindow(id, 90, 64).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(store.ViewWindow(7, 0, 8).status().code(), StatusCode::kNotFound);
  auto empty = store.ViewWindow(id, 100, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(store.metrics().logical_reads, 0u);
}

}  // namespace
}  // namespace tsss::storage

// Malformed-page tests for NodeCodec::Decode/View: bytes that decode to
// impossible nodes (oversized entry counts, non-finite or inverted box
// coordinates, a set reserved header word) must come back as Corruption
// statuses. Regression tests for
// the decode hardening — before it, a NaN coordinate sailed into
// Mbr::FromCorners, whose invariant DCHECKs abort checked builds, turning a
// bad page into a crash.

#include "tsss/index/node.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "tsss/storage/page.h"

namespace tsss::index {
namespace {

constexpr std::size_t kHeaderBytes = 5 * sizeof(std::uint16_t) + sizeof(std::uint32_t);

/// Builds a well-formed one-entry internal page for dim 2, returning it so
/// tests can corrupt individual fields.
storage::Page EncodeOneInternalEntry(const NodeCodec& codec) {
  Node node;
  node.level = 1;
  node.entries.push_back(
      Entry::ForChild(5, geom::Mbr::FromCorners({0.0, -1.0}, {2.0, 1.0})));
  storage::Page page;
  EXPECT_TRUE(codec.Encode(node, &page).ok());
  return page;
}

void PatchU16(storage::Page* page, std::size_t offset, std::uint16_t value) {
  std::memcpy(page->bytes.data() + offset, &value, sizeof(value));
}

void PatchU32(storage::Page* page, std::size_t offset, std::uint32_t value) {
  std::memcpy(page->bytes.data() + offset, &value, sizeof(value));
}

void PatchDouble(storage::Page* page, std::size_t offset, double value) {
  std::memcpy(page->bytes.data() + offset, &value, sizeof(value));
}

TEST(NodeMalformedTest, OversizedEntryCountIsCorruption) {
  const NodeCodec codec(2, false);
  storage::Page page = EncodeOneInternalEntry(codec);
  // count lives at header offset 4; anything above the per-page capacity
  // would read past the page image.
  PatchU16(&page, 4, 0xFFFF);
  auto decoded = codec.Decode(page);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NodeMalformedTest, CountJustAboveCapacityIsCorruption) {
  const NodeCodec codec(2, false);
  storage::Page page = EncodeOneInternalEntry(codec);
  PatchU16(&page, 4, static_cast<std::uint16_t>(codec.max_internal_entries() + 1));
  auto decoded = codec.Decode(page);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NodeMalformedTest, ReservedHeaderWordIsCorruption) {
  // The header's last u32 once chained the pages of a multi-page node. A
  // node is one page now, so any value but kInvalidPageId there is damage
  // (or a chained page from an index that used multi-page nodes).
  const NodeCodec codec(2, false);
  storage::Page page = EncodeOneInternalEntry(codec);
  std::uint32_t reserved = 0;
  std::memcpy(&reserved, page.bytes.data() + kHeaderBytes - sizeof(reserved),
              sizeof(reserved));
  EXPECT_EQ(reserved, storage::kInvalidPageId);
  PatchU32(&page, kHeaderBytes - sizeof(std::uint32_t), 7);
  EXPECT_EQ(codec.Decode(page).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(codec.View(page).status().code(), StatusCode::kCorruption);
}

TEST(NodeMalformedTest, NanCoordinateIsCorruptionNotCrash) {
  const NodeCodec codec(2, false);
  storage::Page page = EncodeOneInternalEntry(codec);
  // First lo coordinate of entry 0: header + child u32.
  PatchDouble(&page, kHeaderBytes + sizeof(std::uint32_t),
              std::numeric_limits<double>::quiet_NaN());
  auto decoded = codec.Decode(page);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NodeMalformedTest, InfiniteCoordinateIsCorruption) {
  const NodeCodec codec(2, false);
  storage::Page page = EncodeOneInternalEntry(codec);
  PatchDouble(&page, kHeaderBytes + sizeof(std::uint32_t),
              std::numeric_limits<double>::infinity());
  auto decoded = codec.Decode(page);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NodeMalformedTest, InvertedBoxIsCorruption) {
  const NodeCodec codec(2, false);
  storage::Page page = EncodeOneInternalEntry(codec);
  // Push lo[0] above hi[0] (= 2.0).
  PatchDouble(&page, kHeaderBytes + sizeof(std::uint32_t), 10.0);
  auto decoded = codec.Decode(page);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NodeMalformedTest, NanInBoxLeafIsCorruption) {
  const NodeCodec codec(2, true);
  Node node;
  node.level = 0;
  Entry e;
  e.record = 9;
  e.mbr = geom::Mbr::FromCorners({0.0, 0.0}, {1.0, 1.0});
  node.entries.push_back(e);
  storage::Page page;
  ASSERT_TRUE(codec.Encode(node, &page).ok());
  // hi[1] of the box leaf entry: header + record u64 + 3 doubles.
  PatchDouble(&page, kHeaderBytes + sizeof(std::uint64_t) + 3 * sizeof(double),
              std::numeric_limits<double>::quiet_NaN());
  auto decoded = codec.Decode(page);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NodeMalformedTest, PointLeavesAcceptAnyFiniteOrder) {
  // Point leaves carry a single coordinate vector; there is no hi to invert,
  // and decoding must keep accepting every finite point.
  const NodeCodec codec(2, false);
  Node node;
  node.level = 0;
  const double point[] = {3.5, -7.25};
  node.entries.push_back(Entry::ForRecord(11, point));
  storage::Page page;
  ASSERT_TRUE(codec.Encode(node, &page).ok());
  auto decoded = codec.Decode(page);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->entries[0].record, 11u);
  EXPECT_EQ(decoded->entries[0].mbr.lo()[0], 3.5);
}

}  // namespace
}  // namespace tsss::index

// Malformed-input tests for FilePageStore: a hostile or corrupt metadata /
// page file must surface as a clean Status error — never an oversized
// allocation, a crash, or silently wrong data. Regression tests for the
// Open() hardening that validates every untrusted header field against the
// actual file size.

#include "tsss/storage/file_page_store.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tsss::storage {
namespace {

class MalformedMetaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/tsss_malformed_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".pages";
    std::remove(path_.c_str());
    std::remove(MetaPath().c_str());
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(MetaPath().c_str());
  }

  std::string MetaPath() const { return path_ + ".meta"; }

  /// Creates a store with one live page holding `fill` bytes, synced to disk.
  PageId CreateStoreWithOnePage(std::uint8_t fill) {
    auto store = FilePageStore::Create(path_);
    EXPECT_TRUE(store.ok()) << store.status().message();
    const PageId id = *(*store)->Allocate();
    Page page;
    page.bytes.fill(fill);
    EXPECT_TRUE((*store)->Write(id, page).ok());
    EXPECT_TRUE((*store)->Sync().ok());
    return id;
  }

  std::vector<char> ReadAll(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }

  void WriteAll(const std::string& file, const std::vector<char>& bytes) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  std::string path_;
};

TEST_F(MalformedMetaTest, CapacityLyingAboutMetaSizeIsCorruption) {
  CreateStoreWithOnePage(0xAB);
  // Overwrite the capacity field (bytes 8..15) with a huge value; the body
  // still only holds one page's worth of entries. A pre-hardening Open would
  // try to resize() its vectors to 2^40 before noticing.
  std::vector<char> meta = ReadAll(MetaPath());
  ASSERT_GE(meta.size(), 24u);
  const std::uint64_t huge = 1ull << 40;
  std::memcpy(meta.data() + 8, &huge, sizeof(huge));
  WriteAll(MetaPath(), meta);

  auto reopened = FilePageStore::Open(path_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(MalformedMetaTest, LiveCountExceedingCapacityIsCorruption) {
  CreateStoreWithOnePage(0xAB);
  std::vector<char> meta = ReadAll(MetaPath());
  ASSERT_GE(meta.size(), 24u);
  const std::uint64_t bogus = 17;  // capacity is 1
  std::memcpy(meta.data() + 16, &bogus, sizeof(bogus));
  WriteAll(MetaPath(), meta);

  auto reopened = FilePageStore::Open(path_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(MalformedMetaTest, LiveCountDisagreeingWithFlagsIsCorruption) {
  CreateStoreWithOnePage(0xAB);
  // Flip the page's alive flag (first body byte, offset 24) to dead while
  // the header still claims one live page.
  std::vector<char> meta = ReadAll(MetaPath());
  ASSERT_GE(meta.size(), 25u);
  meta[24] = 0;
  WriteAll(MetaPath(), meta);

  auto reopened = FilePageStore::Open(path_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(MalformedMetaTest, FlippedCrcByteSurfacesOnRead) {
  const PageId id = CreateStoreWithOnePage(0xAB);
  // Corrupt the stored checksum (body bytes 25..28 for page 0); the page
  // data itself is untouched, so only the CRC comparison can catch it.
  std::vector<char> meta = ReadAll(MetaPath());
  ASSERT_GE(meta.size(), 29u);
  meta[25] = static_cast<char>(meta[25] ^ 0x01);
  WriteAll(MetaPath(), meta);

  auto reopened = FilePageStore::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  Page out;
  EXPECT_EQ((*reopened)->Read(id, &out).code(), StatusCode::kCorruption);
}

TEST_F(MalformedMetaTest, TruncatedPageFileIsCorruption) {
  CreateStoreWithOnePage(0xAB);
  // Cut the data file short of the capacity the metadata promises.
  std::vector<char> data = ReadAll(path_);
  ASSERT_EQ(data.size(), kPageSize);
  data.resize(kPageSize / 2);
  WriteAll(path_, data);

  auto reopened = FilePageStore::Open(path_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(MalformedMetaTest, TruncatedMetaBodyIsCorruption) {
  CreateStoreWithOnePage(0xAB);
  std::vector<char> meta = ReadAll(MetaPath());
  ASSERT_GE(meta.size(), 29u);
  meta.resize(26);  // header + part of page 0's entry
  WriteAll(MetaPath(), meta);

  auto reopened = FilePageStore::Open(path_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace tsss::storage

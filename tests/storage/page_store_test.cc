#include "tsss/storage/page_store.h"

#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include <gtest/gtest.h>

#include "tsss/storage/buffer_pool.h"
#include "tsss/storage/file_page_store.h"

namespace tsss::storage {
namespace {

TEST(MemPageStoreTest, AllocateReadWrite) {
  MemPageStore store;
  const PageId id = *store.Allocate();
  Page page;
  page.bytes[0] = 0xAB;
  page.bytes[kPageSize - 1] = 0xCD;
  ASSERT_TRUE(store.Write(id, page).ok());
  Page out;
  ASSERT_TRUE(store.Read(id, &out).ok());
  EXPECT_EQ(out.bytes[0], 0xAB);
  EXPECT_EQ(out.bytes[kPageSize - 1], 0xCD);
}

TEST(MemPageStoreTest, AccessToFreedPageFails) {
  MemPageStore store;
  const PageId id = *store.Allocate();
  ASSERT_TRUE(store.Free(id).ok());
  Page out;
  EXPECT_EQ(store.Read(id, &out).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Write(id, out).code(), StatusCode::kNotFound);
}

TEST(MemPageStoreTest, AccessToUnknownPageFails) {
  MemPageStore store;
  Page out;
  EXPECT_FALSE(store.Read(999, &out).ok());
}

TEST(MemPageStoreTest, CapacityTracksHighWaterMark) {
  MemPageStore store;
  const PageId a = *store.Allocate();
  ASSERT_TRUE(store.Allocate().ok());
  EXPECT_EQ(store.capacity_pages(), 2u);
  ASSERT_TRUE(store.Free(a).ok());
  EXPECT_EQ(store.capacity_pages(), 2u);
  EXPECT_EQ(store.num_live_pages(), 1u);
}

// The PageStore contract, run over both stores: the volume bookkeeping is
// written once in the base class, so both must behave identically.
template <typename Store>
class PageStoreContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/tsss_contract_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".pages";
    if constexpr (std::is_same_v<Store, MemPageStore>) {
      store_ = std::make_unique<MemPageStore>();
    } else {
      Result<std::unique_ptr<PageStore>> store = FilePageStore::Create(path_);
      ASSERT_TRUE(store.ok()) << store.status();
      store_ = std::move(store).value();
    }
  }

  void TearDown() override {
    store_.reset();
    std::remove(path_.c_str());
    std::remove((path_ + ".meta").c_str());
  }

  std::string path_;
  std::unique_ptr<PageStore> store_;
};

using Stores = ::testing::Types<MemPageStore, FilePageStore>;
TYPED_TEST_SUITE(PageStoreContractTest, Stores);

TYPED_TEST(PageStoreContractTest, FreeAndRecycle) {
  PageStore& store = *this->store_;
  const PageId a = *store.Allocate();
  Page page;
  page.bytes[7] = 0x77;
  ASSERT_TRUE(store.Write(a, page).ok());
  ASSERT_TRUE(store.Free(a).ok());
  EXPECT_EQ(store.num_live_pages(), 0u);
  const PageId b = *store.Allocate();
  EXPECT_EQ(a, b);  // recycled
  EXPECT_EQ(store.num_live_pages(), 1u);
  EXPECT_EQ(store.capacity_pages(), 1u);
  Page out;
  ASSERT_TRUE(store.Read(b, &out).ok());
  EXPECT_EQ(out.bytes[7], 0)
      << "recycled pages must be zeroed, not leak old contents";
}

TYPED_TEST(PageStoreContractTest, DoubleFreeDetected) {
  PageStore& store = *this->store_;
  const PageId id = *store.Allocate();
  ASSERT_TRUE(store.Free(id).ok());
  EXPECT_EQ(store.Free(id).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Free(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.num_live_pages(), 0u);
}

TYPED_TEST(PageStoreContractTest, FreshPagesAreZeroed) {
  PageStore& store = *this->store_;
  const PageId id = *store.Allocate();
  Page out;
  out.bytes.fill(0xEE);
  ASSERT_TRUE(store.Read(id, &out).ok());
  for (std::size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(out.bytes[i], 0) << i;
}

TYPED_TEST(PageStoreContractTest, MetricsCountPhysicalAccesses) {
  PageStore& store = *this->store_;
  const PageId id = *store.Allocate();
  EXPECT_EQ(store.metrics().physical_writes, 0u)
      << "the zero-fill is not a counted write";
  Page page;
  ASSERT_TRUE(store.Write(id, page).ok());
  ASSERT_TRUE(store.Read(id, &page).ok());
  ASSERT_TRUE(store.Read(id, &page).ok());
  EXPECT_EQ(store.metrics().physical_writes, 1u);
  EXPECT_EQ(store.metrics().physical_reads, 2u);
  store.ResetMetrics();
  EXPECT_EQ(store.metrics().physical_reads, 0u);
}

/// A volume whose page-image writes fail on demand: the only way to reach
/// the error paths of Allocate and BufferPool::New without a broken disk.
class FailingWriteStore final : public PageStore {
 public:
  bool fail_writes = false;

 private:
  Status SyncVolume() override { return Status::OK(); }
  Status ReadPage(PageId /*id*/, Page* out) override {
    *out = Page{};
    return Status::OK();
  }
  Status WritePage(PageId /*id*/, const Page& /*page*/) override {
    return fail_writes ? Status::IoError("injected write failure")
                       : Status::OK();
  }
};

TEST(PageStoreTest, FailedZeroFillAllocatesNothing) {
  FailingWriteStore store;
  const PageId first = *store.Allocate();
  store.fail_writes = true;
  EXPECT_EQ(store.Allocate().status().code(), StatusCode::kIoError);
  EXPECT_EQ(store.num_live_pages(), 1u);
  EXPECT_EQ(store.capacity_pages(), 1u);

  // A failed recycle leaves the page on the free list.
  ASSERT_TRUE(store.Free(first).ok());
  EXPECT_EQ(store.Allocate().status().code(), StatusCode::kIoError);
  EXPECT_EQ(store.num_live_pages(), 0u);
  store.fail_writes = false;
  EXPECT_EQ(*store.Allocate(), first);
  EXPECT_EQ(store.num_live_pages(), 1u);
}

TEST(PageStoreTest, BufferPoolNewPropagatesAllocateFailure) {
  FailingWriteStore store;
  BufferPool pool(&store, 4);
  store.fail_writes = true;
  EXPECT_EQ(pool.New().status().code(), StatusCode::kIoError);
  EXPECT_EQ(store.num_live_pages(), 0u);
  store.fail_writes = false;
  Result<PageGuard> guard = pool.New();
  ASSERT_TRUE(guard.ok()) << guard.status();
  EXPECT_EQ(guard->id(), 0u);
}

}  // namespace
}  // namespace tsss::storage

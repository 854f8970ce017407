#include "tsss/storage/file_page_store.h"

#include "tsss/storage/buffer_pool.h"

#include <fcntl.h>
#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tsss::storage {
namespace {

class FilePageStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/tsss_fps_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".pages";
    std::remove(path_.c_str());
    std::remove((path_ + ".meta").c_str());
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".meta").c_str());
  }

  std::string path_;
};

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

/// Sets a file's mtime to a fixed past instant, so a later rewrite shows up
/// even within the same clock tick.
void BackdateMtime(const std::string& path) {
  const timespec past[2] = {{1000000000, 0}, {1000000000, 0}};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), past, 0), 0);
}

timespec MtimeOf(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0);
  return st.st_mtim;
}

TEST_F(FilePageStoreTest, CreateWriteReadBack) {
  auto store = FilePageStore::Create(path_);
  ASSERT_TRUE(store.ok()) << store.status();
  const PageId id = *(*store)->Allocate();
  Page page;
  page.bytes[0] = 0xAB;
  page.bytes[kPageSize - 1] = 0xCD;
  ASSERT_TRUE((*store)->Write(id, page).ok());
  Page out;
  ASSERT_TRUE((*store)->Read(id, &out).ok());
  EXPECT_EQ(out.bytes[0], 0xAB);
  EXPECT_EQ(out.bytes[kPageSize - 1], 0xCD);
}

TEST_F(FilePageStoreTest, PersistsAcrossReopen) {
  PageId id;
  {
    auto store = FilePageStore::Create(path_);
    ASSERT_TRUE(store.ok());
    id = *(*store)->Allocate();
    ASSERT_TRUE((*store)->Allocate().ok());  // a second page
    Page page;
    page.bytes[7] = 0x77;
    ASSERT_TRUE((*store)->Write(id, page).ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  auto reopened = FilePageStore::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->num_live_pages(), 2u);
  Page out;
  ASSERT_TRUE((*reopened)->Read(id, &out).ok());
  EXPECT_EQ(out.bytes[7], 0x77);
}

TEST_F(FilePageStoreTest, FreeListSurvivesReopen) {
  PageId freed;
  {
    auto store = FilePageStore::Create(path_);
    ASSERT_TRUE(store.ok());
    freed = *(*store)->Allocate();
    ASSERT_TRUE((*store)->Allocate().ok());
    ASSERT_TRUE((*store)->Free(freed).ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  auto reopened = FilePageStore::Open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_live_pages(), 1u);
  // The freed page is recycled on the next allocation.
  EXPECT_EQ(*(*reopened)->Allocate(), freed);
}

TEST_F(FilePageStoreTest, DetectsOnDiskCorruption) {
  PageId id;
  {
    auto store = FilePageStore::Create(path_);
    ASSERT_TRUE(store.ok());
    id = *(*store)->Allocate();
    Page page;
    page.bytes[100] = 0x42;
    ASSERT_TRUE((*store)->Write(id, page).ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  // Flip one byte of the page on disk behind the store's back.
  {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(id) * kPageSize + 100);
    const char evil = 0x43;
    file.write(&evil, 1);
  }
  auto reopened = FilePageStore::Open(path_);
  ASSERT_TRUE(reopened.ok());
  Page out;
  EXPECT_EQ((*reopened)->Read(id, &out).code(), StatusCode::kCorruption);
}

TEST_F(FilePageStoreTest, OpenMissingFileFails) {
  auto store = FilePageStore::Open(path_);
  EXPECT_FALSE(store.ok());
}

TEST_F(FilePageStoreTest, OpenRejectsTruncatedMeta) {
  {
    auto store = FilePageStore::Create(path_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Allocate().ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  // Truncate the metadata file.
  std::filesystem::resize_file(path_ + ".meta", 10);
  auto reopened = FilePageStore::Open(path_);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(FilePageStoreTest, FreshAndRecycledPagesAreZeroed) {
  auto store = FilePageStore::Create(path_);
  ASSERT_TRUE(store.ok());
  const PageId id = *(*store)->Allocate();
  Page page;
  page.bytes.fill(0xFF);
  ASSERT_TRUE((*store)->Write(id, page).ok());
  ASSERT_TRUE((*store)->Free(id).ok());
  const PageId recycled = *(*store)->Allocate();
  EXPECT_EQ(recycled, id);
  Page out;
  ASSERT_TRUE((*store)->Read(recycled, &out).ok());
  for (std::size_t i = 0; i < kPageSize; i += 256) EXPECT_EQ(out.bytes[i], 0);
}

TEST_F(FilePageStoreTest, MetricsCounted) {
  auto store = FilePageStore::Create(path_);
  ASSERT_TRUE(store.ok());
  const PageId id = *(*store)->Allocate();
  Page page;
  ASSERT_TRUE((*store)->Write(id, page).ok());
  ASSERT_TRUE((*store)->Read(id, &page).ok());
  EXPECT_EQ((*store)->metrics().physical_writes, 1u);
  EXPECT_EQ((*store)->metrics().physical_reads, 1u);
}

TEST_F(FilePageStoreTest, DoubleFreeAndBadIdsRejected) {
  auto store = FilePageStore::Create(path_);
  ASSERT_TRUE(store.ok());
  const PageId id = *(*store)->Allocate();
  ASSERT_TRUE((*store)->Free(id).ok());
  EXPECT_FALSE((*store)->Free(id).ok());
  Page out;
  EXPECT_FALSE((*store)->Read(id, &out).ok());
  EXPECT_FALSE((*store)->Read(999, &out).ok());
}


TEST_F(FilePageStoreTest, WorksUnderTheBufferPool) {
  // The full stack: pool eviction write-backs land in the file, survive a
  // reopen, and re-verify their checksums.
  std::vector<PageId> ids;
  {
    auto store = FilePageStore::Create(path_);
    ASSERT_TRUE(store.ok());
    BufferPool pool(store->get(), 2);  // tiny: constant eviction
    for (int i = 0; i < 12; ++i) {
      auto guard = pool.New();
      ASSERT_TRUE(guard.ok());
      guard->MutablePage().bytes[0] = static_cast<std::uint8_t>(i);
      ids.push_back(guard->id());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  auto reopened = FilePageStore::Open(path_);
  ASSERT_TRUE(reopened.ok());
  BufferPool pool(reopened->get(), 4);
  for (int i = 0; i < 12; ++i) {
    auto guard = pool.Fetch(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->page().bytes[0], static_cast<std::uint8_t>(i));
  }
}

TEST_F(FilePageStoreTest, ConcurrentReadsAndWritesOfDistinctPages) {
  // Pages move with pread/pwrite at their own offsets, so readers of some
  // live pages and a writer of others share no cursor and no lock.
  constexpr int kReaders = 4;
  constexpr int kWritten = 4;
  constexpr int kRounds = 200;
  auto store = FilePageStore::Create(path_);
  ASSERT_TRUE(store.ok()) << store.status();
  PageStore& volume = **store;
  std::vector<PageId> read_ids;
  std::vector<PageId> write_ids;
  for (int i = 0; i < kReaders + kWritten; ++i) {
    const PageId id = *volume.Allocate();
    Page page;
    page.bytes.fill(static_cast<std::uint8_t>(id + 1));
    ASSERT_TRUE(volume.Write(id, page).ok());
    (i < kReaders ? read_ids : write_ids).push_back(id);
  }

  std::vector<int> bad_reads(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const PageId id = read_ids[static_cast<std::size_t>(r)];
      Page out;
      for (int round = 0; round < kRounds; ++round) {
        // Read() re-verifies the page CRC, so a torn image fails here.
        if (!volume.Read(id, &out).ok() ||
            out.bytes[0] != static_cast<std::uint8_t>(id + 1) ||
            out.bytes[kPageSize - 1] != static_cast<std::uint8_t>(id + 1)) {
          ++bad_reads[static_cast<std::size_t>(r)];
        }
      }
    });
  }
  std::thread writer([&] {
    Page page;
    for (int round = 0; round < kRounds; ++round) {
      for (PageId id : write_ids) {
        page.bytes.fill(static_cast<std::uint8_t>(round + id));
        ASSERT_TRUE(volume.Write(id, page).ok());
      }
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  for (int r = 0; r < kReaders; ++r) EXPECT_EQ(bad_reads[r], 0) << "reader " << r;

  // The writer's last images and their CRCs survive a sync and reopen.
  ASSERT_TRUE(volume.Sync().ok());
  store->reset();
  auto reopened = FilePageStore::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  for (PageId id : write_ids) {
    Page out;
    ASSERT_TRUE((*reopened)->Read(id, &out).ok()) << "page " << id;
    EXPECT_EQ(out.bytes[kPageSize / 2],
              static_cast<std::uint8_t>(kRounds - 1 + id));
  }
}

TEST_F(FilePageStoreTest, FailedOpenLeavesMetadataUntouched) {
  {
    auto store = FilePageStore::Create(path_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Allocate().ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  // Corrupt the live count (bytes 16..23) so Open rejects the volume.
  const auto read_meta = [&] {
    std::ifstream in(path_ + ".meta", std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  };
  std::vector<char> meta = read_meta();
  ASSERT_GE(meta.size(), 24u);
  meta[16] = 17;
  {
    std::ofstream out(path_ + ".meta", std::ios::binary | std::ios::trunc);
    out.write(meta.data(), static_cast<std::streamsize>(meta.size()));
  }
  EXPECT_EQ(FilePageStore::Open(path_).status().code(),
            StatusCode::kCorruption);
  // The rejected store must not sync its half-read state over the sidecar:
  // the corruption stays on disk, and a second open still reports it.
  EXPECT_EQ(read_meta(), meta);
  EXPECT_EQ(FilePageStore::Open(path_).status().code(),
            StatusCode::kCorruption);
}

TEST_F(FilePageStoreTest, ReadOnlyUseLeavesSidecarUntouched) {
  PageId id;
  {
    auto store = FilePageStore::Create(path_);
    ASSERT_TRUE(store.ok());
    id = *(*store)->Allocate();
    Page page;
    page.bytes[3] = 0x33;
    ASSERT_TRUE((*store)->Write(id, page).ok());
  }
  const std::string meta_path = path_ + ".meta";
  BackdateMtime(meta_path);
  const std::vector<char> meta = ReadFileBytes(meta_path);
  {
    auto store = FilePageStore::Open(path_);
    ASSERT_TRUE(store.ok()) << store.status();
    BufferPool pool(store->get(), 4);
    for (int round = 0; round < 3; ++round) {
      Result<PageGuard> guard = pool.Fetch(id);
      ASSERT_TRUE(guard.ok());
      EXPECT_EQ(guard->page().bytes[3], 0x33);
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE((*store)->Sync().ok());  // clean: nothing to do
  }  // the destructor's Sync must not rewrite the sidecar either
  EXPECT_EQ(ReadFileBytes(meta_path), meta);
  const timespec mtime = MtimeOf(meta_path);
  EXPECT_EQ(mtime.tv_sec, 1000000000);
  EXPECT_EQ(mtime.tv_nsec, 0);
}

TEST_F(FilePageStoreTest, WriteAfterReopenStillPersistsOnClose) {
  PageId id;
  {
    auto store = FilePageStore::Create(path_);
    ASSERT_TRUE(store.ok());
    id = *(*store)->Allocate();
  }
  {
    auto store = FilePageStore::Open(path_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Sync().ok());
    Page page;
    page.bytes[9] = 0x99;
    ASSERT_TRUE((*store)->Write(id, page).ok());
  }  // no explicit Sync: the destructor persists the new checksum
  auto reopened = FilePageStore::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  Page out;
  ASSERT_TRUE((*reopened)->Read(id, &out).ok());
  EXPECT_EQ(out.bytes[9], 0x99);
}

TEST_F(FilePageStoreTest, AllocateAndFreeMakeTheVolumeDirty) {
  {
    auto store = FilePageStore::Create(path_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Allocate().ok());
  }
  {
    auto store = FilePageStore::Open(path_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Free(0).ok());
  }
  {
    auto store = FilePageStore::Open(path_);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->num_live_pages(), 0u);
    ASSERT_TRUE((*store)->Allocate().ok());
    ASSERT_TRUE((*store)->Allocate().ok());
  }
  auto reopened = FilePageStore::Open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_live_pages(), 2u);
  EXPECT_EQ((*reopened)->capacity_pages(), 2u);
}

}  // namespace
}  // namespace tsss::storage

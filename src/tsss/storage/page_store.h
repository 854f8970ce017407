#ifndef TSSS_STORAGE_PAGE_STORE_H_
#define TSSS_STORAGE_PAGE_STORE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "tsss/common/status.h"
#include "tsss/storage/page.h"

namespace tsss::storage {

/// Page volume: a flat, growable array of 4 KiB pages with
/// allocate/free/read/write. Every Read/Write counts as one physical page
/// access - the unit the paper's Figure 5 reports.
///
/// The volume bookkeeping (which pages are live, the free list, access
/// counting) lives here once; an implementation only says where a page image
/// lives, through the private ReadPage/WritePage hooks, and how it reaches
/// stable storage (Sync). Implementations: MemPageStore (simulated disk in
/// RAM, the default) and FilePageStore (a real file with per-page checksums).
///
/// Thread-safety: Read/Write on *distinct live pages* may run concurrently
/// (access counters are atomic; page images are disjoint). Allocate/Free/Sync
/// read or mutate the volume shape and require exclusive access - the same
/// single-writer contract the buffer pool and engine expose (see DESIGN.md
/// §8, "Thread-safety contract").
class PageStore {
 public:
  virtual ~PageStore() = default;

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Allocates a zeroed page and returns its id. Freed pages are recycled.
  /// The zero-fill is not counted as a physical write.
  Result<PageId> Allocate();

  /// Returns a page to the free list. Double frees are detected.
  Status Free(PageId id);

  /// Copies the page contents into `out`. Counts one physical read.
  Status Read(PageId id, Page* out);

  /// Overwrites the page. Counts one physical write.
  Status Write(PageId id, const Page& page);

  /// Makes every page and the allocation state durable. A volume with no
  /// Write/Allocate/Free since its last successful Sync (or since it was
  /// opened) is already durable: Sync returns OK without touching storage,
  /// so a read-only user never rewrites what it did not change.
  Status Sync();

  /// Number of live (allocated, not freed) pages.
  std::size_t num_live_pages() const { return live_count_; }

  /// Total pages ever allocated (high-water mark of the volume).
  std::size_t capacity_pages() const { return live_.size(); }

  PageAccessMetrics metrics() const { return metrics_.Snapshot(); }
  void ResetMetrics() { metrics_.Reset(); }

 protected:
  /// `live` is the allocation state of a reopened volume (empty for a new
  /// one); the free list and live count are rebuilt from it. `durable` says
  /// that state is already on stable storage, so the first Sync has nothing
  /// to do until something changes.
  explicit PageStore(std::vector<bool> live = {}, bool durable = false);

  bool IsLive(PageId id) const { return id < live_.size() && live_[id]; }

 private:
  /// Copies the stored image of live page `id` into `out`.
  virtual Status ReadPage(PageId id, Page* out) = 0;

  /// Stores `page` as the image of page `id`. Allocate calls it with
  /// id == capacity_pages() to extend the volume by one page.
  virtual Status WritePage(PageId id, const Page& page) = 0;

  /// Makes the current volume durable; called by Sync only when dirty.
  virtual Status SyncVolume() = 0;

  Status CheckLive(PageId id) const;

  std::vector<bool> live_;
  std::vector<PageId> free_list_;
  std::size_t live_count_ = 0;
  /// Atomic so concurrent readers (buffer-pool shards serving the query
  /// service) can count without racing; see AtomicPageAccessMetrics.
  AtomicPageAccessMetrics metrics_;
  /// Set by Write/Allocate/Free, cleared by a successful Sync. Atomic
  /// because concurrent Writes of distinct pages (buffer-pool write-back)
  /// may set it at the same time; Sync itself is exclusive.
  std::atomic<bool> dirty_;
};

/// In-memory page store simulating a disk volume. The store is RAM-backed;
/// the I/O *model* (page granularity, access counting), not the medium, is
/// what the experiments depend on.
class MemPageStore final : public PageStore {
 private:
  Status ReadPage(PageId id, Page* out) override;
  Status WritePage(PageId id, const Page& page) override;
  Status SyncVolume() override { return Status::OK(); }

  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace tsss::storage

#endif  // TSSS_STORAGE_PAGE_STORE_H_

#include "tsss/storage/page_store.h"

#include <string>
#include <utility>

namespace tsss::storage {

PageStore::PageStore(std::vector<bool> live, bool durable)
    : live_(std::move(live)), dirty_(!durable) {
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i]) {
      ++live_count_;
    } else {
      free_list_.push_back(static_cast<PageId>(i));
    }
  }
}

Result<PageId> PageStore::Allocate() {
  const bool recycled = !free_list_.empty();
  const PageId id =
      recycled ? free_list_.back() : static_cast<PageId>(live_.size());
  // Zero-fill so fresh and recycled pages read back deterministically.
  Status s = WritePage(id, Page{});
  if (!s.ok()) return s;
  if (recycled) {
    free_list_.pop_back();
    live_[id] = true;
  } else {
    live_.push_back(true);
  }
  ++live_count_;
  dirty_.store(true, std::memory_order_relaxed);  // relaxed-ok: Sync is exclusive
  return id;
}

Status PageStore::CheckLive(PageId id) const {
  if (!IsLive(id)) {
    return Status::NotFound("page " + std::to_string(id) + " is not live");
  }
  return Status::OK();
}

Status PageStore::Free(PageId id) {
  Status s = CheckLive(id);
  if (!s.ok()) return s;
  live_[id] = false;
  free_list_.push_back(id);
  --live_count_;
  dirty_.store(true, std::memory_order_relaxed);  // relaxed-ok: Sync is exclusive
  return Status::OK();
}

Status PageStore::Read(PageId id, Page* out) {
  Status s = CheckLive(id);
  if (!s.ok()) return s;
  ++metrics_.physical_reads;
  return ReadPage(id, out);
}

Status PageStore::Write(PageId id, const Page& page) {
  Status s = CheckLive(id);
  if (!s.ok()) return s;
  ++metrics_.physical_writes;
  dirty_.store(true, std::memory_order_relaxed);  // relaxed-ok: Sync is exclusive
  return WritePage(id, page);
}

Status PageStore::Sync() {
  // relaxed-ok: Sync runs exclusively; writers are quiescent
  if (!dirty_.load(std::memory_order_relaxed)) return Status::OK();
  Status s = SyncVolume();
  if (s.ok()) dirty_.store(false, std::memory_order_relaxed);  // relaxed-ok: exclusive
  return s;
}

Status MemPageStore::ReadPage(PageId id, Page* out) {
  *out = *pages_[id];
  return Status::OK();
}

Status MemPageStore::WritePage(PageId id, const Page& page) {
  if (id == pages_.size()) {
    pages_.push_back(std::make_unique<Page>(page));
  } else {
    *pages_[id] = page;
  }
  return Status::OK();
}

}  // namespace tsss::storage

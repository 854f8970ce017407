#ifndef TSSS_STORAGE_FILE_PAGE_STORE_H_
#define TSSS_STORAGE_FILE_PAGE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tsss/common/status.h"
#include "tsss/storage/page_store.h"

namespace tsss::storage {

/// File-backed page store: page i lives at byte offset i * 4096 of `path`,
/// and a sidecar file `path + ".meta"` records the allocation state plus a
/// CRC-32 per page, verified on every read.
///
/// Pages move with pread/pwrite at their own offsets, so there is no shared
/// file cursor and no lock: the PageStore contract (concurrent Read/Write of
/// distinct live pages, exclusive Allocate/Free/Sync) holds as is, and each
/// page's CRC slot is touched only by that page's reads and writes.
///
/// Durability model: Sync() fdatasyncs the page file, then rewrites and
/// fdatasyncs the metadata; the destructor calls it best-effort. A volume
/// nobody changed since it was opened or last synced is left untouched. Crash
/// atomicity (journaling) is out of scope - this store exists to persist
/// built indexes and to keep the I/O path honest, not to be a transactional
/// engine.
class FilePageStore final : public PageStore {
 public:
  /// Creates a fresh (truncated) volume.
  static Result<std::unique_ptr<PageStore>> Create(const std::string& path);

  /// Opens an existing volume created by Create()/Sync().
  static Result<std::unique_ptr<PageStore>> Open(const std::string& path);

  ~FilePageStore() override;

 private:
  /// Takes ownership of `fd`; `live` and `crc` describe its pages, which
  /// are `durable` when they were just loaded from the sidecar.
  FilePageStore(std::string path, int fd, std::vector<bool> live,
                std::vector<std::uint32_t> crc, bool durable)
      : PageStore(std::move(live), durable),
        path_(std::move(path)),
        fd_(fd),
        crc_(std::move(crc)) {}

  Status ReadPage(PageId id, Page* out) override;
  Status WritePage(PageId id, const Page& page) override;
  /// Persists the page file, then the metadata (allocation state and
  /// checksums).
  Status SyncVolume() override;
  std::string MetaPath() const { return path_ + ".meta"; }

  std::string path_;
  int fd_;
  std::vector<std::uint32_t> crc_;
};

}  // namespace tsss::storage

#endif  // TSSS_STORAGE_FILE_PAGE_STORE_H_

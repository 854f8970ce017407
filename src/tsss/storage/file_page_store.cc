#include "tsss/storage/file_page_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>

#include "tsss/common/crc32.h"
#include "tsss/obs/metrics.h"

namespace tsss::storage {
namespace {

constexpr std::uint64_t kMetaMagic = 0x5453535350414745ull;  // "TSSSPAGE"
constexpr std::uint64_t kMetaHeaderBytes = 3 * sizeof(std::uint64_t);
constexpr std::uint64_t kMetaBytesPerPage =
    sizeof(std::uint8_t) + sizeof(std::uint32_t);

template <typename T>
void PutScalar(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool GetScalar(const std::string& in, std::size_t* pos, T* value) {
  if (in.size() - *pos < sizeof(T)) return false;
  std::memcpy(value, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

std::string ErrnoText() { return std::strerror(errno); }

/// Moves all `len` bytes at `offset` with `io` (::pread or ::pwrite),
/// resuming after a partial transfer or EINTR. Returns "" on success, else
/// why the transfer stopped short.
template <typename Io, typename Byte>
std::string TransferAll(Io io, int fd, Byte* buf, std::size_t len,
                        off_t offset) {
  while (len > 0) {
    const ssize_t n = io(fd, buf, len, offset);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return ErrnoText();
    if (n == 0) return "unexpected end of file";
    buf += n;
    len -= static_cast<std::size_t>(n);
    offset += n;
  }
  return "";
}

off_t PageOffset(PageId id) { return static_cast<off_t>(id) * kPageSize; }

/// Reads the metadata sidecar and checks it against the page file behind
/// `fd`. Every field is untrusted input.
Status LoadMeta(const std::string& meta_path, int fd, std::vector<bool>* live,
                std::vector<std::uint32_t>* crc) {
  std::ifstream in(meta_path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open metadata file '" + meta_path + "'");
  }
  const std::string meta((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());

  // The declared capacity is checked against the metadata size BEFORE
  // sizing any allocation by it, so a corrupt header cannot demand a
  // multi-gigabyte resize.
  std::size_t pos = 0;
  std::uint64_t magic = 0;
  std::uint64_t capacity = 0;
  std::uint64_t live_count = 0;
  if (!GetScalar(meta, &pos, &magic) || magic != kMetaMagic) {
    return Status::Corruption("bad metadata magic in '" + meta_path + "'");
  }
  if (!GetScalar(meta, &pos, &capacity) ||
      !GetScalar(meta, &pos, &live_count)) {
    return Status::Corruption("truncated metadata header");
  }
  const std::uint64_t body_pages =
      (meta.size() - kMetaHeaderBytes) / kMetaBytesPerPage;
  if (capacity > body_pages) {
    return Status::Corruption("metadata declares " + std::to_string(capacity) +
                              " pages but the file only holds " +
                              std::to_string(body_pages));
  }
  if (capacity > static_cast<std::uint64_t>(kInvalidPageId)) {
    return Status::Corruption("metadata capacity " + std::to_string(capacity) +
                              " exceeds the page-id space");
  }
  if (live_count > capacity) {
    return Status::Corruption("metadata live count " +
                              std::to_string(live_count) +
                              " exceeds capacity " + std::to_string(capacity));
  }
  live->resize(capacity);
  crc->resize(capacity);
  std::uint64_t live_recount = 0;
  for (std::uint64_t i = 0; i < capacity; ++i) {
    std::uint8_t alive = 0;
    if (!GetScalar(meta, &pos, &alive) || !GetScalar(meta, &pos, &(*crc)[i])) {
      return Status::Corruption("truncated metadata body");
    }
    (*live)[i] = alive != 0;
    if (alive != 0) ++live_recount;
  }
  if (live_recount != live_count) {
    return Status::Corruption(
        "metadata live count " + std::to_string(live_count) +
        " does not match the " + std::to_string(live_recount) +
        " pages marked live");
  }

  // The data file must hold `capacity` pages (capacity is bounded by the
  // metadata size check above, so the product cannot overflow).
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return Status::IoError("cannot stat page file: " + ErrnoText());
  }
  if (static_cast<std::uint64_t>(st.st_size) < capacity * kPageSize) {
    return Status::Corruption("page file shorter than metadata capacity");
  }
  return Status::OK();
}

}  // namespace

FilePageStore::~FilePageStore() {
  // A destructor cannot propagate, but a failed final Sync means the
  // metadata on disk is stale — count it where an operator can see it.
  Status s = Sync();
  if (!s.ok()) {
    obs::MetricsRegistry::Global()
        .GetCounter("tsss_store_dtor_sync_failures_total",
                    "Sync failures during FilePageStore destruction (on-disk "
                    "metadata left stale)")
        ->Inc();
  }
  ::close(fd_);
}

Result<std::unique_ptr<PageStore>> FilePageStore::Create(
    const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return Status::IoError("cannot create page file '" + path + "'");
  std::unique_ptr<PageStore> store(
      new FilePageStore(path, fd, {}, {}, /*durable=*/false));
  Status s = store->Sync();
  if (!s.ok()) return s;
  return store;
}

Result<std::unique_ptr<PageStore>> FilePageStore::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open page file '" + path + "'");
  // The store is built only from a fully validated volume: its destructor
  // syncs, which must never overwrite the metadata of a failed open.
  std::vector<bool> live;
  std::vector<std::uint32_t> crc;
  Status s = LoadMeta(path + ".meta", fd, &live, &crc);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  return std::unique_ptr<PageStore>(
      new FilePageStore(path, fd, std::move(live), std::move(crc),
                        /*durable=*/true));
}

Status FilePageStore::ReadPage(PageId id, Page* out) {
  const std::string err = TransferAll(::pread, fd_, out->bytes.data(),
                                      kPageSize, PageOffset(id));
  if (!err.empty()) {
    return Status::IoError("short read on page " + std::to_string(id) + ": " +
                           err);
  }
  if (Crc32(out->bytes.data(), kPageSize) != crc_[id]) {
    return Status::Corruption("checksum mismatch on page " + std::to_string(id));
  }
  return Status::OK();
}

Status FilePageStore::WritePage(PageId id, const Page& page) {
  const std::string err = TransferAll(::pwrite, fd_, page.bytes.data(),
                                      kPageSize, PageOffset(id));
  if (!err.empty()) {
    return Status::IoError("short write on page " + std::to_string(id) +
                           ": " + err);
  }
  if (id == crc_.size()) crc_.push_back(0);  // Allocate extends the volume
  crc_[id] = Crc32(page.bytes.data(), kPageSize);
  return Status::OK();
}

Status FilePageStore::SyncVolume() {
  if (::fdatasync(fd_) != 0) {
    return Status::IoError("fdatasync of '" + path_ + "' failed: " +
                           ErrnoText());
  }
  std::string meta;
  PutScalar<std::uint64_t>(&meta, kMetaMagic);
  PutScalar<std::uint64_t>(&meta, capacity_pages());
  PutScalar<std::uint64_t>(&meta, num_live_pages());
  for (std::size_t i = 0; i < capacity_pages(); ++i) {
    PutScalar<std::uint8_t>(&meta, IsLive(static_cast<PageId>(i)) ? 1 : 0);
    PutScalar<std::uint32_t>(&meta, crc_[i]);
  }
  const int meta_fd = ::open(MetaPath().c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (meta_fd < 0) {
    return Status::IoError("cannot write metadata file '" + MetaPath() + "'");
  }
  std::string err = TransferAll(::pwrite, meta_fd, meta.data(), meta.size(), 0);
  if (err.empty() && ::fdatasync(meta_fd) != 0) err = ErrnoText();
  if (::close(meta_fd) != 0 && err.empty()) err = ErrnoText();
  if (!err.empty()) {
    return Status::IoError("metadata write of '" + MetaPath() +
                           "' failed: " + err);
  }
  return Status::OK();
}

}  // namespace tsss::storage

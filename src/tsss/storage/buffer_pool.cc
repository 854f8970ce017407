#include "tsss/storage/buffer_pool.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "tsss/common/check.h"
#include "tsss/common/crc32.h"
#include "tsss/obs/metrics.h"
#include "tsss/storage/query_counters.h"

namespace tsss::storage {

struct PageGuard::Frame {
  PageId id = kInvalidPageId;
  Page page;
  bool dirty = false;
  /// Atomic so audits and assertions may read it without the shard lock;
  /// all modifications happen under the owning shard's mutex.
  std::atomic<int> pin_count{0};
  /// CRC-32 of `page` as last loaded from / written back to the store.
  /// Only meaningful when `crc_valid`; used to detect stray writes to clean
  /// frames (see BufferPool class comment).
  std::uint32_t clean_crc = 0;
  bool crc_valid = false;
  std::list<PageId>::iterator lru_pos;
};

namespace {

std::uint32_t PageCrc(const Page& page) {
  return Crc32(page.bytes.data(), page.bytes.size());
}

/// Ticks the calling thread's per-query counters, if installed.
void CountQueryPoolRead(bool miss) {
  if (QueryCounters* qc = CurrentQueryCounters()) {
    ++qc->pool_logical_reads;
    if (miss) ++qc->pool_misses;
  }
}

/// Process-wide pool counters in the metrics registry, aggregated across
/// every BufferPool instance. Pointers are resolved once; each tick is one
/// relaxed atomic add on top of the per-instance AtomicMetrics.
struct PoolRegistryCounters {
  obs::Counter* logical_reads;
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Counter* writebacks;
  obs::Counter* overflows;
  obs::Counter* crc_failures;
  obs::Counter* dtor_flush_failures;
};

const PoolRegistryCounters& PoolCounters() {
  static const PoolRegistryCounters counters = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    return PoolRegistryCounters{
        reg.GetCounter("tsss_pool_logical_reads_total",
                       "Buffer-pool page requests (Fetch/New calls)"),
        reg.GetCounter("tsss_pool_hits_total", "Buffer-pool cache hits"),
        reg.GetCounter("tsss_pool_misses_total",
                       "Buffer-pool cache misses (store reads)"),
        reg.GetCounter("tsss_pool_evictions_total",
                       "Frames evicted to make room"),
        reg.GetCounter("tsss_pool_writebacks_total",
                       "Dirty frames written back to the store"),
        reg.GetCounter("tsss_pool_overflows_total",
                       "Times a shard exceeded its soft capacity"),
        reg.GetCounter("tsss_pool_crc_failures_total",
                       "Clean-frame CRC verification failures"),
        reg.GetCounter("tsss_pool_dtor_flush_failures_total",
                       "FlushAll failures during pool destruction (dirty "
                       "pages lost)"),
    };
  }();
  return counters;
}

}  // namespace

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_) {
  other.pool_ = nullptr;
  other.frame_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

PageId PageGuard::id() const {
  TSSS_DCHECK(valid());
  return frame_->id;
}

const Page& PageGuard::page() const {
  TSSS_DCHECK(valid());
  return frame_->page;
}

Page& PageGuard::MutablePage() {
  TSSS_DCHECK(valid());
  pool_->MarkDirty(frame_);
  return frame_->page;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    frame_ = nullptr;
  }
}

BufferPool::BufferPool(PageStore* store, std::size_t capacity_pages,
                       bool verify_clean_crc)
    : store_(store),
      capacity_(capacity_pages == 0 ? 1 : capacity_pages),
      verify_clean_crc_(verify_clean_crc) {
  num_shards_ = capacity_ >= kShardingMinCapacity ? kNumShards : 1;
  std::uint32_t bits = 0;
  for (std::size_t n = num_shards_; n > 1; n >>= 1) ++bits;
  shard_shift_ = 32u - bits;
  shard_capacity_ = (capacity_ + num_shards_ - 1) / num_shards_;
  shards_ = std::make_unique<Shard[]>(num_shards_);
}

BufferPool::~BufferPool() {
  // Best-effort flush; errors here indicate the store died first, which the
  // usage contract forbids. A destructor cannot propagate, but a silent
  // failure here is lost dirty pages — surface it through the registry so
  // an operator can see it happened.
  Status s = FlushAll();
  if (!s.ok()) PoolCounters().dtor_flush_failures->Inc();
}

void BufferPool::TouchLru(Shard& shard, Frame* frame) {
  // Relinks the frame's list node in place: a cache hit allocates nothing,
  // and lru_pos stays valid.
  shard.lru.splice(shard.lru.begin(), shard.lru, frame->lru_pos);
}

Result<PageGuard> BufferPool::Fetch(PageId id) {
  ++metrics_.logical_reads;
  PoolCounters().logical_reads->Inc();
  if (labeled_logical_reads_ != nullptr) labeled_logical_reads_->Inc();
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  auto it = shard.table.find(id);
  if (it != shard.table.end()) {
    ++metrics_.hits;
    PoolCounters().hits->Inc();
    if (labeled_hits_ != nullptr) labeled_hits_->Inc();
    CountQueryPoolRead(/*miss=*/false);
    ProfileAccess(shard, id, /*miss=*/false);
    Frame* frame = it->second.get();
    TouchLru(shard, frame);
    frame->pin_count.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: pin_count mutated under shard mutex
    return PageGuard(this, frame);
  }
  ++metrics_.misses;
  PoolCounters().misses->Inc();
  if (labeled_misses_ != nullptr) labeled_misses_->Inc();
  CountQueryPoolRead(/*miss=*/true);
  ProfileAccess(shard, id, /*miss=*/true);
  auto frame = std::make_unique<Frame>();
  frame->id = id;
  // The store read happens under the shard lock; concurrent misses on the
  // same page therefore load it exactly once, and misses on pages of other
  // shards proceed in parallel.
  Status s = store_->Read(id, &frame->page);
  if (!s.ok()) return s;
  if (verify_clean_crc_) {
    frame->clean_crc = PageCrc(frame->page);
    frame->crc_valid = true;
  }
  shard.lru.push_front(id);
  frame->lru_pos = shard.lru.begin();
  frame->pin_count.store(1, std::memory_order_relaxed);  // relaxed-ok: pin_count mutated under shard mutex
  Frame* raw = frame.get();
  shard.table.emplace(id, std::move(frame));
  s = EvictIfNeeded(shard);
  if (!s.ok()) return s;
  return PageGuard(this, raw);
}

Result<PageGuard> BufferPool::New() {
  Result<PageId> allocated = store_->Allocate();
  if (!allocated.ok()) return allocated.status();
  const PageId id = *allocated;
  ++metrics_.logical_reads;
  PoolCounters().logical_reads->Inc();
  if (labeled_logical_reads_ != nullptr) labeled_logical_reads_->Inc();
  CountQueryPoolRead(/*miss=*/false);
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  auto frame = std::make_unique<Frame>();
  frame->id = id;
  frame->dirty = true;
  ++shard.dirty;
  shard.lru.push_front(id);
  frame->lru_pos = shard.lru.begin();
  frame->pin_count.store(1, std::memory_order_relaxed);  // relaxed-ok: pin_count mutated under shard mutex
  Frame* raw = frame.get();
  shard.table.emplace(id, std::move(frame));
  Status s = EvictIfNeeded(shard);
  if (!s.ok()) return s;
  return PageGuard(this, raw);
}

Status BufferPool::Delete(PageId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  auto it = shard.table.find(id);
  if (it != shard.table.end()) {
    Frame* frame = it->second.get();
    if (frame->pin_count.load(std::memory_order_relaxed) > 0) {  // relaxed-ok: pin_count mutated under shard mutex
      return Status::FailedPrecondition("deleting pinned page " +
                                        std::to_string(id));
    }
    if (frame->dirty) {
      TSSS_DCHECK(shard.dirty > 0);
      --shard.dirty;
    }
    shard.lru.erase(frame->lru_pos);
    shard.table.erase(it);
  }
  return store_->Free(id);
}

void BufferPool::MarkDirty(Frame* frame) {
  Shard& shard = ShardFor(frame->id);
  MutexLock lock(shard.mu);
  if (!frame->dirty) {
    frame->dirty = true;
    ++shard.dirty;
    // The bytes are about to diverge from the stored copy; the clean CRC is
    // refreshed on the next write-back.
    frame->crc_valid = false;
  }
}

Status BufferPool::WriteBack(Shard& shard, Frame* frame) {
  if (!frame->dirty) return Status::OK();
  Status s = store_->Write(frame->id, frame->page);
  if (!s.ok()) return s;
  frame->dirty = false;
  TSSS_DCHECK(shard.dirty > 0);
  --shard.dirty;
  if (verify_clean_crc_) {
    frame->clean_crc = PageCrc(frame->page);
    frame->crc_valid = true;
  }
  ++metrics_.writebacks;
  PoolCounters().writebacks->Inc();
  return Status::OK();
}

Status BufferPool::EvictIfNeeded(Shard& shard) {
  while (shard.table.size() > shard_capacity_) {
    // Scan from the LRU tail for an unpinned victim.
    Frame* victim = nullptr;
    for (auto rit = shard.lru.rbegin(); rit != shard.lru.rend(); ++rit) {
      Frame* frame = shard.table.at(*rit).get();
      if (frame->pin_count.load(std::memory_order_relaxed) == 0) {  // relaxed-ok: pin_count mutated under shard mutex
        victim = frame;
        break;
      }
    }
    if (victim == nullptr) {
      // Everything is pinned: allow the shard to overflow.
      ++metrics_.overflows;
      PoolCounters().overflows->Inc();
      return Status::OK();
    }
    Status s = WriteBack(shard, victim);
    if (!s.ok()) return s;
    ++metrics_.evictions;
    PoolCounters().evictions->Inc();
    if (labeled_evictions_ != nullptr) labeled_evictions_->Inc();
    if (profile_enabled_.load(std::memory_order_relaxed)) {  // relaxed-ok: profiling on/off flag, advisory
      PageAccessStats& tally = shard.profile[victim->id];
      tally.page = victim->id;
      ++tally.evictions;
    }
    shard.lru.erase(victim->lru_pos);
    shard.table.erase(victim->id);
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (std::size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mu);
    for (auto& [id, frame] : shard.table) {
      Status s = WriteBack(shard, frame.get());
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

Status BufferPool::Clear() {
  for (std::size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mu);
    for (auto& [id, frame] : shard.table) {
      Status s = WriteBack(shard, frame.get());
      if (!s.ok()) return s;
    }
    for (auto it = shard.table.begin(); it != shard.table.end();) {
      if (it->second->pin_count.load(std::memory_order_relaxed) == 0) {  // relaxed-ok: pin_count mutated under shard mutex
        shard.lru.erase(it->second->lru_pos);
        it = shard.table.erase(it);
      } else {
        ++it;
      }
    }
  }
  return Status::OK();
}

void BufferPool::Unpin(Frame* frame) {
  Shard& shard = ShardFor(frame->id);
  MutexLock lock(shard.mu);
  const int prev = frame->pin_count.fetch_sub(1, std::memory_order_relaxed);  // relaxed-ok: pin_count mutated under shard mutex
  TSSS_DCHECK(prev > 0);
  if (prev == 1 && verify_clean_crc_ && !frame->dirty && frame->crc_valid &&
      PageCrc(frame->page) != frame->clean_crc) {
    // A clean frame's bytes changed: someone wrote through page() or a stale
    // pointer without MutablePage(). Recorded (not aborted) so AuditPins()
    // can report it and tests can exercise the detector.
    ++metrics_.crc_failures;
    PoolCounters().crc_failures->Inc();
  }
}

std::size_t BufferPool::dirty_frames() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mu);
    n += shard.dirty;
  }
  return n;
}

std::size_t BufferPool::size() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mu);
    n += shard.table.size();
  }
  return n;
}

BufferPoolMetrics BufferPool::metrics() const {
  BufferPoolMetrics out;
  out.logical_reads = metrics_.logical_reads.load(std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
  out.hits = metrics_.hits.load(std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
  out.misses = metrics_.misses.load(std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
  out.evictions = metrics_.evictions.load(std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
  out.writebacks = metrics_.writebacks.load(std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
  out.overflows = metrics_.overflows.load(std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
  out.crc_failures = metrics_.crc_failures.load(std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
  return out;
}

void BufferPool::ProfileAccess(Shard& shard, PageId id, bool miss) {
  if (!profile_enabled_.load(std::memory_order_relaxed)) return;  // relaxed-ok: profiling on/off flag, advisory
  PageAccessStats& tally = shard.profile[id];
  tally.page = id;
  ++tally.accesses;
  if (miss) ++tally.misses;
}

void BufferPool::EnableAccessProfile(bool enabled) {
  if (enabled) {
    // Start from a clean slate so the profile covers exactly the workload
    // run while it is on.
    for (std::size_t i = 0; i < num_shards_; ++i) {
      Shard& shard = shards_[i];
      MutexLock lock(shard.mu);
      shard.profile.clear();
    }
  }
  profile_enabled_.store(enabled, std::memory_order_relaxed);  // relaxed-ok: profiling on/off flag, advisory
}

std::vector<PageAccessStats> BufferPool::AccessProfile() const {
  std::vector<PageAccessStats> out;
  for (std::size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mu);
    out.reserve(out.size() + shard.profile.size());
    for (const auto& [id, tally] : shard.profile) out.push_back(tally);
  }
  std::sort(out.begin(), out.end(),
            [](const PageAccessStats& a, const PageAccessStats& b) {
              if (a.accesses != b.accesses) return a.accesses > b.accesses;
              return a.page < b.page;
            });
  return out;
}

void BufferPool::ResetMetrics() {
  metrics_.logical_reads.store(0, std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
  metrics_.hits.store(0, std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
  metrics_.misses.store(0, std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
  metrics_.evictions.store(0, std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
  metrics_.writebacks.store(0, std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
  metrics_.overflows.store(0, std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
  metrics_.crc_failures.store(0, std::memory_order_relaxed);  // relaxed-ok: stats counter, advisory snapshot
}

void BufferPool::SetMetricsLabel(const std::string& key,
                                 const std::string& value) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  labeled_logical_reads_ =
      reg.GetCounter(obs::WithLabel("tsss_pool_logical_reads_total", key, value));
  labeled_hits_ = reg.GetCounter(obs::WithLabel("tsss_pool_hits_total", key, value));
  labeled_misses_ =
      reg.GetCounter(obs::WithLabel("tsss_pool_misses_total", key, value));
  labeled_evictions_ =
      reg.GetCounter(obs::WithLabel("tsss_pool_evictions_total", key, value));
}

Status BufferPool::AuditPins() const {
  if (metrics_.crc_failures.load(std::memory_order_relaxed) > 0) {  // relaxed-ok: stats counter, advisory snapshot
    return Status::Corruption(
        "clean-frame CRC verification failed " +
        std::to_string(metrics_.crc_failures.load(std::memory_order_relaxed)) +  // relaxed-ok: stats counter, advisory snapshot
        " time(s): a page was modified without MutablePage()");
  }
  std::size_t dirty_recount = 0;
  std::size_t dirty_counter = 0;
  for (std::size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mu);
    if (shard.lru.size() != shard.table.size()) {
      return Status::Corruption(
          "LRU list has " + std::to_string(shard.lru.size()) +
          " entries but the frame table has " +
          std::to_string(shard.table.size()) + " (shard " + std::to_string(i) +
          ")");
    }
    std::unordered_set<PageId> lru_ids;
    for (const PageId id : shard.lru) {
      if (!lru_ids.insert(id).second) {
        return Status::Corruption("page " + std::to_string(id) +
                                  " appears twice in the LRU list");
      }
      if (shard.table.find(id) == shard.table.end()) {
        return Status::Corruption("LRU page " + std::to_string(id) +
                                  " is not in the frame table");
      }
    }
    for (const auto& [id, frame] : shard.table) {
      if (frame->id != id) {
        return Status::Corruption("frame for page " + std::to_string(id) +
                                  " believes it is page " +
                                  std::to_string(frame->id));
      }
      const int pins = frame->pin_count.load(std::memory_order_relaxed);  // relaxed-ok: pin_count mutated under shard mutex
      if (pins < 0) {
        return Status::Corruption("page " + std::to_string(id) +
                                  " has negative pin count " +
                                  std::to_string(pins));
      }
      if (pins > 0) {
        return Status::FailedPrecondition(
            "page " + std::to_string(id) + " still has " +
            std::to_string(pins) +
            " pin(s) at an operation boundary (leaked PageGuard)");
      }
      if (*frame->lru_pos != id) {
        return Status::Corruption("page " + std::to_string(id) +
                                  " LRU back-pointer is stale");
      }
      if (frame->dirty) ++dirty_recount;
    }
    dirty_counter += shard.dirty;
  }
  if (dirty_recount != dirty_counter) {
    return Status::Corruption(
        "dirty-frame accounting off: counter says " +
        std::to_string(dirty_counter) + ", recount found " +
        std::to_string(dirty_recount));
  }
  return Status::OK();
}

}  // namespace tsss::storage

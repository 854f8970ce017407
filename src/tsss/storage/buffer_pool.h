#ifndef TSSS_STORAGE_BUFFER_POOL_H_
#define TSSS_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "tsss/common/check.h"
#include "tsss/common/mutex.h"
#include "tsss/common/status.h"
#include "tsss/common/thread_annotations.h"
#include "tsss/storage/page.h"
#include "tsss/storage/page_store.h"

namespace tsss::obs {
class Counter;  // labelled per-instance registry counters (SetMetricsLabel)
}  // namespace tsss::obs

namespace tsss::storage {

class BufferPool;

/// RAII pin on a buffered page. While a guard is alive the frame cannot be
/// evicted and its data pointer stays valid. Move-only.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return pool_ != nullptr; }
  PageId id() const;

  /// Read-only view of the page bytes.
  const Page& page() const;

  /// Mutable view; automatically marks the frame dirty.
  Page& MutablePage();

  /// Releases the pin early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  struct Frame;
  PageGuard(BufferPool* pool, Frame* frame) : pool_(pool), frame_(frame) {}

  BufferPool* pool_ = nullptr;
  Frame* frame_ = nullptr;
};

/// Counters specific to the buffer pool (in addition to the PageStore's
/// physical counters).
struct BufferPoolMetrics {
  std::uint64_t logical_reads = 0;  ///< Fetch/New calls (what Figure 5 counts)
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t overflows = 0;  ///< times the pool exceeded soft capacity
  /// Clean frames whose bytes changed between load and final unpin - a stray
  /// write through a stale pointer. Any non-zero value fails AuditPins().
  std::uint64_t crc_failures = 0;

  void Reset() { *this = BufferPoolMetrics{}; }
};

/// Per-page tally collected while the access profile is enabled; the raw
/// material of the `tsss_cli inspect` heatmap (pages bucketed by tree level).
struct PageAccessStats {
  PageId page = kInvalidPageId;
  std::uint64_t accesses = 0;   ///< Fetch calls for this page (hits + misses)
  std::uint64_t misses = 0;     ///< of those, store reads
  std::uint64_t evictions = 0;  ///< times the page was evicted while profiled
};

/// LRU write-back buffer pool over a PageStore.
///
/// Thread-safety (DESIGN.md §8): the pool is internally synchronized for
/// concurrent readers. The frame table is sharded by page-id hash; each
/// shard owns its own mutex, frame map and LRU list, so Fetch/Unpin from
/// different threads contend only when they touch the same shard. Pin counts
/// are atomic and a pinned frame is never evicted, so the bytes behind a
/// live PageGuard stay valid and unchanging without further locking.
/// Mutations that change the *set* of pages (New/Delete) are shard-locked
/// too, but the volume-shape single-writer contract of the underlying store
/// still applies: do not run them concurrently with anything else.
///
/// Small pools (capacity < kShardingMinCapacity, e.g. every unit-test pool)
/// use a single shard and therefore keep the exact global-LRU eviction order
/// of the classic single-threaded pool; large pools trade strict global LRU
/// for per-shard LRU, the standard concurrency/recency compromise.
///
/// The capacity is soft: if every frame of a shard is pinned the shard grows
/// past its slice of the capacity rather than failing mid-operation, and
/// counts the overflow.
///
/// Correctness tooling (DESIGN.md, "Verification & static analysis"):
///  * Each frame remembers the CRC-32 of its bytes as loaded/written-back;
///    when the last pin on a *clean* frame drops, the CRC is re-verified, so
///    code that scribbles on a page without calling MutablePage() (or after
///    releasing its guard) is caught at the unpin boundary instead of
///    corrupting query answers. Enabled when debug checking is on (or
///    explicitly via the constructor); costs one CRC over 4 KiB per unpin.
///  * AuditPins() validates the pool's whole bookkeeping state; tests call
///    it after every operation.
class BufferPool {
 public:
  /// Pools at least this large shard their frame table for concurrency;
  /// smaller pools stay single-sharded (exact global LRU).
  static constexpr std::size_t kShardingMinCapacity = 64;
  /// Shard count used by pools past the threshold (power of two).
  static constexpr std::size_t kNumShards = 16;

  /// `store` must outlive the pool. capacity_pages >= 1. `verify_clean_crc`
  /// enables the unpin-time CRC re-verification described above; it defaults
  /// to on exactly when TSSS_DCHECK is on.
  BufferPool(PageStore* store, std::size_t capacity_pages,
             bool verify_clean_crc = TSSS_DCHECK_IS_ON != 0);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches an existing page, pinning it. Safe to call concurrently.
  Result<PageGuard> Fetch(PageId id);

  /// Allocates a brand-new zeroed page and pins it (already dirty).
  /// Volume-shape mutation: requires exclusive access to the pool.
  Result<PageGuard> New();

  /// Drops the page from the pool (must be unpinned) and frees it in the
  /// store. Dirty contents are discarded - the page is gone.
  /// Volume-shape mutation: requires exclusive access to the pool.
  Status Delete(PageId id);

  /// Writes all dirty frames back to the store (frames stay cached).
  Status FlushAll();

  /// Writes back and forgets every unpinned frame. Used by benchmarks to
  /// simulate a cold cache between queries.
  Status Clear();

  /// Deep structural audit of the pool's bookkeeping. Verifies that
  ///  * no frame is still pinned (a pin held across an operation boundary is
  ///    a leak - guards are meant to be scoped),
  ///  * each shard's LRU list and frame table describe the same set of pages,
  ///  * the maintained dirty-frame count matches a recount,
  ///  * no clean-frame CRC verification has ever failed.
  /// Returns the first violation as a Corruption/FailedPrecondition status.
  /// Meant to run at a quiescent point (no in-flight queries).
  Status AuditPins() const;

  /// Number of dirty (not yet written back) frames.
  std::size_t dirty_frames() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;

  /// Snapshot of the pool counters (atomics read relaxed; exact at any
  /// quiescent point, momentarily approximate under concurrency).
  BufferPoolMetrics metrics() const;
  void ResetMetrics();

  /// Registers labelled per-instance mirrors of the read-path counters
  /// (tsss_pool_{logical_reads,hits,misses,evictions}_total{key="value"}) in
  /// the process-wide obs::MetricsRegistry and bumps them alongside the
  /// unlabelled process totals. shard::ShardedEngine labels each shard's
  /// pool so per-shard hit rates are visible in one exporter scrape. Call
  /// during single-threaded setup, before any concurrent use of the pool.
  void SetMetricsLabel(const std::string& key, const std::string& value);

  /// Turns the per-page access profile on or off. Enabling clears any prior
  /// tally; disabling keeps it readable via AccessProfile(). While off (the
  /// default) the cost on Fetch is one relaxed atomic load.
  void EnableAccessProfile(bool enabled);
  bool access_profile_enabled() const {
    // relaxed-ok: advisory on/off flag; readers need no ordering
    return profile_enabled_.load(std::memory_order_relaxed);
  }

  /// The tally collected since the profile was last enabled, sorted by
  /// descending access count (ties broken by ascending page id).
  std::vector<PageAccessStats> AccessProfile() const;

  PageStore* store() { return store_; }

 private:
  friend class PageGuard;
  using Frame = PageGuard::Frame;

  /// One lock domain of the frame table. All fields are guarded by `mu`
  /// (checked by Clang Thread Safety Analysis). The Frame objects owned by
  /// `table` are part of the same lock domain: every non-atomic Frame field
  /// is read and written only under the owning shard's mu (pin_count is the
  /// atomic exception so PageGuard assertions and audits can read it
  /// lock-free); that per-owner relationship is not expressible as a
  /// GUARDED_BY attribute, so it is enforced by keeping all Frame access
  /// inside the TSSS_REQUIRES(shard.mu) helpers below.
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<PageId, std::unique_ptr<Frame>> table TSSS_GUARDED_BY(mu);
    std::list<PageId> lru TSSS_GUARDED_BY(mu);  ///< front = most recently used
    std::size_t dirty TSSS_GUARDED_BY(mu) = 0;  ///< dirty frames in this shard
    /// Per-page access tally; written only while profile_enabled_.
    std::unordered_map<PageId, PageAccessStats> profile TSSS_GUARDED_BY(mu);
  };

  /// Internally-atomic counters behind metrics().
  struct AtomicMetrics {
    std::atomic<std::uint64_t> logical_reads{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> writebacks{0};
    std::atomic<std::uint64_t> overflows{0};
    std::atomic<std::uint64_t> crc_failures{0};
  };

  Shard& ShardFor(PageId id) const {
    // Multiplicative (Fibonacci) hash: page ids are sequential, so taking
    // low bits directly would sweep scans through the shards in lock-step.
    const std::uint64_t h = static_cast<std::uint64_t>(id) * 2654435761ull;
    return shards_[(h >> shard_shift_) & (num_shards_ - 1)];
  }

  /// Evicts LRU unpinned frames until the shard fits its capacity slice.
  /// Best effort.
  Status EvictIfNeeded(Shard& shard) TSSS_REQUIRES(shard.mu);
  Status WriteBack(Shard& shard, Frame* frame) TSSS_REQUIRES(shard.mu);
  /// Records one Fetch for `id` in the shard's profile (if enabled).
  void ProfileAccess(Shard& shard, PageId id, bool miss)
      TSSS_REQUIRES(shard.mu);
  void MarkDirty(Frame* frame);
  void Unpin(Frame* frame);
  static void TouchLru(Shard& shard, Frame* frame) TSSS_REQUIRES(shard.mu);

  PageStore* store_;
  std::size_t capacity_;
  bool verify_clean_crc_;
  std::size_t num_shards_;
  std::uint32_t shard_shift_;     ///< hash >> shift yields the shard index
  std::size_t shard_capacity_;    ///< per-shard slice of capacity_
  std::unique_ptr<Shard[]> shards_;
  AtomicMetrics metrics_;
  std::atomic<bool> profile_enabled_{false};

  /// Labelled per-instance registry counters; null until SetMetricsLabel().
  /// Written once during setup, then read lock-free on the hot path.
  obs::Counter* labeled_logical_reads_ = nullptr;
  obs::Counter* labeled_hits_ = nullptr;
  obs::Counter* labeled_misses_ = nullptr;
  obs::Counter* labeled_evictions_ = nullptr;
};

}  // namespace tsss::storage

#endif  // TSSS_STORAGE_BUFFER_POOL_H_

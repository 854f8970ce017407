#ifndef TSSS_STORAGE_SEQUENCE_STORE_H_
#define TSSS_STORAGE_SEQUENCE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tsss/common/mutex.h"
#include "tsss/common/status.h"
#include "tsss/common/thread_annotations.h"
#include "tsss/storage/page.h"

namespace tsss::storage {

/// Identifier of a stored time series.
using SeriesId = std::uint32_t;

/// Page-aware storage for raw time-series values.
///
/// Values of all series are packed densely, 512 doubles per 4 KiB page, in
/// insertion order - the same model the paper uses to size the sequential
/// scan at (0.65M values x 8 bytes) / 4 KiB ~= 1300 pages. Reads issued
/// through ViewWindow() (and ReadWindow(), its copying form) count the pages
/// they touch; a sequential scan is accounted with RecordFullScan() (every
/// occupied page read exactly once).
///
/// Thread-safety: the read path (ViewWindow/ReadWindow/ReadWindowDeduped/
/// SeriesLength/SeriesValues/RecordFullScan) is const and safe to call from any number of
/// threads concurrently - access counters are atomic, values are only read.
/// AddSeries/AppendToSeries mutate the value heap; they serialize against
/// each other on an internal writer mutex, but NOT against readers, so the
/// single-writer-vs-readers contract still applies: no read may be in
/// flight while a mutation runs (DESIGN.md §8). The value vectors are
/// intentionally not TSSS_GUARDED_BY(write_mu_): the lock-free const read
/// path could not compile under that annotation, and pretending otherwise
/// (NO_THREAD_SAFETY_ANALYSIS on every reader) would hide real races rather
/// than document the external contract.
class SequenceStore {
 public:
  SequenceStore() = default;

  SequenceStore(const SequenceStore&) = delete;
  SequenceStore& operator=(const SequenceStore&) = delete;

  /// Number of doubles per 4 KiB page.
  static constexpr std::size_t kValuesPerPage = kPageSize / sizeof(double);

  /// Appends a series; returns its id. Empty series are allowed.
  SeriesId AddSeries(std::span<const double> values) TSSS_EXCLUDES(write_mu_);

  /// Appends `values` to the end of an existing series (time-series data are
  /// collected regularly; requirement 2 of the paper's Section 3).
  /// Only the *last* inserted series can grow in the dense-packing model;
  /// appending to earlier series returns FailedPrecondition.
  Status AppendToSeries(SeriesId id, std::span<const double> values)
      TSSS_EXCLUDES(write_mu_);

  std::size_t num_series() const { return offsets_.size(); }

  /// Length (in values) of the series.
  Result<std::size_t> SeriesLength(SeriesId id) const;

  /// Uncounted direct view of a whole series - used when building the index
  /// (pre-processing is not part of the per-query cost model).
  Result<std::span<const double>> SeriesValues(SeriesId id) const;

  /// Sentinel for a batch that has counted no page yet (see ViewWindow).
  static constexpr std::size_t kNoPageCounted = static_cast<std::size_t>(-1);

  /// Read-only view of values [offset, offset + n) of the series, with no
  /// copy. Counts the touched pages as logical reads: every page when
  /// `last_counted_page` is null; otherwise each page at most once across a
  /// sequence of calls with ascending (series, offset), pages <=
  /// *last_counted_page not being re-counted. Initialise *last_counted_page
  /// to kNoPageCounted before the first call of such a batch; it models a
  /// query that verifies its candidates in storage order, touching every
  /// needed data page exactly once. The view is valid only until the next
  /// AddSeries or AppendToSeries (the single-writer contract).
  Result<std::span<const double>> ViewWindow(
      SeriesId id, std::size_t offset, std::size_t n,
      std::size_t* last_counted_page = nullptr) const;

  /// ViewWindow copied into `out` (n = out.size()), counting every page.
  Status ReadWindow(SeriesId id, std::size_t offset, std::span<double> out) const;

  /// ViewWindow copied into `out`, counting pages once per batch.
  Status ReadWindowDeduped(SeriesId id, std::size_t offset, std::span<double> out,
                           std::size_t* last_counted_page) const;

  /// Total pages occupied by all values.
  std::size_t TotalPages() const;

  /// Accounts a full sequential scan: every occupied page read once.
  void RecordFullScan() const;

  PageAccessMetrics metrics() const { return metrics_.Snapshot(); }
  void ResetMetrics() { metrics_.Reset(); }

  /// Total number of stored values across all series.
  std::size_t total_values() const { return values_.size(); }

 private:
  /// Serializes AddSeries/AppendToSeries against each other (see the class
  /// comment for why the vectors below carry no GUARDED_BY).
  Mutex write_mu_;
  std::vector<double> values_;        ///< densely packed value heap
  std::vector<std::size_t> offsets_;  ///< start of each series in values_
  std::vector<std::size_t> lengths_;  ///< length of each series
  /// mutable + atomic: counting is observability, not logical mutation, and
  /// must work from the const concurrent read path.
  mutable AtomicPageAccessMetrics metrics_;
};

}  // namespace tsss::storage

#endif  // TSSS_STORAGE_SEQUENCE_STORE_H_

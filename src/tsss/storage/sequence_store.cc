#include "tsss/storage/sequence_store.h"

#include <algorithm>
#include <string>

#include "tsss/obs/metrics.h"
#include "tsss/storage/query_counters.h"

namespace tsss::storage {

namespace {
/// Ticks the per-query data-read counter of the calling thread (if any) and
/// the process-wide registry counter.
void CountQueryDataReads(std::uint64_t pages) {
  if (QueryCounters* qc = CurrentQueryCounters()) {
    qc->data_page_reads += pages;
  }
  static obs::Counter* const data_page_reads =
      obs::MetricsRegistry::Global().GetCounter(
          "tsss_data_page_reads_total",
          "Raw-data pages read for candidate verification");
  data_page_reads->Inc(pages);
}
}  // namespace

SeriesId SequenceStore::AddSeries(std::span<const double> values) {
  MutexLock lock(write_mu_);
  const SeriesId id = static_cast<SeriesId>(offsets_.size());
  offsets_.push_back(values_.size());
  lengths_.push_back(values.size());
  values_.insert(values_.end(), values.begin(), values.end());
  return id;
}

Status SequenceStore::AppendToSeries(SeriesId id, std::span<const double> values) {
  MutexLock lock(write_mu_);
  if (id >= offsets_.size()) {
    return Status::NotFound("series " + std::to_string(id) + " does not exist");
  }
  if (id + 1 != offsets_.size()) {
    return Status::FailedPrecondition(
        "dense packing: only the most recently added series can grow");
  }
  lengths_[id] += values.size();
  values_.insert(values_.end(), values.begin(), values.end());
  return Status::OK();
}

Result<std::size_t> SequenceStore::SeriesLength(SeriesId id) const {
  if (id >= offsets_.size()) {
    return Status::NotFound("series " + std::to_string(id) + " does not exist");
  }
  return lengths_[id];
}

Result<std::span<const double>> SequenceStore::SeriesValues(SeriesId id) const {
  if (id >= offsets_.size()) {
    return Status::NotFound("series " + std::to_string(id) + " does not exist");
  }
  return std::span<const double>(values_.data() + offsets_[id], lengths_[id]);
}

Result<std::span<const double>> SequenceStore::ViewWindow(
    SeriesId id, std::size_t offset, std::size_t n,
    std::size_t* last_counted_page) const {
  if (id >= offsets_.size()) {
    return Status::NotFound("series " + std::to_string(id) + " does not exist");
  }
  if (offset + n > lengths_[id]) {
    return Status::OutOfRange("window [" + std::to_string(offset) + ", " +
                              std::to_string(offset + n) +
                              ") exceeds series length " +
                              std::to_string(lengths_[id]));
  }
  const std::size_t global = offsets_[id] + offset;
  if (n > 0) {
    const std::size_t first_page = global / kValuesPerPage;
    const std::size_t last_page = (global + n - 1) / kValuesPerPage;
    std::size_t first_new = first_page;
    if (last_counted_page != nullptr && *last_counted_page != kNoPageCounted &&
        *last_counted_page >= first_page) {
      first_new = *last_counted_page + 1;
    }
    if (first_new <= last_page) {
      const std::size_t fresh = last_page - first_new + 1;
      metrics_.logical_reads += fresh;
      metrics_.physical_reads += fresh;
      CountQueryDataReads(fresh);
      if (last_counted_page != nullptr) *last_counted_page = last_page;
    }
  }
  return std::span<const double>(values_.data() + global, n);
}

Status SequenceStore::ReadWindowDeduped(SeriesId id, std::size_t offset,
                                        std::span<double> out,
                                        std::size_t* last_counted_page) const {
  Result<std::span<const double>> view =
      ViewWindow(id, offset, out.size(), last_counted_page);
  if (!view.ok()) return view.status();
  std::copy(view->begin(), view->end(), out.begin());
  return Status::OK();
}

Status SequenceStore::ReadWindow(SeriesId id, std::size_t offset,
                                 std::span<double> out) const {
  return ReadWindowDeduped(id, offset, out, nullptr);
}

std::size_t SequenceStore::TotalPages() const {
  return (values_.size() + kValuesPerPage - 1) / kValuesPerPage;
}

void SequenceStore::RecordFullScan() const {
  const std::size_t pages = TotalPages();
  metrics_.logical_reads += pages;
  metrics_.physical_reads += pages;
  CountQueryDataReads(pages);
}

}  // namespace tsss::storage

#ifndef TSSS_OBS_FLIGHT_RECORDER_H_
#define TSSS_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "tsss/common/mutex.h"
#include "tsss/common/thread_annotations.h"
#include "tsss/obs/explain.h"

namespace tsss::obs {

/// One captured slow (or failed) query: everything needed to reconstruct what
/// it did after the fact — outcome, latency, the full explain report (prune
/// waterfall, funnel, I/O, cost) and the span trace as Chrome trace JSON.
/// Assembled by the layer that saw the query finish
/// (service::QueryService::FinishTask); obs/ only stores and renders it.
struct FlightRecord {
  std::uint64_t id = 0;        ///< capture sequence number (1-based)
  std::string kind;            ///< "range" | "knn" | "long_range"
  std::string outcome;         ///< "served" | "timed_out" | "cancelled" | ...
  std::uint64_t latency_us = 0;
  /// Present when the explain report could be assembled from the query's
  /// stats. The dump renders the record's cost from `explain` either way, so
  /// a record without one reports a zero cost.
  bool has_explain = false;
  ExplainReport explain;
  /// QueryTrace::ToChromeJson() output; empty when no trace was installed.
  std::string trace_json;
};

/// Fixed-capacity ring of FlightRecords with rate-limited admission: the
/// always-on black box for slow queries. Arm() sets a latency threshold;
/// ShouldCapture() is the per-query-completion test (one relaxed atomic load
/// and a compare when disarmed — cheap enough to leave in the completion
/// path permanently); MaybeCapture() admits a record unless the per-second
/// budget is spent, evicting the oldest record once the ring is full.
///
/// Thread safety: Arm/Disarm/ShouldCapture are lock-free; MaybeCapture,
/// Snapshot and DumpJson take a mutex — capture is the rare slow path, and a
/// scrape never blocks query admission, only other captures.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;
  static constexpr std::uint64_t kDefaultMaxPerSec = 8;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Starts capturing: queries slower than `threshold_us` (or ending in
  /// DeadlineExceeded/Cancelled — any not-OK outcome) become candidates.
  /// At most `max_per_sec` captures are admitted per wall-clock second so a
  /// pathological workload cannot turn the recorder into the bottleneck.
  void Arm(std::uint64_t threshold_us,
           std::uint64_t max_per_sec = kDefaultMaxPerSec);
  void Disarm();

  bool armed() const {
    // A stale read delays or skips one capture; it cannot corrupt the ring.
    // relaxed-ok: advisory arming flag
    return armed_.load(std::memory_order_relaxed);
  }
  std::uint64_t threshold_us() const {
    // relaxed-ok: read together with armed(); same advisory contract
    return threshold_us_.load(std::memory_order_relaxed);
  }

  /// The completion-path test: should this query be captured? True iff armed
  /// and (latency exceeded the threshold, or the outcome was not OK).
  bool ShouldCapture(std::uint64_t latency_us, bool ok) const {
    if (!armed()) return false;
    return !ok || latency_us >= threshold_us();
  }

  /// Admits `record` unless the per-second budget is spent (then it is
  /// dropped and counted). Fills record.id. Returns true when stored.
  bool MaybeCapture(FlightRecord record) TSSS_EXCLUDES(mu_);

  /// Records currently in the ring, oldest first.
  std::vector<FlightRecord> Snapshot() const TSSS_EXCLUDES(mu_);

  std::size_t capacity() const { return capacity_; }
  /// Total records admitted / dropped by the rate limiter since construction.
  std::uint64_t captured() const TSSS_EXCLUDES(mu_);
  std::uint64_t dropped() const TSSS_EXCLUDES(mu_);

  /// Empties the ring (captured/dropped totals are kept).
  void Clear() TSSS_EXCLUDES(mu_);

  /// Schema-v1 JSON dump ({"schema_version":1,"report":"flight",...}) with
  /// every record's cost, explain report and trace embedded. Validated by
  /// tools/bench_schema_check --schema flight; served as /flightz by
  /// DebugServer.
  std::string DumpJson() const TSSS_EXCLUDES(mu_);

  /// The process-wide instance the service layer feeds and /flightz dumps.
  static FlightRecorder& Global();

 private:
  const std::size_t capacity_;

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> threshold_us_{0};

  mutable Mutex mu_;
  std::deque<FlightRecord> ring_ TSSS_GUARDED_BY(mu_);
  std::uint64_t next_id_ TSSS_GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ TSSS_GUARDED_BY(mu_) = 0;
  /// Token bucket: admissions during the current wall-clock second.
  std::uint64_t max_per_sec_ TSSS_GUARDED_BY(mu_) = kDefaultMaxPerSec;
  std::uint64_t window_count_ TSSS_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point window_start_ TSSS_GUARDED_BY(mu_){};
};

}  // namespace tsss::obs

#endif  // TSSS_OBS_FLIGHT_RECORDER_H_

#ifndef TSSS_OBS_COST_H_
#define TSSS_OBS_COST_H_

#include <cstdint>
#include <string>

namespace tsss::obs {

/// What one query *spent*, attributed to the query itself rather than to
/// process-wide totals: thread CPU time, buffer-pool traffic split into hits
/// and misses, bytes touched, and exact verifications performed. Filled by
/// the core::SearchEngine query methods on the telemetry-enabled path (a
/// caller passed QueryStats or installed a trace) and carried on
/// core::QueryStats; service::QueryService rolls completed costs into
/// per-kind histograms and shard::ShardedEngine into per-shard ones.
///
/// Pure data, like ExplainReport: obs/ stays the bottom layer.
struct QueryCost {
  /// CPU time the query burned on its own thread (CLOCK_THREAD_CPUTIME_ID),
  /// immune to wall-clock noise from scheduling or sibling queries.
  std::uint64_t cpu_us = 0;
  /// Index-page reads served from the buffer pool vs. gone to the store.
  std::uint64_t pages_hit = 0;
  std::uint64_t pages_miss = 0;
  /// Raw-data pages read for candidate verification.
  std::uint64_t data_pages = 0;
  /// Bytes moved through the page interfaces: every counted page read
  /// (index + data) times the fixed page size.
  std::uint64_t bytes_touched = 0;
  /// Windows that reached exact scale-shift verification.
  std::uint64_t candidates_verified = 0;

  QueryCost& operator+=(const QueryCost& other) {
    cpu_us += other.cpu_us;
    pages_hit += other.pages_hit;
    pages_miss += other.pages_miss;
    data_pages += other.data_pages;
    bytes_touched += other.bytes_touched;
    candidates_verified += other.candidates_verified;
    return *this;
  }
};

/// This thread's consumed CPU time in microseconds
/// (clock_gettime(CLOCK_THREAD_CPUTIME_ID)); 0 if the clock is unavailable.
/// Two readings bracket a query; their difference is QueryCost::cpu_us.
std::uint64_t ThreadCpuNowUs();

/// Rolls one completed query's cost into the global registry under a label:
///   RecordQueryCost("kind", "range", cost)  -> tsss_query_cost_*{kind="range"}
///   RecordQueryCost("shard", "3", cost)     -> tsss_query_cost_*{shard="3"}
/// CPU time lands in a tsss_query_cost_cpu histogram (p50/p90/p99 over
/// queries); pages/bytes/candidates land in monotonic counters. Each thread
/// resolves a label pair's metrics through the registry once and keeps the
/// pointers (up to 16 pairs per thread), so a steady-state call takes no
/// lock and does no map lookup.
void RecordQueryCost(const std::string& label_key,
                     const std::string& label_value, const QueryCost& cost);

}  // namespace tsss::obs

#endif  // TSSS_OBS_COST_H_

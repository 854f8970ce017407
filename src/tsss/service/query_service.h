#ifndef TSSS_SERVICE_QUERY_SERVICE_H_
#define TSSS_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "tsss/common/mutex.h"
#include "tsss/common/status.h"
#include "tsss/common/thread_annotations.h"
#include "tsss/core/engine.h"
#include "tsss/core/similarity.h"
#include "tsss/geom/vec.h"
#include "tsss/obs/histogram.h"
#include "tsss/obs/rolling.h"
#include "tsss/obs/trace.h"

namespace tsss::service {

/// Which SearchEngine entry point a request drives.
enum class QueryKind {
  kRange,      ///< SearchEngine::RangeQuery (|query| == window)
  kKnn,        ///< SearchEngine::Knn
  kLongRange,  ///< SearchEngine::LongRangeQuery (|query| > window)
};

/// One query submitted to the service.
struct QueryRequest {
  QueryKind kind = QueryKind::kRange;
  geom::Vec query;  ///< raw values; length checked by the engine
  double eps = 0.0;   ///< range / long-range tolerance
  std::size_t k = 0;  ///< k-NN result count
  core::TransformCost cost;
  /// Per-request deadline measured from Submit(). Zero means "use the
  /// service default"; a negative value disables the deadline entirely.
  std::chrono::milliseconds timeout{0};
  /// Scatter-gather hook: when non-null the request runs against this
  /// engine instead of the service's default one. shard::ShardedEngine uses
  /// this to fan one logical query out across its shard engines through a
  /// single worker pool. The engine must outlive the request's future and,
  /// like the default engine, must have cold_cache_per_query off.
  const core::SearchEngine* target = nullptr;
  /// Optional shared k-NN termination bound, forwarded to SearchEngine::Knn
  /// so concurrent sub-queries over disjoint partitions tighten each other
  /// mid-flight. Ignored for non-kNN kinds. Must outlive the future.
  core::KnnSharedBound* knn_bound = nullptr;
  /// Test hook forwarded to ExecControl::set_check_budget: trips the query's
  /// deadline after this many polls regardless of the wall clock, so "slow
  /// query" outcomes (and their flight-recorder captures) are deterministic
  /// in tests. 0 (the default) disables it.
  std::uint64_t check_budget = 0;
};

/// The completed answer delivered through the future returned by Submit().
struct QueryResponse {
  Status status;  ///< OK, DeadlineExceeded, Cancelled, or an engine error
  std::vector<core::Match> matches;
  core::QueryStats stats;  ///< per-query page/candidate/pruning counters
  /// Wall time from Submit() to completion (queueing + execution).
  std::chrono::microseconds latency{0};
};

struct ServiceConfig {
  std::size_t num_workers = 4;
  /// Admission-queue bound: Submit() rejects with ResourceExhausted once
  /// this many requests are waiting (backpressure instead of unbounded
  /// memory growth).
  std::size_t queue_capacity = 128;
  /// Deadline applied to requests that leave timeout == 0. Zero disables
  /// the default deadline.
  std::chrono::milliseconds default_timeout{0};
  /// Rolling window every completion is recorded into (latency + outcome),
  /// behind the windowed quantiles in Stats() and the /healthz SLO state.
  /// nullptr (the default) makes the service own a default-configured one;
  /// inject to share a window across services or to drive a test clock.
  /// Must outlive the service.
  obs::RollingWindow* rolling_window = nullptr;
};

/// Point-in-time view of the service counters, returned by Stats().
struct ServiceMetrics {
  std::uint64_t submitted = 0;  ///< accepted into the queue
  std::uint64_t served = 0;     ///< completed with an OK status
  std::uint64_t rejected = 0;   ///< refused at admission (queue full)
  std::uint64_t timed_out = 0;  ///< deadline expired (queued or mid-query)
  std::uint64_t cancelled = 0;  ///< unwound by RequestCancel
  std::uint64_t failed = 0;     ///< completed with any other error
  std::size_t queue_depth = 0;  ///< requests waiting right now
  /// Cumulative since service start — they never forget a burst. For live
  /// health use `last_minute` below (the /statusz "windowed" block).
  double p50_latency_ms = 0.0;  ///< median Submit()-to-completion latency
  double p99_latency_ms = 0.0;
  /// Buffer-pool hit rate over the engine's lifetime (0 when no reads yet).
  double pool_hit_rate = 0.0;
  /// Trailing-minute view from the service's rolling window.
  obs::RollingWindow::Snapshot last_minute;
};

/// Serves Chu-Wong scale-shift queries concurrently over one shared
/// SearchEngine.
///
/// A fixed pool of worker threads drains a bounded admission queue; Submit()
/// returns a std::future that resolves to the QueryResponse. Admission is
/// reject-on-full (ResourceExhausted) rather than blocking, so a saturated
/// service applies backpressure immediately. Each request carries an optional
/// deadline: requests that expire while still queued are failed without
/// touching the engine, and in-flight queries poll the deadline at R-tree
/// node granularity through ExecControl and unwind early.
///
/// The service only drives the engine's const read path, so any number of
/// workers may run concurrently. Create() turns off cold_cache_per_query
/// (a per-query pool Clear() is the single-threaded benchmark I/O model and
/// would evict pages out from under concurrent readers); it does not change
/// query results. Engine mutations must not run while a service is live.
///
/// Observability: each worker records completion latencies into its own
/// obs::LatencyHistogram (no cross-worker cache-line sharing on the hot
/// path); Stats() merges them on demand. Request outcomes and latency are
/// also reported to the process-wide obs::MetricsRegistry under
/// tsss_service_*. Each successful completion rolls its QueryStats into
/// per-kind cost attribution (core::RecordQueryCost), and when
/// obs::FlightRecorder::Global() is armed each request runs under a query
/// trace so slow or failed completions are captured with their trace and an
/// explain report built from the same QueryStats, cost section included.
///
/// Shutdown() (also run by the destructor) stops admission, drains every
/// queued request, and joins the workers; futures obtained before shutdown
/// always complete.
class QueryService {
 public:
  /// `engine` must outlive the service. The engine's cold-cache-per-query
  /// mode is switched off (see class comment).
  static Result<std::unique_ptr<QueryService>> Create(
      core::SearchEngine* engine, const ServiceConfig& config);

  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues one request. Fails with ResourceExhausted when the admission
  /// queue is full and FailedPrecondition after Shutdown().
  Result<std::future<QueryResponse>> Submit(QueryRequest request)
      TSSS_EXCLUDES(mu_);

  /// Enqueues all requests or none: when fewer than requests.size() queue
  /// slots are free the whole batch is rejected with ResourceExhausted.
  Result<std::vector<std::future<QueryResponse>>> SubmitBatch(
      std::vector<QueryRequest> requests) TSSS_EXCLUDES(mu_);

  ServiceMetrics Stats() const TSSS_EXCLUDES(mu_);

  /// The rolling window completions are recorded into: the injected one
  /// (ServiceConfig::rolling_window) or the service-owned default. Feed it
  /// to obs::EvaluateSlo for /healthz.
  obs::RollingWindow& rolling() const { return *rolling_; }

  /// Stops admission, drains the queue, and joins the workers. Idempotent.
  void Shutdown() TSSS_EXCLUDES(mu_);

  const ServiceConfig& config() const { return config_; }

 private:
  struct Task {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    std::chrono::steady_clock::time_point submitted_at;
    /// Absolute deadline; time_point::max() when none.
    std::chrono::steady_clock::time_point deadline;
  };

  QueryService(core::SearchEngine* engine, const ServiceConfig& config);

  Task MakeTask(QueryRequest request) const;
  void WorkerLoop(std::size_t worker_index) TSSS_EXCLUDES(mu_);
  void Execute(Task task, std::size_t worker_index);
  Result<std::vector<core::Match>> RunQuery(const QueryRequest& request,
                                            core::QueryStats* stats) const;
  /// Records latency/outcome/cost metrics, feeds the flight recorder when it
  /// wants this completion, and resolves the promise. `trace` is the query's
  /// trace when one was installed (recorder armed), nullptr otherwise; it
  /// must already be fully closed (Execute ends the traced scope first).
  void FinishTask(Task* task, QueryResponse response, std::size_t worker_index,
                  const obs::QueryTrace* trace);

  const core::SearchEngine* engine_;
  const ServiceConfig config_;

  mutable Mutex mu_;
  CondVar cv_{&mu_};
  std::deque<Task> queue_ TSSS_GUARDED_BY(mu_);
  bool stopping_ TSSS_GUARDED_BY(mu_) = false;
  /// Written only by Create() (before any concurrent access exists) and
  /// joined by Shutdown(); workers never touch it, so it needs no guard.
  std::vector<std::thread> workers_;

  struct AtomicCounters {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> timed_out{0};
    std::atomic<std::uint64_t> cancelled{0};
    std::atomic<std::uint64_t> failed{0};
  };
  AtomicCounters counters_;
  /// One histogram per worker, sized by Create() before the threads start
  /// and merged by Stats(); indexing is wait-free and contention-free.
  std::vector<std::unique_ptr<obs::LatencyHistogram>> worker_latency_;
  /// Set when ServiceConfig::rolling_window is null; rolling_ points at
  /// this or at the injected window.
  std::unique_ptr<obs::RollingWindow> owned_rolling_;
  obs::RollingWindow* rolling_ = nullptr;
};

}  // namespace tsss::service

#endif  // TSSS_SERVICE_QUERY_SERVICE_H_

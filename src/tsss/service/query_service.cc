#include "tsss/service/query_service.h"

#include <optional>
#include <string>
#include <utility>

#include "tsss/common/exec_control.h"
#include "tsss/obs/cost.h"
#include "tsss/obs/event_log.h"
#include "tsss/obs/explain.h"
#include "tsss/obs/flight_recorder.h"
#include "tsss/obs/metrics.h"

namespace tsss::service {

namespace {

constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// Stable label value for cost attribution and flight records.
const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRange:
      return "range";
    case QueryKind::kKnn:
      return "knn";
    case QueryKind::kLongRange:
      return "long_range";
  }
  return "unknown";
}

/// Process-wide service metrics in the registry, shared by every
/// QueryService instance. Resolved once.
struct ServiceRegistryMetrics {
  obs::Counter* submitted;
  obs::Counter* served;
  obs::Counter* rejected;
  obs::Counter* timed_out;
  obs::Counter* cancelled;
  obs::Counter* failed;
  obs::Gauge* queue_depth;
  obs::LatencyHistogram* latency;
};

const ServiceRegistryMetrics& RegistryMetrics() {
  static const ServiceRegistryMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    return ServiceRegistryMetrics{
        reg.GetCounter("tsss_service_submitted_total",
                       "Requests accepted into the admission queue"),
        reg.GetCounter("tsss_service_served_total",
                       "Requests completed with an OK status"),
        reg.GetCounter("tsss_service_rejected_total",
                       "Requests refused at admission (queue full)"),
        reg.GetCounter("tsss_service_timed_out_total",
                       "Requests whose deadline expired"),
        reg.GetCounter("tsss_service_cancelled_total", "Requests cancelled"),
        reg.GetCounter("tsss_service_failed_total",
                       "Requests completed with any other error"),
        reg.GetGauge("tsss_service_queue_depth",
                     "Requests waiting in the admission queue"),
        reg.GetHistogram("tsss_service_latency",
                         "Submit()-to-completion latency"),
    };
  }();
  return metrics;
}

}  // namespace

// --- QueryService -----------------------------------------------------------

QueryService::QueryService(core::SearchEngine* engine,
                           const ServiceConfig& config)
    : engine_(engine), config_(config) {
  if (config_.rolling_window != nullptr) {
    rolling_ = config_.rolling_window;
  } else {
    owned_rolling_ = std::make_unique<obs::RollingWindow>();
    rolling_ = owned_rolling_.get();
  }
}

Result<std::unique_ptr<QueryService>> QueryService::Create(
    core::SearchEngine* engine, const ServiceConfig& config) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  if (config.num_workers == 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  if (config.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be positive");
  }
  // The per-query pool Clear() of the cold-cache I/O model would evict pages
  // out from under concurrent readers; results are unaffected by caching.
  engine->set_cold_cache_per_query(false);

  auto service =
      std::unique_ptr<QueryService>(new QueryService(engine, config));
  service->worker_latency_.reserve(config.num_workers);
  for (std::size_t i = 0; i < config.num_workers; ++i) {
    service->worker_latency_.push_back(
        std::make_unique<obs::LatencyHistogram>());
  }
  service->workers_.reserve(config.num_workers);
  for (std::size_t i = 0; i < config.num_workers; ++i) {
    service->workers_.emplace_back(
        [raw = service.get(), i] { raw->WorkerLoop(i); });
  }
  return service;
}

QueryService::~QueryService() { Shutdown(); }

QueryService::Task QueryService::MakeTask(QueryRequest request) const {
  Task task;
  task.submitted_at = std::chrono::steady_clock::now();
  std::chrono::milliseconds timeout = request.timeout;
  if (timeout == std::chrono::milliseconds::zero()) {
    timeout = config_.default_timeout;
  }
  task.deadline = timeout > std::chrono::milliseconds::zero()
                      ? task.submitted_at + timeout
                      : kNoDeadline;
  task.request = std::move(request);
  return task;
}

Result<std::future<QueryResponse>> QueryService::Submit(QueryRequest request) {
  Task task = MakeTask(std::move(request));
  std::future<QueryResponse> future = task.promise.get_future();
  {
    MutexLock lock(mu_);
    if (stopping_) {
      return Status::FailedPrecondition("service is shut down");
    }
    if (queue_.size() >= config_.queue_capacity) {
      // relaxed-ok: service stats counter; Stats() takes advisory reads
      counters_.rejected.fetch_add(1, std::memory_order_relaxed);
      RegistryMetrics().rejected->Inc();
      obs::EventLog::Global().Publish(
          "service", "rejected",
          {{"queue_depth", queue_.size()},
           {"kind", static_cast<std::uint64_t>(task.request.kind)}});
      return Status::ResourceExhausted(
          "admission queue full (capacity " +
          std::to_string(config_.queue_capacity) + ")");
    }
    obs::EventLog::Global().Publish(
        "service", "admitted",
        {{"queue_depth", queue_.size() + 1},
         {"kind", static_cast<std::uint64_t>(task.request.kind)}});
    queue_.push_back(std::move(task));
    RegistryMetrics().queue_depth->Set(
        static_cast<std::int64_t>(queue_.size()));
  }
  counters_.submitted.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: stat
  RegistryMetrics().submitted->Inc();
  cv_.NotifyOne();
  return future;
}

Result<std::vector<std::future<QueryResponse>>> QueryService::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(requests.size());
  {
    MutexLock lock(mu_);
    if (stopping_) {
      return Status::FailedPrecondition("service is shut down");
    }
    if (queue_.size() + requests.size() > config_.queue_capacity) {
      counters_.rejected.fetch_add(requests.size(),
                                   // relaxed-ok: service stats counter
                                   std::memory_order_relaxed);
      RegistryMetrics().rejected->Inc(requests.size());
      obs::EventLog::Global().Publish(
          "service", "batch_rejected",
          {{"batch", requests.size()}, {"queue_depth", queue_.size()}});
      return Status::ResourceExhausted(
          "batch of " + std::to_string(requests.size()) +
          " does not fit in the admission queue (" +
          std::to_string(config_.queue_capacity - queue_.size()) +
          " slots free)");
    }
    for (QueryRequest& request : requests) {
      Task task = MakeTask(std::move(request));
      futures.push_back(task.promise.get_future());
      queue_.push_back(std::move(task));
    }
    RegistryMetrics().queue_depth->Set(
        static_cast<std::int64_t>(queue_.size()));
    obs::EventLog::Global().Publish(
        "service", "batch_admitted",
        {{"batch", futures.size()}, {"queue_depth", queue_.size()}});
  }
  counters_.submitted.fetch_add(futures.size(), std::memory_order_relaxed);  // relaxed-ok: stat
  RegistryMetrics().submitted->Inc(futures.size());
  cv_.NotifyAll();
  return futures;
}

void QueryService::WorkerLoop(std::size_t worker_index) {
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      // Manual spurious-wakeup loop (not a predicate overload) so the
      // guarded reads of stopping_/queue_ stay visible to the thread-safety
      // analysis; CondVar::Wait re-holds mu_ on return.
      while (!stopping_ && queue_.empty()) cv_.Wait();
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      RegistryMetrics().queue_depth->Set(
          static_cast<std::int64_t>(queue_.size()));
    }
    Execute(std::move(task), worker_index);
  }
}

Result<std::vector<core::Match>> QueryService::RunQuery(
    const QueryRequest& request, core::QueryStats* stats) const {
  const core::SearchEngine* engine =
      request.target != nullptr ? request.target : engine_;
  switch (request.kind) {
    case QueryKind::kRange:
      return engine->RangeQuery(request.query, request.eps, request.cost,
                                stats);
    case QueryKind::kKnn:
      return engine->Knn(request.query, request.k, request.cost, stats,
                         request.knn_bound);
    case QueryKind::kLongRange:
      return engine->LongRangeQuery(request.query, request.eps, request.cost,
                                    stats);
  }
  return Status::InvalidArgument("unknown query kind");
}

void QueryService::Execute(Task task, std::size_t worker_index) {
  QueryResponse response;
  // When the flight recorder is armed, run the query under a local trace so
  // a capture carries full span data. The traced scope (and the worker's
  // ExecControl) ends before FinishTask: every span is closed and an expired
  // deadline can no longer abort the explain assembly of the capture itself.
  obs::QueryTrace trace;
  bool traced = false;
  if (std::chrono::steady_clock::now() >= task.deadline) {
    // Expired while still queued: fail fast without touching the engine.
    obs::EventLog::Global().Publish("service", "deadline_expired_in_queue",
                                    {{"worker", worker_index}});
    response.status = Status::DeadlineExceeded("deadline expired in queue");
  } else {
    ExecControl control;
    if (task.deadline != kNoDeadline) control.set_deadline(task.deadline);
    if (task.request.check_budget != 0) {
      control.set_check_budget(task.request.check_budget);
    }
    ScopedExecControl scoped(&control);
    std::optional<obs::ScopedQueryTrace> scoped_trace;
    if (obs::FlightRecorder::Global().armed()) {
      scoped_trace.emplace(&trace);
      traced = true;
    }
    Result<std::vector<core::Match>> result =
        RunQuery(task.request, &response.stats);
    response.status = result.status();
    if (result.ok()) response.matches = std::move(result).value();
  }
  FinishTask(&task, std::move(response), worker_index,
             traced ? &trace : nullptr);
}

void QueryService::FinishTask(Task* task, QueryResponse response,
                              std::size_t worker_index,
                              const obs::QueryTrace* trace) {
  response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - task->submitted_at);
  worker_latency_[worker_index]->Record(response.latency);
  RegistryMetrics().latency->Record(response.latency);
  rolling_->Record(
      static_cast<std::uint64_t>(response.latency.count()),
      response.status.ok(),
      response.status.code() == StatusCode::kDeadlineExceeded);
  const char* outcome = "failed";
  // Outcome counters are advisory service stats; Stats() reads them with the
  // same relaxed ordering and promises no cross-counter consistency.
  switch (response.status.code()) {
    case StatusCode::kOk:
      counters_.served.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: stat
      RegistryMetrics().served->Inc();
      outcome = "served";
      break;
    case StatusCode::kDeadlineExceeded:
      counters_.timed_out.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: stat
      RegistryMetrics().timed_out->Inc();
      outcome = "timed_out";
      break;
    case StatusCode::kCancelled:
      counters_.cancelled.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: stat
      RegistryMetrics().cancelled->Inc();
      outcome = "cancelled";
      break;
    default:
      counters_.failed.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: stat
      RegistryMetrics().failed->Inc();
      break;
  }
  obs::EventLog::Global().Publish(
      "service", outcome,
      {{"worker", worker_index},
       {"latency_us", static_cast<std::uint64_t>(response.latency.count())},
       {"matches", response.matches.size()}});

  const char* kind_name = KindName(task->request.kind);
  const obs::QueryCost cost = core::DeriveQueryCost(response.stats);
  if (response.status.ok()) {
    // Cost attribution: the engine filled stats for every query that ran to
    // completion; fold its cost into the per-kind labelled metrics. Error
    // paths unwind before the engine fills stats, so recording them would
    // only pollute the histograms with zeros.
    obs::RecordQueryCost("kind", kind_name, cost);
  }

  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const std::uint64_t latency_us =
      static_cast<std::uint64_t>(response.latency.count());
  if (recorder.ShouldCapture(latency_us, response.status.ok())) {
    obs::FlightRecord record;
    record.kind = kind_name;
    record.outcome = outcome;
    record.latency_us = latency_us;
    record.cost = cost;
    // Derive the explain report from this task's own stats — never from the
    // engine-wide last-query slot, which a concurrent worker may have
    // already overwritten.
    const core::SearchEngine* engine =
        task->request.target != nullptr ? task->request.target : engine_;
    Result<obs::ExplainReport> explain = engine->ExplainFromStats(
        kind_name, task->request.eps, task->request.k, latency_us,
        response.stats);
    if (explain.ok()) {
      record.explain = std::move(*explain);
      if (trace != nullptr) obs::FillExplainPhases(*trace, &record.explain);
      record.has_explain = true;
    }
    if (trace != nullptr) record.trace_json = trace->ToChromeJson();
    recorder.MaybeCapture(std::move(record));
  }

  task->promise.set_value(std::move(response));
}

ServiceMetrics QueryService::Stats() const {
  ServiceMetrics out;
  // relaxed-ok (block): advisory snapshot of independent stats counters
  out.submitted = counters_.submitted.load(std::memory_order_relaxed);  // relaxed-ok: stat
  out.served = counters_.served.load(std::memory_order_relaxed);        // relaxed-ok: stat
  out.rejected = counters_.rejected.load(std::memory_order_relaxed);    // relaxed-ok: stat
  out.timed_out = counters_.timed_out.load(std::memory_order_relaxed);  // relaxed-ok: stat
  out.cancelled = counters_.cancelled.load(std::memory_order_relaxed);  // relaxed-ok: stat
  out.failed = counters_.failed.load(std::memory_order_relaxed);        // relaxed-ok: stat
  {
    MutexLock lock(mu_);
    out.queue_depth = queue_.size();
  }
  obs::LatencyHistogram merged;
  for (const auto& hist : worker_latency_) merged.Merge(*hist);
  out.p50_latency_ms = merged.PercentileMs(0.50);
  out.p99_latency_ms = merged.PercentileMs(0.99);
  out.last_minute = rolling_->Window(60'000'000);
  const storage::BufferPoolMetrics pool = engine_->pool().metrics();
  const std::uint64_t reads = pool.hits + pool.misses;
  out.pool_hit_rate =
      reads == 0 ? 0.0
                 : static_cast<double>(pool.hits) / static_cast<double>(reads);
  return out;
}

void QueryService::Shutdown() {
  {
    MutexLock lock(mu_);
    if (!stopping_) {
      obs::EventLog::Global().Publish("service", "shutdown",
                                      {{"queue_depth", queue_.size()}});
    }
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

}  // namespace tsss::service

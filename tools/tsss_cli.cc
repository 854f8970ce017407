// tsss command-line tool: build, persist, inspect and query scale-shift
// indexes without writing C++.
//
//   tsss_cli generate --out market.csv [--companies 200] [--values 650]
//   tsss_cli build    --data market.csv --index dir [--window 128]
//                     [--reducer dft|paa|haar] [--dim 6] [--subtrail 0]
//                     [--shards N] [--scheme hash|round-robin]
//   tsss_cli info     --index dir
//   tsss_cli query    --index dir (--pattern NAME | --series I --offset K)
//                     [--eps 0.5] [--positive] [--min-scale A] [--suppress N]
//                     [--trace trace.json]
//   tsss_cli knn      --index dir (--pattern NAME | --series I --offset K)
//                     [--k 10] [--trace trace.json]
//   tsss_cli explain  --index dir (--pattern NAME | --series I --offset K)
//                     [--eps 0.5] [--knn --k 10] [--format text|json]
//                     [--out report] [--log-file events.ndjson]
//   tsss_cli inspect  --index dir [--queries 25] [--eps 0.5]
//                     [--format text|json] [--out report]
//   tsss_cli stats    --index dir [--queries 25] [--eps 0.5] [--workers 2]
//                     [--format prometheus|json|both]
//   tsss_cli stats    --no-workload [--format prometheus|json|both]
//   tsss_cli serve    --index dir [--port 8080] [--bind 127.0.0.1]
//                     [--slow-ms M] [--workers N] [--sample-queries Q]
//                     [--eps 0.5] [--duration-s S]
//                     [--slo-p99-ms 500] [--slo-availability 0.999]
//   tsss_cli profile  --index dir [--seconds 5] [--hz 97] [--queries 0]
//                     [--eps 0.5] [--out prof.folded] [--json-out prof.json]
//   tsss_cli serve-bench --index dir [--workers 4] [--clients 8]
//                     [--queries 200] [--eps 0.5] [--queue 64] [--timeout-ms 0]
//                     [--shards N] [--json-out report.json]
//                     [--log-file events.ndjson]
//
// Sharded indexes: `build --shards N` partitions the corpus across N shard
// engines under <index>/shard-<i> with the shard map at
// <index>/shard_map.tsss. Every command that opens an index detects the
// shard map automatically and routes through the scatter-gather
// ShardedEngine (explain renders the merged per-shard prune waterfall;
// inspect prints the shard map plus per-shard rows; info adds the per-shard
// rows). Answers are bit-identical to a single engine over the same data.
// On a sharded index --workers sizes the fan-out pool (default: one worker
// per shard); on a single engine it sizes the QueryService.
//
// Patterns: ramp, v, peak, sine, step, hns, saturation, cup.
//
// --trace writes a chrome://tracing / Perfetto-loadable span tree of the
// query (per-phase timings plus per-level node visits and EP/BS prune
// counts). `explain` runs one query with full telemetry and renders the plan
// report (prune waterfall, candidate funnel, I/O split, scan baseline).
// `inspect` renders the tree's structural profile and a buffer-pool access
// heatmap from a sample workload. `stats` drives a sample workload through a
// QueryService so the registry (including the service latency histogram) has
// data, then dumps it (--no-workload skips the workload and exports whatever
// the registry already holds). --log-file writes the structured event-log
// ring as NDJSON.
//
// `serve` opens the index behind a QueryService and starts the embedded
// debug HTTP server (obs::DebugServer) with the live diagnostics endpoints
// /metricsz /varz /statusz /eventz /flightz /pprofz /healthz. --slow-ms M
// arms the slow-query flight recorder at threshold M (0 captures every
// completion, rate-limited); --sample-queries Q drives a deterministic
// workload first so every endpoint has data; --duration-s S exits after S
// seconds (for CI; default runs until killed). /pprofz?seconds=S&hz=H runs
// the in-process sampling profiler against live traffic and returns folded
// stacks + phase attribution as JSON; /healthz evaluates the rolling-window
// SLO (--slo-p99-ms, --slo-availability) and maps it to 200/503 for
// load-balancer checks.
//
// `profile` opens the index, drives a deterministic range-query workload
// for --seconds while the sampling profiler runs, and prints the per-phase
// CPU attribution plus folded stacks (--out writes the flamegraph input,
// --json-out the schema-v1 report). --queries bounds the workload (0 =
// loop until the time is up).
//
// `serve-bench` counts only queries that completed OK; it exits 1 when any
// query failed, except for deadline expiries under --timeout-ms.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "tsss/core/engine.h"
#include "tsss/core/postprocess.h"
#include "tsss/obs/debug_server.h"
#include "tsss/obs/event_log.h"
#include "tsss/obs/explain.h"
#include "tsss/obs/flight_recorder.h"
#include "tsss/obs/metrics.h"
#include "tsss/obs/profiler.h"
#include "tsss/obs/rolling.h"
#include "tsss/obs/trace.h"
#include "tsss/seq/csv.h"
#include "tsss/seq/patterns.h"
#include "tsss/seq/stock_generator.h"
#include "tsss/service/query_service.h"
#include "tsss/shard/sharded_engine.h"

namespace {

using tsss::Status;
using tsss::core::Match;
using tsss::storage::SeriesId;

/// Minimal --flag value parser: flags must be "--name value".
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
        std::exit(2);
      }
      const std::string name = argv[i] + 2;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[name] = std::string(argv[i + 1]);
        ++i;
      } else {
        values_[name] = "1";  // boolean-style flag
      }
    }
  }

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  std::size_t GetSize(const std::string& name, std::size_t fallback) const {
    auto it = values_.find(name);
    return it == values_.end()
               ? fallback
               : static_cast<std::size_t>(std::atoll(it->second.c_str()));
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tsss_cli <generate|build|info|query|knn|explain|"
               "inspect|stats|serve|profile|serve-bench> --flag value...\n"
               "see the header of tools/tsss_cli.cc for details\n");
  return 2;
}

int UnknownFormat(const char* command, const std::string& format) {
  std::fprintf(stderr, "%s: unknown --format '%s'\n", command, format.c_str());
  return 2;
}

/// Dumps the global event-log ring to --log-file, if given.
int MaybeDumpEventLog(const Flags& flags) {
  const std::string path = flags.Get("log-file", "");
  if (path.empty()) return 0;
  if (Status s = tsss::obs::EventLog::Global().DumpNdjson(path); !s.ok()) {
    return Fail(s);
  }
  std::printf("event log written to %s\n", path.c_str());
  return 0;
}

/// Writes `contents` to `path`, failing loudly.
int WriteFileOrFail(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
    return 1;
  }
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  return 0;
}

/// Writes a rendered `what` report to --out (and says so), else to stdout.
int EmitReport(const Flags& flags, const char* what,
               const std::string& rendered) {
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fputs(rendered.c_str(), stdout);
    return 0;
  }
  if (int rc = WriteFileOrFail(out, rendered); rc != 0) return rc;
  std::printf("%s report written to %s\n", what, out.c_str());
  return 0;
}

/// True when `index_dir` is a sharded index root (its shard map exists).
bool IsShardedIndex(const std::string& index_dir) {
  std::FILE* f = std::fopen(
      (index_dir + "/" + tsss::shard::kShardMapFileName).c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

const char* SchemeName(tsss::shard::ShardScheme scheme) {
  return scheme == tsss::shard::ShardScheme::kHash ? "hash" : "round-robin";
}

/// An opened index: one SearchEngine, or a ShardedEngine when the directory
/// holds a shard map. Every command that reads an index goes through this,
/// so each command is written once against both kinds. The serving members
/// (Serve, Metrics, rolling, workers, PoolHitRates) need `service` on a
/// single engine.
struct OpenIndex {
  std::string dir;
  std::unique_ptr<tsss::core::SearchEngine> single;
  /// Single engine only, and only for commands that serve traffic: the
  /// service behind Serve() and Metrics(). Declared after `single` so it is
  /// joined before the engine goes away.
  std::unique_ptr<tsss::service::QueryService> service;
  std::unique_ptr<tsss::shard::ShardedEngine> sharded;
  /// --workers for the sharded fan-out pool (0 = one per shard).
  std::size_t fanout_workers = 0;

  const tsss::core::EngineConfig& config() const {
    return sharded ? sharded->engine_config() : single->config();
  }
  std::size_t window() const { return config().window; }
  std::size_t num_series() const {
    return sharded ? static_cast<std::size_t>(sharded->total_series())
                   : single->dataset().size();
  }
  std::uint32_t num_shards() const {
    return sharded ? sharded->num_shards() : 1;
  }
  /// The engines that hold the data: the one engine, or every shard.
  std::vector<const tsss::core::SearchEngine*> Engines() const {
    if (!sharded) return {single.get()};
    std::vector<const tsss::core::SearchEngine*> shards;
    for (std::uint32_t i = 0; i < sharded->num_shards(); ++i) {
      shards.push_back(&sharded->shard(i));
    }
    return shards;
  }
  std::size_t total_values() const {
    std::size_t values = 0;
    for (const tsss::core::SearchEngine* engine : Engines()) {
      values += engine->dataset().total_values();
    }
    return values;
  }

  tsss::Result<std::span<const double>> Values(SeriesId id) const {
    if (sharded) return sharded->SeriesValues(id);
    return single->dataset().Values(id);
  }
  tsss::Result<std::string> Name(SeriesId id) const {
    if (sharded) return sharded->SeriesName(id);
    return single->dataset().Name(id);
  }
  tsss::Result<SeriesId> Find(const std::string& name) const {
    if (sharded) return sharded->FindSeries(name);
    return single->dataset().FindSeries(name);
  }

  tsss::Result<std::vector<Match>> RangeQuery(
      std::span<const double> query, double eps,
      const tsss::core::TransformCost& cost = {},
      tsss::core::QueryStats* stats = nullptr) const {
    if (sharded) return sharded->RangeQuery(query, eps, cost, stats);
    return single->RangeQuery(query, eps, cost, stats);
  }
  tsss::Result<std::vector<Match>> Knn(
      std::span<const double> query, std::size_t k,
      tsss::core::QueryStats* stats = nullptr) const {
    if (sharded) return sharded->Knn(query, k, {}, stats);
    return single->Knn(query, k, {}, stats);
  }
  tsss::Result<tsss::obs::ExplainReport> ExplainLast() const {
    if (sharded) return sharded->ExplainLast();
    return single->ExplainLast();
  }

  /// One range query the way a server runs it: through the fan-out on a
  /// sharded index, through the QueryService on a single engine (retrying
  /// while its queue is full).
  Status Serve(std::span<const double> query, double eps) const {
    if (sharded) return sharded->RangeQuery(query, eps).status();
    tsss::service::QueryRequest request;
    request.kind = tsss::service::QueryKind::kRange;
    request.query.assign(query.begin(), query.end());
    request.eps = eps;
    for (;;) {
      auto future = service->Submit(request);
      if (future.ok()) return future->get().status;
      if (future.status().code() != tsss::StatusCode::kResourceExhausted) {
        return future.status();
      }
      std::this_thread::yield();
    }
  }

  /// Counters of the serving pool: the QueryService, or the fan-out pool
  /// (whose counts are per-shard legs, not logical queries).
  tsss::service::ServiceMetrics Metrics() const {
    return sharded ? sharded->FanoutStats() : service->Stats();
  }
  tsss::obs::RollingWindow& rolling() const {
    return sharded ? sharded->rolling() : service->rolling();
  }
  std::size_t workers() const {
    if (!sharded) return service->config().num_workers;
    return fanout_workers != 0 ? fanout_workers : sharded->num_shards();
  }
  /// Buffer-pool hit rate per shard; one entry for a single engine.
  std::vector<double> PoolHitRates() const {
    if (!sharded) return {Metrics().pool_hit_rate};
    std::vector<double> rates;
    for (const tsss::shard::ShardInfo& info : sharded->ShardInfos()) {
      rates.push_back(info.pool_hit_rate);
    }
    return rates;
  }
};

/// Opens --index for `command`, as a ShardedEngine when it holds a shard
/// map (whose fan-out pool --workers sizes). A single engine goes behind a
/// QueryService built from `service_config` when one is given, for the
/// commands that serve traffic. Returns 0 or the exit code to return.
int OpenIndexOrFail(
    const Flags& flags, const char* command, OpenIndex* index,
    const tsss::service::ServiceConfig* service_config = nullptr) {
  index->dir = flags.Get("index", "");
  if (index->dir.empty()) {
    std::fprintf(stderr, "%s: --index dir is required\n", command);
    return 2;
  }
  if (IsShardedIndex(index->dir)) {
    index->fanout_workers = flags.GetSize("workers", 0);
    auto sharded =
        tsss::shard::ShardedEngine::Open(index->dir, index->fanout_workers);
    if (!sharded.ok()) return Fail(sharded.status());
    index->sharded = std::move(sharded).value();
    return 0;
  }
  auto single = tsss::core::SearchEngine::Open(index->dir);
  if (!single.ok()) return Fail(single.status());
  index->single = std::move(single).value();
  if (service_config == nullptr) return 0;
  auto service = tsss::service::QueryService::Create(index->single.get(),
                                                     *service_config);
  if (!service.ok()) return Fail(service.status());
  index->service = std::move(service).value();
  return 0;
}

/// Window `i` of the deterministic sample workload: series i mod
/// num_series at offset (i * 37) mod (len - n + 1), so every query is a
/// window of the indexed data itself. Empty when that series is shorter
/// than a window.
tsss::Result<std::span<const double>> SampleWindow(const OpenIndex& index,
                                                   std::size_t i) {
  const std::size_t num_series = index.num_series();
  if (num_series == 0) return Status::FailedPrecondition("empty index");
  auto values = index.Values(static_cast<SeriesId>(i % num_series));
  if (!values.ok()) return values.status();
  const std::size_t n = index.window();
  if (values->size() < n) return std::span<const double>();
  return values->subspan((i * 37) % (values->size() - n + 1), n);
}

/// Calls `fn` on the first `count` sample windows (skipping series shorter
/// than a window) and stops at the first error. An empty index is an error
/// even when `count` is 0.
template <typename Fn>
Status ForEachSample(const OpenIndex& index, std::size_t count, const Fn& fn) {
  if (index.num_series() == 0) return Status::FailedPrecondition("empty index");
  for (std::size_t i = 0; i < count; ++i) {
    auto window = SampleWindow(index, i);
    if (!window.ok()) return window.status();
    if (window->empty()) continue;
    if (Status s = fn(*window); !s.ok()) return s;
  }
  return Status::OK();
}

/// Runs `count` sample windows as direct range queries.
Status RunSampleRange(const OpenIndex& index, std::size_t count, double eps) {
  return ForEachSample(index, count, [&](std::span<const double> window) {
    return index.RangeQuery(window, eps).status();
  });
}

/// Runs `count` sample windows the way a server does (OpenIndex::Serve).
Status ServeSample(const OpenIndex& index, std::size_t count, double eps) {
  return ForEachSample(index, count, [&](std::span<const double> window) {
    return index.Serve(window, eps);
  });
}

tsss::Result<tsss::geom::Vec> PatternByName(const std::string& name,
                                            std::size_t n) {
  using namespace tsss::seq;
  if (name == "ramp") return RampPattern(n);
  if (name == "v") return VPattern(n);
  if (name == "peak") return PeakPattern(n);
  if (name == "sine") return SinePattern(n);
  if (name == "step") return StepPattern(n);
  if (name == "hns") return HeadAndShouldersPattern(n);
  if (name == "saturation") return SaturationPattern(n);
  if (name == "cup") return CupPattern(n);
  return Status::InvalidArgument("unknown pattern '" + name + "'");
}

/// Resolves the query vector from --pattern or --series/--offset flags.
tsss::Result<tsss::geom::Vec> ResolveQuery(const Flags& flags,
                                           const OpenIndex& index) {
  const std::size_t n = index.window();
  if (flags.Has("pattern")) {
    return PatternByName(flags.Get("pattern", ""), n);
  }
  if (flags.Has("series")) {
    // --series accepts an id or a name ("7" or "HK7").
    const std::string series_arg = flags.Get("series", "0");
    SeriesId series;
    if (!series_arg.empty() &&
        series_arg.find_first_not_of("0123456789") == std::string::npos) {
      series = static_cast<SeriesId>(std::atoll(series_arg.c_str()));
    } else {
      auto found = index.Find(series_arg);
      if (!found.ok()) return found.status();
      series = *found;
    }
    const std::size_t offset = flags.GetSize("offset", 0);
    auto values = index.Values(series);
    if (!values.ok()) return values.status();
    if (offset + n > values->size()) {
      return Status::OutOfRange("window beyond series end");
    }
    return tsss::geom::Vec(values->begin() + static_cast<std::ptrdiff_t>(offset),
                           values->begin() +
                               static_cast<std::ptrdiff_t>(offset + n));
  }
  return Status::InvalidArgument("need --pattern NAME or --series I [--offset K]");
}

/// The range-query transform cost from --positive / --min-scale.
tsss::core::TransformCost CostFromFlags(const Flags& flags) {
  tsss::core::TransformCost cost;
  if (flags.Has("positive")) cost.min_scale = 0.0;
  if (flags.Has("min-scale")) cost.min_scale = flags.GetDouble("min-scale", 0.0);
  return cost;
}

/// " across N shards" for a sharded index's summary line, else "".
std::string AcrossShards(const OpenIndex& index) {
  return index.sharded
             ? " across " + std::to_string(index.num_shards()) + " shards"
             : "";
}

void PrintMatches(const OpenIndex& index, const std::vector<Match>& matches,
                  std::size_t limit) {
  std::printf("%-16s %-8s %-12s %-12s %-10s\n", "series", "offset", "scale(a)",
              "shift(b)", "distance");
  const std::size_t shown = std::min(matches.size(), limit);
  for (std::size_t i = 0; i < shown; ++i) {
    const Match& m = matches[i];
    auto name = index.Name(m.series);
    std::printf("%-16s %-8u %-12.4f %-12.4f %-10.4f\n",
                name.ok() ? name->c_str() : "?", m.offset, m.transform.scale,
                m.transform.offset, m.distance);
  }
  if (shown < matches.size()) {
    std::printf("... (%zu more)\n", matches.size() - shown);
  }
}

/// --trace for query and knn: records the calling thread's spans while
/// alive; Write() saves them for chrome://tracing. A sharded query runs on
/// fan-out workers, so there the flag is noted and ignored.
class CliTrace {
 public:
  CliTrace(const Flags& flags, const OpenIndex& index) {
    if (!flags.Has("trace")) return;
    if (index.sharded) {
      std::fprintf(stderr,
                   "note: --trace is per-thread and sharded queries run on "
                   "fan-out workers; ignoring --trace\n");
      return;
    }
    path_ = flags.Get("trace", "");
    scope_.emplace(&trace_);
  }
  CliTrace(const CliTrace&) = delete;
  CliTrace& operator=(const CliTrace&) = delete;

  int Write() {
    if (path_.empty()) return 0;
    scope_.reset();
    if (int rc = WriteFileOrFail(path_, trace_.ToChromeJson()); rc != 0) {
      return rc;
    }
    std::printf("trace written to %s (load in chrome://tracing)\n",
                path_.c_str());
    return 0;
  }

 private:
  std::string path_;
  tsss::obs::QueryTrace trace_;
  std::optional<tsss::obs::ScopedQueryTrace> scope_;
};

/// One "  shard-i: ..." row per shard, as build and info print them.
void PrintShardRows(const tsss::shard::ShardedEngine& engine) {
  for (const tsss::shard::ShardInfo& info : engine.ShardInfos()) {
    std::printf("  shard-%u: %llu series, %llu windows, tree height %zu\n",
                info.shard, static_cast<unsigned long long>(info.series),
                static_cast<unsigned long long>(info.indexed_windows),
                info.tree_height);
  }
}

int CmdGenerate(const Flags& flags) {
  tsss::seq::StockMarketConfig config;
  config.num_companies = flags.GetSize("companies", 200);
  config.values_per_company = flags.GetSize("values", 650);
  config.seed = flags.GetSize("seed", 19990601);
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out file.csv is required\n");
    return 2;
  }
  const auto market = tsss::seq::GenerateStockMarket(config);
  if (Status s = tsss::seq::SaveCsvFile(out, market); !s.ok()) return Fail(s);
  std::printf("wrote %zu series x %zu values to %s\n", config.num_companies,
              config.values_per_company, out.c_str());
  return 0;
}

int CmdBuild(const Flags& flags) {
  const std::string data = flags.Get("data", "");
  const std::string index_dir = flags.Get("index", "");
  if (data.empty() || index_dir.empty()) {
    std::fprintf(stderr, "build: --data file.csv and --index dir are required\n");
    return 2;
  }
  auto series = tsss::seq::LoadCsvFile(data);
  if (!series.ok()) return Fail(series.status());

  tsss::core::EngineConfig config;
  config.window = flags.GetSize("window", 128);
  config.reduced_dim = flags.GetSize("dim", 6);
  config.subtrail_len = flags.GetSize("subtrail", 0);
  config.storage_dir = index_dir;
  const std::string reducer = flags.Get("reducer", "dft");
  if (reducer == "dft") {
    config.reducer = tsss::reduce::ReducerKind::kDft;
  } else if (reducer == "paa") {
    config.reducer = tsss::reduce::ReducerKind::kPaa;
  } else if (reducer == "haar") {
    config.reducer = tsss::reduce::ReducerKind::kHaar;
  } else {
    std::fprintf(stderr, "build: unknown reducer '%s'\n", reducer.c_str());
    return 2;
  }

  const std::size_t shards = flags.GetSize("shards", 1);
  if (shards > 1) {
    tsss::shard::ShardedEngineConfig sharded_config;
    sharded_config.engine = config;
    sharded_config.num_shards = static_cast<std::uint32_t>(shards);
    const std::string scheme = flags.Get("scheme", "hash");
    if (scheme == "hash") {
      sharded_config.scheme = tsss::shard::ShardScheme::kHash;
    } else if (scheme == "round-robin") {
      sharded_config.scheme = tsss::shard::ShardScheme::kRoundRobin;
    } else {
      std::fprintf(stderr, "build: unknown --scheme '%s'\n", scheme.c_str());
      return 2;
    }
    auto sharded = tsss::shard::ShardedEngine::Create(sharded_config);
    if (!sharded.ok()) return Fail(sharded.status());
    if (Status s = (*sharded)->BulkBuild(*series); !s.ok()) return Fail(s);
    if (Status s = (*sharded)->Checkpoint(); !s.ok()) return Fail(s);
    std::printf("indexed %llu windows from %zu series into %s "
                "(%u shards, %s partitioning)\n",
                static_cast<unsigned long long>(
                    (*sharded)->num_indexed_windows()),
                series->size(), index_dir.c_str(), (*sharded)->num_shards(),
                scheme.c_str());
    PrintShardRows(**sharded);
    return 0;
  }

  auto engine = tsss::core::SearchEngine::Create(config);
  if (!engine.ok()) return Fail(engine.status());
  if (Status s = (*engine)->BulkBuild(*series); !s.ok()) return Fail(s);
  if (Status s = (*engine)->Checkpoint(); !s.ok()) return Fail(s);
  std::printf("indexed %zu windows from %zu series into %s "
              "(tree height %zu, %zu leaf entries)\n",
              (*engine)->num_indexed_windows(), series->size(),
              index_dir.c_str(), (*engine)->tree().height(),
              (*engine)->tree().size());
  return 0;
}

/// Folds one tree's stats into `total`: counts add up, height is the
/// tallest, and fills are node-weighted means (one tree folds to itself).
void FoldTreeStats(const tsss::index::TreeStats& s,
                   tsss::index::TreeStats* total) {
  const auto mean = [](double a, std::size_t na, double b, std::size_t nb) {
    return na == 0 ? b
                   : (a * static_cast<double>(na) + b * static_cast<double>(nb)) /
                         static_cast<double>(na + nb);
  };
  total->avg_leaf_fill = mean(total->avg_leaf_fill, total->leaf_count,
                              s.avg_leaf_fill, s.leaf_count);
  total->avg_internal_fill =
      mean(total->avg_internal_fill, total->node_count - total->leaf_count,
           s.avg_internal_fill, s.node_count - s.leaf_count);
  total->height = std::max(total->height, s.height);
  total->node_count += s.node_count;
  total->node_pages += s.node_pages;
  total->leaf_count += s.leaf_count;
}

/// The index summary; a sharded index reports its shards' totals, then one
/// row per shard.
int CmdInfo(const Flags& flags) {
  OpenIndex index;
  if (int rc = OpenIndexOrFail(flags, "info", &index); rc != 0) return rc;
  const std::vector<const tsss::core::SearchEngine*> engines = index.Engines();
  tsss::index::TreeStats tree;
  std::size_t windows = 0;
  std::size_t entries = 0;
  std::size_t data_pages = 0;
  for (const tsss::core::SearchEngine* engine : engines) {
    auto stats = engine->tree().ComputeStats();
    if (!stats.ok()) return Fail(stats.status());
    FoldTreeStats(*stats, &tree);
    windows += engine->num_indexed_windows();
    entries += engine->tree().size();
    data_pages += engine->dataset().store().TotalPages();
  }
  const tsss::core::EngineConfig& config = engines.front()->config();

  std::printf("index            : %s\n", index.dir.c_str());
  std::printf("series           : %zu (%zu values)\n", index.num_series(),
              index.total_values());
  std::printf("window / stride  : %zu / %zu\n", config.window, config.stride);
  std::printf("reducer          : %s\n",
              engines.front()->reducer().Name().c_str());
  std::printf("sub-trail length : %zu%s\n", config.subtrail_len,
              config.subtrail_len == 0 ? " (point mode)" : "");
  std::printf("indexed windows  : %zu\n", windows);
  std::printf("tree             : height %zu, %zu nodes (%zu pages), "
              "%zu leaf entries\n",
              tree.height, tree.node_count, tree.node_pages, entries);
  std::printf("fill             : leaves %.0f%%, internal %.0f%%\n",
              100.0 * tree.avg_leaf_fill, 100.0 * tree.avg_internal_fill);
  std::printf("data pages       : %zu (4 KiB each)\n", data_pages);
  if (index.sharded) PrintShardRows(*index.sharded);
  return 0;
}

int CmdQuery(const Flags& flags) {
  OpenIndex index;
  if (int rc = OpenIndexOrFail(flags, "query", &index); rc != 0) return rc;
  auto query = ResolveQuery(flags, index);
  if (!query.ok()) return Fail(query.status());
  const double eps = flags.GetDouble("eps", 0.5);

  CliTrace trace(flags, index);
  tsss::core::QueryStats stats;
  auto matches = index.RangeQuery(*query, eps, CostFromFlags(flags), &stats);
  if (!matches.ok()) return Fail(matches.status());
  if (int rc = trace.Write(); rc != 0) return rc;

  std::vector<Match> out = std::move(*matches);
  const std::size_t suppress = flags.GetSize("suppress", 0);
  if (suppress > 0) {
    out = tsss::core::SuppressOverlaps(std::move(out),
                                       static_cast<std::uint32_t>(suppress));
  }
  std::printf("%zu match(es) at eps=%.4g%s (%llu candidates, %llu pages)\n\n",
              out.size(), eps, AcrossShards(index).c_str(),
              static_cast<unsigned long long>(stats.candidates),
              static_cast<unsigned long long>(stats.total_page_reads()));
  PrintMatches(index, out, flags.GetSize("limit", 25));
  tsss::obs::EventLog::Global().Publish(
      "cli", "range_query",
      {{"matches", out.size()}, {"candidates", stats.candidates}});
  return MaybeDumpEventLog(flags);
}

int CmdKnn(const Flags& flags) {
  OpenIndex index;
  if (int rc = OpenIndexOrFail(flags, "knn", &index); rc != 0) return rc;
  auto query = ResolveQuery(flags, index);
  if (!query.ok()) return Fail(query.status());

  CliTrace trace(flags, index);
  const std::size_t k = flags.GetSize("k", 10);
  auto matches = index.Knn(*query, k);
  if (!matches.ok()) return Fail(matches.status());
  if (int rc = trace.Write(); rc != 0) return rc;

  std::printf("%zu nearest window(s)%s:\n\n", matches->size(),
              AcrossShards(index).c_str());
  PrintMatches(index, *matches, k);
  tsss::obs::EventLog::Global().Publish("cli", "knn_query",
                                        {{"k", k}, {"matches", matches->size()}});
  return MaybeDumpEventLog(flags);
}

/// Runs one query with full telemetry and a trace, then renders the plan
/// report (prune waterfall, candidate funnel, I/O split, scan baseline). A
/// sharded index renders the per-shard reports folded into one (the
/// waterfall identity is preserved by summation) and has no phases: those
/// are per-thread trace artifacts and the shard legs run on fan-out workers.
int CmdExplain(const Flags& flags) {
  OpenIndex index;
  if (int rc = OpenIndexOrFail(flags, "explain", &index); rc != 0) return rc;
  auto query = ResolveQuery(flags, index);
  if (!query.ok()) return Fail(query.status());
  const std::string format = flags.Get("format", "text");
  if (format != "text" && format != "json") {
    return UnknownFormat("explain", format);
  }

  tsss::obs::QueryTrace trace;
  {
    // Scope the trace so every span is closed before rendering phases.
    tsss::obs::ScopedQueryTrace scoped_trace(&trace);
    tsss::core::QueryStats stats;
    if (flags.Has("knn")) {
      auto matches = index.Knn(*query, flags.GetSize("k", 10), &stats);
      if (!matches.ok()) return Fail(matches.status());
    } else {
      auto matches = index.RangeQuery(*query, flags.GetDouble("eps", 0.5),
                                      CostFromFlags(flags), &stats);
      if (!matches.ok()) return Fail(matches.status());
    }
  }

  auto report = index.ExplainLast();
  if (!report.ok()) return Fail(report.status());
  tsss::obs::FillExplainPhases(trace, &*report);

  const std::string rendered = format == "json"
                                   ? tsss::obs::RenderExplainJson(*report)
                                   : tsss::obs::RenderExplainText(*report);
  if (int rc = EmitReport(flags, "explain", rendered); rc != 0) return rc;
  tsss::obs::EventLog::Global().Publish(
      "cli", "explain",
      {{"entries_tested", report->entries_tested},
       {"matches", report->matches}});
  return MaybeDumpEventLog(flags);
}

/// Per-tree-level rollup of the buffer-pool access profile.
struct PoolLevelRollup {
  std::size_t pages = 0;
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// Sharded inspect report: the shard map summary plus one row per shard.
/// The sample workload runs first so the per-shard pool hit rates reflect
/// real fan-out traffic.
tsss::Result<std::string> RenderInspectSharded(const OpenIndex& index,
                                               std::size_t num_queries,
                                               double eps, bool json) {
  if (Status s = RunSampleRange(index, num_queries, eps); !s.ok()) return s;
  const tsss::shard::ShardedEngine& engine = *index.sharded;
  const std::vector<tsss::shard::ShardInfo> infos = engine.ShardInfos();
  const tsss::shard::ShardMap& map = engine.shard_map();

  std::string rendered;
  char line[256];
  if (!json) {
    std::snprintf(line, sizeof(line),
                  "INSPECT %s (sharded)\nshard map: %u shards, %s "
                  "partitioning, %llu series, %llu indexed windows\n\n",
                  index.dir.c_str(), map.num_shards, SchemeName(map.scheme),
                  static_cast<unsigned long long>(engine.total_series()),
                  static_cast<unsigned long long>(
                      engine.num_indexed_windows()));
    rendered += line;
    std::snprintf(line, sizeof(line), "%-8s %10s %10s %8s %10s\n", "shard",
                  "series", "windows", "height", "pool-hit%");
    rendered += line;
    for (const tsss::shard::ShardInfo& info : infos) {
      std::snprintf(line, sizeof(line), "%-8u %10llu %10llu %8zu %10.1f\n",
                    info.shard, static_cast<unsigned long long>(info.series),
                    static_cast<unsigned long long>(info.indexed_windows),
                    info.tree_height, 100.0 * info.pool_hit_rate);
      rendered += line;
    }
    return rendered;
  }
  std::snprintf(line, sizeof(line),
                "{\"schema_version\":1,\"report\":\"inspect_sharded\","
                "\"shard_map\":{\"shards\":%u,\"scheme\":\"%s\","
                "\"series\":%llu,\"indexed_windows\":%llu},\"shards\":[",
                map.num_shards, SchemeName(map.scheme),
                static_cast<unsigned long long>(engine.total_series()),
                static_cast<unsigned long long>(engine.num_indexed_windows()));
  rendered += line;
  for (std::size_t i = 0; i < infos.size(); ++i) {
    const tsss::shard::ShardInfo& info = infos[i];
    std::snprintf(line, sizeof(line),
                  "%s{\"shard\":%u,\"series\":%llu,"
                  "\"indexed_windows\":%llu,\"tree_height\":%zu,"
                  "\"pool_hit_ratio\":%.6g}",
                  i > 0 ? "," : "", info.shard,
                  static_cast<unsigned long long>(info.series),
                  static_cast<unsigned long long>(info.indexed_windows),
                  info.tree_height, info.pool_hit_rate);
    rendered += line;
  }
  rendered += "]}\n";
  return rendered;
}

/// Single-engine inspect report: the tree's structural profile and a
/// buffer-pool access heatmap collected while the sample workload runs.
tsss::Result<std::string> RenderInspect(const OpenIndex& index,
                                        std::size_t num_queries, double eps,
                                        bool json) {
  tsss::core::SearchEngine& engine = *index.single;
  auto shape = engine.tree().ComputeStructuralStats();
  if (!shape.ok()) return shape.status();
  tsss::index::RegisterStructuralGauges(*shape);

  // Map each node's page to its level. Any non-index pages sharing the pool
  // land in the "unclassified" bucket below.
  std::map<tsss::storage::PageId, std::size_t> page_level;
  Status visited = engine.tree().VisitNodes(
      [&page_level](const tsss::index::Node& node,
                    tsss::storage::PageId page) {
        page_level[page] = node.level;
      });
  if (!visited.ok()) return visited;

  // Profile a sample workload. Cold-cache mode would clear the pool (and the
  // hit/miss split) between queries, so switch it off for the heatmap.
  engine.set_cold_cache_per_query(false);
  engine.pool().EnableAccessProfile(true);
  if (Status s = RunSampleRange(index, num_queries, eps); !s.ok()) return s;
  engine.pool().EnableAccessProfile(false);
  const std::vector<tsss::storage::PageAccessStats> profile =
      engine.pool().AccessProfile();

  std::vector<PoolLevelRollup> by_level(shape->height);
  PoolLevelRollup unclassified;
  for (const tsss::storage::PageAccessStats& page : profile) {
    auto it = page_level.find(page.page);
    PoolLevelRollup& bucket = (it != page_level.end() &&
                               it->second < by_level.size())
                                  ? by_level[it->second]
                                  : unclassified;
    ++bucket.pages;
    bucket.accesses += page.accesses;
    bucket.misses += page.misses;
    bucket.evictions += page.evictions;
  }
  const std::size_t top_limit =
      profile.size() < std::size_t{10} ? profile.size() : std::size_t{10};

  std::string rendered;
  if (!json) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "INSPECT %s\ntree: height %zu, %zu nodes, %zu entries, "
                  "depth uniform: %s\n\n",
                  index.dir.c_str(), shape->height, shape->node_count,
                  shape->entry_count, shape->depth_uniform ? "yes" : "NO");
    rendered += line;
    std::snprintf(line, sizeof(line),
                  "%-6s %8s %8s %18s %6s %6s %12s %10s\n", "level", "nodes",
                  "entries", "fanout min/avg/max", "occ%", "dead%", "overlap",
                  "margin");
    rendered += line;
    for (std::size_t l = shape->levels.size(); l-- > 0;) {
      const tsss::index::LevelStats& lv = shape->levels[l];
      char fanout[32];
      std::snprintf(fanout, sizeof(fanout), "%zu/%.1f/%zu", lv.min_fanout,
                    lv.avg_fanout, lv.max_fanout);
      std::snprintf(line, sizeof(line),
                    "%-6zu %8zu %8zu %18s %6.1f %6.1f %12.4g %10.4g%s\n",
                    lv.level, lv.nodes, lv.entries, fanout,
                    100.0 * lv.avg_occupancy, 100.0 * lv.dead_space_ratio,
                    lv.overlap_volume, lv.margin_sum,
                    l + 1 == shape->levels.size()
                        ? " (root)"
                        : (l == 0 ? " (leaves)" : ""));
      rendered += line;
    }
    std::snprintf(line, sizeof(line),
                  "\nbuffer pool heatmap (%zu queries, %zu profiled pages, "
                  "capacity %zu):\n%-12s %8s %10s %10s %10s\n",
                  num_queries, profile.size(), engine.pool().capacity(),
                  "level", "pages", "accesses", "misses", "evictions");
    rendered += line;
    for (std::size_t l = by_level.size(); l-- > 0;) {
      const PoolLevelRollup& b = by_level[l];
      if (b.pages == 0) continue;
      std::snprintf(line, sizeof(line),
                    "%-12zu %8zu %10llu %10llu %10llu\n", l, b.pages,
                    static_cast<unsigned long long>(b.accesses),
                    static_cast<unsigned long long>(b.misses),
                    static_cast<unsigned long long>(b.evictions));
      rendered += line;
    }
    if (unclassified.pages > 0) {
      std::snprintf(line, sizeof(line),
                    "%-12s %8zu %10llu %10llu %10llu\n", "unclassified",
                    unclassified.pages,
                    static_cast<unsigned long long>(unclassified.accesses),
                    static_cast<unsigned long long>(unclassified.misses),
                    static_cast<unsigned long long>(unclassified.evictions));
      rendered += line;
    }
    if (top_limit > 0) {
      rendered += "\nhottest pages:\n";
      for (std::size_t i = 0; i < top_limit; ++i) {
        const tsss::storage::PageAccessStats& page = profile[i];
        auto it = page_level.find(page.page);
        char level_tag[24];
        if (it != page_level.end()) {
          std::snprintf(level_tag, sizeof(level_tag), "level %zu",
                        it->second);
        } else {
          std::snprintf(level_tag, sizeof(level_tag), "unclassified");
        }
        std::snprintf(line, sizeof(line),
                      "  page %-8llu %-12s %8llu accesses, %llu misses, "
                      "%llu evictions\n",
                      static_cast<unsigned long long>(page.page), level_tag,
                      static_cast<unsigned long long>(page.accesses),
                      static_cast<unsigned long long>(page.misses),
                      static_cast<unsigned long long>(page.evictions));
        rendered += line;
      }
    }
  } else {
    char buf[192];
    rendered = "{\"schema_version\":1,\"report\":\"inspect\",\"tree\":{";
    std::snprintf(buf, sizeof(buf),
                  "\"height\":%zu,\"nodes\":%zu,\"entries\":%zu,"
                  "\"depth_uniform\":%s,\"levels\":[",
                  shape->height, shape->node_count, shape->entry_count,
                  shape->depth_uniform ? "true" : "false");
    rendered += buf;
    for (std::size_t l = 0; l < shape->levels.size(); ++l) {
      const tsss::index::LevelStats& lv = shape->levels[l];
      if (l > 0) rendered += ',';
      std::snprintf(buf, sizeof(buf),
                    "{\"level\":%zu,\"nodes\":%zu,\"entries\":%zu,"
                    "\"min_fanout\":%zu,\"max_fanout\":%zu,"
                    "\"avg_fanout\":%.6g,\"avg_occupancy\":%.6g,",
                    lv.level, lv.nodes, lv.entries, lv.min_fanout,
                    lv.max_fanout, lv.avg_fanout, lv.avg_occupancy);
      rendered += buf;
      rendered += "\"occupancy_histogram\":[";
      for (std::size_t b = 0; b < 10; ++b) {
        std::snprintf(buf, sizeof(buf), "%s%zu", b > 0 ? "," : "",
                      lv.occupancy_histogram[b]);
        rendered += buf;
      }
      std::snprintf(buf, sizeof(buf),
                    "],\"overlap_volume\":%.6g,\"dead_space_ratio\":%.6g,"
                    "\"margin_sum\":%.6g}",
                    lv.overlap_volume, lv.dead_space_ratio, lv.margin_sum);
      rendered += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "]},\"pool\":{\"capacity\":%zu,\"profiled_pages\":%zu,"
                  "\"levels\":[",
                  engine.pool().capacity(), profile.size());
    rendered += buf;
    bool first = true;
    for (std::size_t l = 0; l < by_level.size(); ++l) {
      const PoolLevelRollup& b = by_level[l];
      if (b.pages == 0) continue;
      std::snprintf(buf, sizeof(buf),
                    "%s{\"level\":%zu,\"pages\":%zu,\"accesses\":%llu,"
                    "\"misses\":%llu,\"evictions\":%llu}",
                    first ? "" : ",", l, b.pages,
                    static_cast<unsigned long long>(b.accesses),
                    static_cast<unsigned long long>(b.misses),
                    static_cast<unsigned long long>(b.evictions));
      rendered += buf;
      first = false;
    }
    std::snprintf(buf, sizeof(buf),
                  "],\"unclassified\":{\"pages\":%zu,\"accesses\":%llu,"
                  "\"misses\":%llu,\"evictions\":%llu},\"top_pages\":[",
                  unclassified.pages,
                  static_cast<unsigned long long>(unclassified.accesses),
                  static_cast<unsigned long long>(unclassified.misses),
                  static_cast<unsigned long long>(unclassified.evictions));
    rendered += buf;
    for (std::size_t i = 0; i < top_limit; ++i) {
      const tsss::storage::PageAccessStats& page = profile[i];
      auto it = page_level.find(page.page);
      // level -1 marks a page outside the node map (unclassified).
      const long long level =
          it != page_level.end() ? static_cast<long long>(it->second) : -1;
      std::snprintf(buf, sizeof(buf),
                    "%s{\"page\":%llu,\"level\":%lld,\"accesses\":%llu,"
                    "\"misses\":%llu,\"evictions\":%llu}",
                    i > 0 ? "," : "",
                    static_cast<unsigned long long>(page.page), level,
                    static_cast<unsigned long long>(page.accesses),
                    static_cast<unsigned long long>(page.misses),
                    static_cast<unsigned long long>(page.evictions));
      rendered += buf;
    }
    rendered += "]}}\n";
  }
  return rendered;

}

int CmdInspect(const Flags& flags) {
  OpenIndex index;
  if (int rc = OpenIndexOrFail(flags, "inspect", &index); rc != 0) return rc;
  const std::string format = flags.Get("format", "text");
  if (format != "text" && format != "json") {
    return UnknownFormat("inspect", format);
  }
  const std::size_t num_queries = flags.GetSize("queries", 25);
  const double eps = flags.GetDouble("eps", 0.5);
  const bool json = format == "json";
  tsss::Result<std::string> rendered = std::string();
  if (index.sharded) {
    rendered = RenderInspectSharded(index, num_queries, eps, json);
  } else {
    rendered = RenderInspect(index, num_queries, eps, json);
  }
  if (!rendered.ok()) return Fail(rendered.status());
  if (int rc = EmitReport(flags, "inspect", *rendered); rc != 0) return rc;
  return MaybeDumpEventLog(flags);
}

/// Drives a small sample workload through the serving path (a QueryService,
/// or a sharded index's fan-out pool) so the process-wide registry has live
/// counters (including the service latency histogram and its p50/p90/p99
/// quantiles), then dumps it in Prometheus text and/or JSON.
int CmdStats(const Flags& flags) {
  const std::string format = flags.Get("format", "both");
  if (format != "prometheus" && format != "json" && format != "both") {
    return UnknownFormat("stats", format);
  }
  // --no-workload exports whatever the process-wide registry already holds,
  // without opening an index or running queries — e.g. after other commands
  // in the same process, or to check the export formats against an empty
  // registry.
  OpenIndex index;
  if (!flags.Has("no-workload")) {
    tsss::service::ServiceConfig service_config;
    service_config.num_workers = flags.GetSize("workers", 2);
    if (int rc = OpenIndexOrFail(flags, "stats", &index, &service_config);
        rc != 0) {
      return rc;
    }
    // Submitted closed-loop, so the queue never fills.
    if (Status s = ServeSample(index, flags.GetSize("queries", 25),
                               flags.GetDouble("eps", 0.5));
        !s.ok()) {
      return Fail(s);
    }
    if (index.service) index.service->Shutdown();  // drain before the snapshot
  }

  const auto samples = tsss::obs::MetricsRegistry::Global().Snapshot();
  if (format == "prometheus" || format == "both") {
    std::fputs(tsss::obs::ExportPrometheus(samples).c_str(), stdout);
  }
  if (format == "json" || format == "both") {
    std::fputs(tsss::obs::ExportJson(samples).c_str(), stdout);
  }
  return MaybeDumpEventLog(flags);
}

/// Renders the /statusz body: the one-page operator view of a live serve
/// process — build info, uptime, index/engine configuration, service
/// counters, per-shard pool hit ratios and the flight recorder's state.
std::string RenderStatusz(const OpenIndex& index,
                          std::chrono::steady_clock::time_point started) {
  const tsss::core::EngineConfig& config = index.config();
  const tsss::service::ServiceMetrics m = index.Metrics();
  const std::vector<double> shard_hit_rates = index.PoolHitRates();
  char buf[512];
  std::string out = "tsss_cli serve\n\n";
  std::snprintf(buf, sizeof(buf), "build            : %s (%s)\n", __VERSION__,
#ifdef NDEBUG
                "release"
#else
                "debug"
#endif
  );
  out += buf;
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  std::snprintf(buf, sizeof(buf), "uptime_s         : %.1f\n", uptime);
  out += buf;
  out += "index            : " + index.dir + "\n";
  out += "mode             : " +
         std::string(index.sharded ? "sharded" : "single") + "\n";
  std::snprintf(buf, sizeof(buf),
                "window / stride  : %zu / %zu\n"
                "sub-trail length : %zu\n"
                "workers          : %zu\n",
                config.window, config.stride, config.subtrail_len,
                index.workers());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "queue depth      : %zu\n"
                "submitted        : %llu\n"
                "served           : %llu\n"
                "rejected         : %llu\n"
                "timed out        : %llu\n"
                "cancelled        : %llu\n"
                "failed           : %llu\n",
                m.queue_depth, static_cast<unsigned long long>(m.submitted),
                static_cast<unsigned long long>(m.served),
                static_cast<unsigned long long>(m.rejected),
                static_cast<unsigned long long>(m.timed_out),
                static_cast<unsigned long long>(m.cancelled),
                static_cast<unsigned long long>(m.failed));
  out += buf;
  // The headline quantiles are the trailing minute (what the server is
  // doing NOW); the cumulative-since-start numbers are labelled as such so
  // the two are never conflated — a since-start p99 can hide a live burst
  // for hours.
  const tsss::obs::RollingWindow::Snapshot& w = m.last_minute;
  std::snprintf(buf, sizeof(buf),
                "window (60s)     : count %llu, errors %llu, deadline %llu\n"
                "p50 latency (ms) : %.3f (60s window)\n"
                "p99 latency (ms) : %.3f (60s window)\n"
                "since_start p50  : %.3f ms\n"
                "since_start p99  : %.3f ms\n",
                static_cast<unsigned long long>(w.count),
                static_cast<unsigned long long>(w.errors),
                static_cast<unsigned long long>(w.deadline_exceeded), w.p50_ms,
                w.p99_ms, m.p50_latency_ms, m.p99_latency_ms);
  out += buf;
  for (std::size_t i = 0; i < shard_hit_rates.size(); ++i) {
    if (shard_hit_rates.size() == 1) {
      std::snprintf(buf, sizeof(buf), "pool hit rate    : %.4f\n",
                    shard_hit_rates[i]);
    } else {
      std::snprintf(buf, sizeof(buf), "pool hit rate s%-2zu: %.4f\n", i,
                    shard_hit_rates[i]);
    }
    out += buf;
  }
  const tsss::obs::FlightRecorder& recorder =
      tsss::obs::FlightRecorder::Global();
  std::snprintf(buf, sizeof(buf),
                "flight recorder  : %s, threshold_us %llu, captured %llu, "
                "dropped %llu\n",
                recorder.armed() ? "armed" : "disarmed",
                static_cast<unsigned long long>(recorder.threshold_us()),
                static_cast<unsigned long long>(recorder.captured()),
                static_cast<unsigned long long>(recorder.dropped()));
  out += buf;
  return out;
}

/// Extracts `key` from a "k=v&k2=v2" query string as a number; `fallback`
/// when absent or non-numeric. The input is untrusted request text.
std::uint64_t QueryParam(const std::string& query, const std::string& key,
                         std::uint64_t fallback) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      const std::string value = query.substr(eq + 1, amp - eq - 1);
      if (!value.empty() &&
          value.find_first_not_of("0123456789") == std::string::npos) {
        return static_cast<std::uint64_t>(std::atoll(value.c_str()));
      }
      return fallback;
    }
    pos = amp + 1;
  }
  return fallback;
}

/// SLO targets for /healthz from the serve flags.
tsss::obs::SloConfig SloFromFlags(const Flags& flags) {
  tsss::obs::SloConfig slo;
  slo.target_p99_ms = flags.GetDouble("slo-p99-ms", 500.0);
  slo.target_availability = flags.GetDouble("slo-availability", 0.999);
  return slo;
}

/// Registers the profiler and SLO endpoints on a serve instance. `rolling`
/// is the service's (or fan-out pool's) rolling window; both it and the
/// engine behind it must outlive the server.
///
/// /pprofz runs inline on the accept thread: the request *is* the profiling
/// session (start, sleep seconds, stop, render), which is the right model
/// for a one-at-a-time debug surface — a second concurrent request gets a
/// clean 500 from the Start() FailedPrecondition, never a torn profile.
void RegisterServeEndpoints(tsss::obs::DebugServer* server,
                            tsss::obs::RollingWindow* rolling,
                            const tsss::obs::SloConfig& slo) {
  server->RegisterHandler(
      "/pprofz", "application/json",
      tsss::obs::DebugServer::QueryHandler([](const std::string& query) {
        const auto seconds = QueryParam(query, "seconds", 2);
        const auto hz = QueryParam(query, "hz", 97);
        tsss::obs::SamplingProfiler::Options options;
        options.hz = static_cast<int>(std::min<std::uint64_t>(hz, 1000));
        tsss::obs::SamplingProfiler profiler(options);
        if (tsss::Status s = profiler.Start(); !s.ok()) {
          return tsss::obs::HttpResponse{500, s.ToString() + "\n"};
        }
        std::this_thread::sleep_for(
            std::chrono::seconds(std::clamp<std::uint64_t>(seconds, 1, 30)));
        return tsss::obs::HttpResponse{200, profiler.Stop().ToJson()};
      }));
  server->RegisterHandler(
      "/healthz", "application/json",
      tsss::obs::DebugServer::QueryHandler(
          [rolling, slo](const std::string& /*query*/) {
            const tsss::obs::SloState state = tsss::obs::EvaluateSlo(*rolling,
                                                                     slo);
            return tsss::obs::HttpResponse{
                state.healthy ? 200 : 503,
                tsss::obs::RenderHealthzJson(state, slo)};
          }));
}

/// Announces the endpoints and blocks until --duration-s elapses (bounded
/// run, for CI) or forever (operator kills the process).
int ServeUntilDone(const Flags& flags, tsss::obs::DebugServer& server) {
  std::printf("serving diagnostics on http://%s:%d/ "
              "(/metricsz /varz /statusz /eventz /flightz /pprofz /healthz)\n",
              flags.Get("bind", "127.0.0.1").c_str(), server.port());
  std::fflush(stdout);
  const std::size_t duration_s = flags.GetSize("duration-s", 0);
  if (duration_s > 0) {
    std::this_thread::sleep_for(std::chrono::seconds(duration_s));
    server.Shutdown();
    std::printf("serve: --duration-s elapsed, shutting down\n");
    return 0;
  }
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
}

/// Live diagnostics: open the index (sharded or single-engine), optionally
/// arm the flight recorder and pre-drive a sample workload, then serve the
/// debug endpoints until the duration elapses or the process is killed.
int CmdServe(const Flags& flags) {
  const auto started = std::chrono::steady_clock::now();
  tsss::service::ServiceConfig service_config;
  service_config.num_workers = flags.GetSize("workers", 2);
  OpenIndex index;
  if (int rc = OpenIndexOrFail(flags, "serve", &index, &service_config);
      rc != 0) {
    return rc;
  }
  if (flags.Has("slow-ms")) {
    // --slow-ms 0 captures every completion (still rate-limited), which is
    // how CI exercises /flightz deterministically.
    tsss::obs::FlightRecorder::Global().Arm(
        1000 * static_cast<std::uint64_t>(flags.GetSize("slow-ms", 0)));
  }
  tsss::obs::DebugServer::Options options;
  options.port = static_cast<int>(flags.GetSize("port", 8080));
  options.bind_address = flags.Get("bind", "127.0.0.1");
  // The server is created after the index so its destructor (Shutdown)
  // runs first: no handler can observe a dying engine.
  auto server = tsss::obs::DebugServer::Start(options);
  if (!server.ok()) return Fail(server.status());
  (*server)->RegisterHandler("/statusz", "text/plain", [&index, started] {
    return RenderStatusz(index, started);
  });
  RegisterServeEndpoints(server->get(), &index.rolling(), SloFromFlags(flags));

  // Sample workload: windows of the indexed data, served like live traffic
  // so cost attribution and the flight recorder see real completions.
  if (index.num_series() > 0) {
    if (Status s = ServeSample(index, flags.GetSize("sample-queries", 0),
                               flags.GetDouble("eps", 0.5));
        !s.ok()) {
      return Fail(s);
    }
  }
  return ServeUntilDone(flags, **server);
}

/// In-process CPU profile of a query workload: start the sampling profiler,
/// drive deterministic range queries (windows of the indexed data) until
/// --seconds elapses or --queries completes, stop, and report per-phase CPU
/// attribution plus folded stacks. The phase totals sum exactly to the
/// sample count — that identity is checked here and by
/// bench_schema_check --schema profile.
int CmdProfile(const Flags& flags) {
  OpenIndex index;
  if (int rc = OpenIndexOrFail(flags, "profile", &index); rc != 0) return rc;
  const double seconds = flags.GetDouble("seconds", 5.0);
  const std::size_t max_queries = flags.GetSize("queries", 0);
  const double eps = flags.GetDouble("eps", 0.5);

  tsss::obs::SamplingProfiler::Options options;
  options.hz = static_cast<int>(flags.GetSize("hz", 97));
  tsss::obs::SamplingProfiler profiler(options);
  if (Status s = profiler.Start(); !s.ok()) return Fail(s);

  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::size_t queries = 0;
  while (std::chrono::steady_clock::now() < deadline &&
         (max_queries == 0 || queries < max_queries)) {
    auto window = SampleWindow(index, queries++);
    if (!window.ok()) return Fail(window.status());
    if (window->empty()) continue;
    if (auto matches = index.RangeQuery(*window, eps); !matches.ok()) {
      return Fail(matches.status());
    }
  }
  const tsss::obs::Profile profile = profiler.Stop();
  std::printf("profiled %zu queries for %.2fs at %d Hz: %llu samples"
              " (%llu dropped)\n\n",
              queries, profile.seconds, profile.hz,
              static_cast<unsigned long long>(profile.samples),
              static_cast<unsigned long long>(profile.dropped));
  std::printf("%-24s %10s %8s\n", "phase", "samples", "cpu%");
  std::uint64_t phase_total = 0;
  for (const tsss::obs::ProfilePhase& phase : profile.phases) {
    phase_total += phase.samples;
    std::printf("%-24s %10llu %7.1f%%\n", phase.name.c_str(),
                static_cast<unsigned long long>(phase.samples),
                profile.samples == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(phase.samples) /
                          static_cast<double>(profile.samples));
  }
  if (phase_total != profile.samples) {
    std::fprintf(stderr,
                 "profile: phase attribution lost samples (%llu != %llu)\n",
                 static_cast<unsigned long long>(phase_total),
                 static_cast<unsigned long long>(profile.samples));
    return 1;
  }
  std::printf("\n# top stacks (folded):\n");
  const std::size_t top = std::min<std::size_t>(profile.folded.size(), 5);
  for (std::size_t i = 0; i < top; ++i) {
    std::printf("%s %llu\n", profile.folded[i].stack.c_str(),
                static_cast<unsigned long long>(profile.folded[i].samples));
  }

  const std::string out_path = flags.Get("out", "");
  if (!out_path.empty()) {
    if (int rc = WriteFileOrFail(out_path, profile.ToFolded()); rc != 0) {
      return rc;
    }
    std::printf("\nfolded stacks written to %s\n", out_path.c_str());
  }
  const std::string json_path = flags.Get("json-out", "");
  if (!json_path.empty()) {
    if (int rc = WriteFileOrFail(json_path, profile.ToJson()); rc != 0) {
      return rc;
    }
    std::printf("profile JSON written to %s\n", json_path.c_str());
  }
  return 0;
}

/// q-quantile of the pooled client latencies, in ms (destructive).
double PercentileMs(std::vector<double>* latencies_ms, double q) {
  if (latencies_ms->empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(latencies_ms->size() - 1));
  std::nth_element(latencies_ms->begin(),
                   latencies_ms->begin() + static_cast<std::ptrdiff_t>(rank),
                   latencies_ms->end());
  return (*latencies_ms)[rank];
}

/// One serve-bench run, single-engine or sharded.
struct ServeBenchStats {
  std::size_t shards = 1;
  std::size_t workers = 0;
  std::size_t clients = 0;
  std::size_t queries = 0;  ///< logical queries completed OK
  double elapsed = 0.0;
  double client_p50_ms = 0.0;
  double client_p99_ms = 0.0;
  tsss::service::ServiceMetrics metrics;  ///< service / fan-out pool view
  std::vector<double> shard_hit_ratio;    ///< per shard; single engine: one
  std::size_t series = 0;
  std::size_t values_per_series = 0;
};

void PrintServeBench(const ServeBenchStats& r) {
  std::printf("served %zu queries in %.2fs (%.1f queries/sec, %zu workers, "
              "%zu clients, %zu shard%s)\n\n",
              r.queries, r.elapsed,
              static_cast<double>(r.queries) / r.elapsed, r.workers,
              r.clients, r.shards, r.shards == 1 ? "" : "s");
  std::printf("%-22s %12s\n", "metric", "value");
  std::printf("%-22s %12llu\n", "queries submitted",
              static_cast<unsigned long long>(r.metrics.submitted));
  std::printf("%-22s %12llu\n", "queries served",
              static_cast<unsigned long long>(r.metrics.served));
  std::printf("%-22s %12llu\n", "rejected (queue full)",
              static_cast<unsigned long long>(r.metrics.rejected));
  std::printf("%-22s %12llu\n", "timed out",
              static_cast<unsigned long long>(r.metrics.timed_out));
  std::printf("%-22s %12llu\n", "cancelled",
              static_cast<unsigned long long>(r.metrics.cancelled));
  std::printf("%-22s %12llu\n", "failed",
              static_cast<unsigned long long>(r.metrics.failed));
  std::printf("%-22s %12zu\n", "queue depth", r.metrics.queue_depth);
  std::printf("%-22s %12.3f\n", "client p50 (ms)", r.client_p50_ms);
  std::printf("%-22s %12.3f\n", "client p99 (ms)", r.client_p99_ms);
  std::printf("%-22s %12.3f\n", "p50 latency (ms)", r.metrics.p50_latency_ms);
  std::printf("%-22s %12.3f\n", "p99 latency (ms)", r.metrics.p99_latency_ms);
  for (std::size_t i = 0; i < r.shard_hit_ratio.size(); ++i) {
    char label[48];
    if (r.shards == 1) {
      std::snprintf(label, sizeof(label), "pool hit rate");
    } else {
      std::snprintf(label, sizeof(label), "pool hit rate s%zu", i);
    }
    std::printf("%-22s %12.4f\n", label, r.shard_hit_ratio[i]);
  }
}

/// Writes the run as a schema-v1 BENCH JSON report (bench/bench_common.h) so
/// serve-bench output flows into the same tooling as run_benches.sh reports
/// (bench_schema_check, bench_diff). One row per run; per-shard pool hit
/// rates land as pool_hit_ratio_s<i> columns.
int MaybeWriteServeBenchJson(const Flags& flags, const ServeBenchStats& r,
                             double eps) {
  const std::string path = flags.Get("json-out", "");
  if (path.empty()) return 0;
  char buf[768];
  std::string out = "{\"schema_version\":1,\"name\":\"serve_bench\",";
  std::snprintf(buf, sizeof(buf),
                "\"env\":{\"companies\":%zu,\"values\":%zu,\"queries\":%zu,"
                "\"full\":0},",
                r.series, r.values_per_series, r.queries);
  out += buf;
  std::snprintf(buf, sizeof(buf), "\"meta\":{\"eps\":%.6g,\"shards\":%zu},",
                eps, r.shards);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"rows\":[{\"shards\":%zu,\"workers\":%zu,\"clients\":%zu,"
                "\"queries\":%zu,\"seconds\":%.9g,\"qps\":%.9g,"
                "\"client_p50_ms\":%.9g,\"client_p99_ms\":%.9g,"
                "\"service_p50_ms\":%.9g,\"service_p99_ms\":%.9g,"
                "\"submitted\":%llu,\"served\":%llu,\"rejected\":%llu,"
                "\"timed_out\":%llu,\"failed\":%llu",
                r.shards, r.workers, r.clients, r.queries, r.elapsed,
                static_cast<double>(r.queries) / r.elapsed, r.client_p50_ms,
                r.client_p99_ms, r.metrics.p50_latency_ms,
                r.metrics.p99_latency_ms,
                static_cast<unsigned long long>(r.metrics.submitted),
                static_cast<unsigned long long>(r.metrics.served),
                static_cast<unsigned long long>(r.metrics.rejected),
                static_cast<unsigned long long>(r.metrics.timed_out),
                static_cast<unsigned long long>(r.metrics.failed));
  out += buf;
  for (std::size_t i = 0; i < r.shard_hit_ratio.size(); ++i) {
    std::snprintf(buf, sizeof(buf), ",\"pool_hit_ratio_s%zu\":%.6g", i,
                  r.shard_hit_ratio[i]);
    out += buf;
  }
  out += "}]}\n";
  if (int rc = WriteFileOrFail(path, out); rc != 0) return rc;
  std::printf("json report written to %s\n", path.c_str());
  return 0;
}

/// Drives the index from several client threads through its serving path
/// (a QueryService, or a sharded index's fan-out pool sized by --workers)
/// and prints the resulting ServiceMetrics table. Queries are windows
/// sampled from the indexed data itself, so every query does representative
/// work. Only OK completions count as served queries and latency samples.
int CmdServeBench(const Flags& flags) {
  tsss::service::ServiceConfig service_config;
  service_config.num_workers = flags.GetSize("workers", 4);
  service_config.queue_capacity = flags.GetSize("queue", 64);
  service_config.default_timeout =
      std::chrono::milliseconds(flags.GetSize("timeout-ms", 0));
  OpenIndex index;
  if (int rc = OpenIndexOrFail(flags, "serve-bench", &index, &service_config);
      rc != 0) {
    return rc;
  }
  const std::size_t requested_shards = flags.GetSize("shards", 0);
  if (requested_shards != 0 && requested_shards != index.num_shards()) {
    if (index.sharded) {
      std::fprintf(stderr, "serve-bench: index has %u shards, not %zu\n",
                   index.num_shards(), requested_shards);
    } else {
      std::fprintf(stderr,
                   "serve-bench: '%s' is a single-engine index; build it with "
                   "--shards N first\n",
                   index.dir.c_str());
    }
    return 2;
  }

  const std::size_t num_queries = flags.GetSize("queries", 200);
  const std::size_t clients =
      flags.GetSize("clients", index.sharded ? 8 : 2 * index.workers());
  const double eps = flags.GetDouble("eps", 0.5);
  std::vector<tsss::geom::Vec> workload;
  workload.reserve(num_queries);
  if (Status s = ForEachSample(index, num_queries,
                               [&workload](std::span<const double> window) {
                                 workload.emplace_back(window.begin(),
                                                       window.end());
                                 return Status::OK();
                               });
      !s.ok()) {
    return Fail(s);
  }

  // A deadline expiry is an expected outcome under --timeout-ms; any other
  // failed query fails the run.
  const bool deadlines = flags.GetSize("timeout-ms", 0) > 0;
  std::vector<std::vector<double>> latencies_ms(clients);
  std::vector<std::size_t> failed(clients, 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      // Closed loop: each client walks its slice of the workload.
      for (std::size_t i = c; i < workload.size(); i += clients) {
        const auto begin = std::chrono::steady_clock::now();
        const Status s = index.Serve(workload[i], eps);
        if (s.ok()) {
          latencies_ms[c].push_back(
              1e3 * std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - begin)
                        .count());
        } else if (!deadlines ||
                   s.code() != tsss::StatusCode::kDeadlineExceeded) {
          std::fprintf(stderr, "query failed: %s\n", s.ToString().c_str());
          ++failed[c];
        }
      }
    });
  }
  for (std::thread& t : client_threads) t.join();

  ServeBenchStats r;
  r.elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  r.shards = index.num_shards();
  r.workers = index.workers();
  r.clients = clients;
  r.metrics = index.Metrics();
  std::vector<double> all_ms;
  for (const auto& per_client : latencies_ms) {
    all_ms.insert(all_ms.end(), per_client.begin(), per_client.end());
  }
  r.queries = all_ms.size();
  r.client_p50_ms = PercentileMs(&all_ms, 0.50);
  r.client_p99_ms = PercentileMs(&all_ms, 0.99);
  r.shard_hit_ratio = index.PoolHitRates();
  r.series = index.num_series();
  r.values_per_series = index.total_values() / r.series;

  PrintServeBench(r);
  if (int rc = MaybeWriteServeBenchJson(flags, r, eps); rc != 0) return rc;
  if (int rc = MaybeDumpEventLog(flags); rc != 0) return rc;
  std::size_t failures = 0;
  for (const std::size_t f : failed) failures += f;
  if (failures == 0) return 0;
  std::fprintf(stderr, "serve-bench: %zu queries failed\n", failures);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "build") return CmdBuild(flags);
  if (command == "info") return CmdInfo(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "knn") return CmdKnn(flags);
  if (command == "explain") return CmdExplain(flags);
  if (command == "inspect") return CmdInspect(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "profile") return CmdProfile(flags);
  if (command == "serve-bench") return CmdServeBench(flags);
  return Usage();
}

// perfbench: end-to-end and per-layer benchmark of the tsss engine at the
// default scale (200 companies x 650 values, 104,600 windows of n = 128).
//
//   perfbench --workload monitor|trail|sharded_disk --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// --trace 0 runs the workload's closed loop untraced and reports the
// end-to-end metrics. --trace 1 runs the same seed twice over: an untraced
// half (the reference for trace_overhead_pct and the source of the pool and
// service counters), then a traced half in which every query is re-assembled
// from the public calls of each layer (layers.h), timed per layer, and
// checked against the engine's own answer and QueryStats. Layer probes on
// the workload's own pages and candidates close the traced run. Every answer
// of both runs is also checked against a sequential scan.
//
// The last stdout line is the JSON result; earlier '#' lines are the same
// numbers for people. Exit status: 0 when every answer was correct, 1 when
// any was not, 2 when the benchmark could not run.

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "tsss/common/rng.h"
#include "tsss/core/engine.h"
#include "tsss/core/seq_scan.h"
#include "tsss/seq/dataset.h"
#include "tsss/seq/stock_generator.h"
#include "tsss/seq/window.h"
#include "tsss/shard/sharded_engine.h"

namespace perfbench {
namespace {

namespace core = tsss::core;
namespace geom = tsss::geom;
namespace seq = tsss::seq;
namespace shard = tsss::shard;
namespace storage = tsss::storage;
using tsss::Result;
using tsss::Status;

// The default market of EXPERIMENTS.md: 200 * (650 - 128 + 1) = 104,600
// windows.
constexpr std::size_t kCompanies = 200;
constexpr std::size_t kValues = 650;
constexpr std::size_t kWindow = 128;
constexpr std::size_t kK = 10;
/// Samples of every reported operation kind before a run may stop, so that
/// at least ten lie beyond p99. A run extends past --seconds (up to 3x) to
/// reach it.
constexpr std::size_t kMinSamples = 1000;
/// Set-up is repeated and its median reported: one build is short enough
/// for a noisy neighbour to double it.
constexpr int kSetupReps = 7;
/// Share of monitor queries checked against a scan of the data as it stood.
constexpr double kMonitorCheckProb = 1.0 / 32;
/// Candidates kept from traced range queries for the read/align probes.
constexpr std::size_t kProbeRecords = 16384;

enum Kind : int { kRange = 0, kKnn = 1, kAppend = 2 };
constexpr const char* kKindName[] = {"range", "knn", "append"};

/// One workload. The engine sees only the generated series and queries.
struct Spec {
  const char* name;
  std::size_t subtrail_len;  ///< 0 = point mode
  std::size_t pool_pages;    ///< buffer pool per engine (per shard)
  double eps;                ///< range tolerance
  std::uint32_t shards;      ///< 0 = one in-memory SearchEngine
  std::size_t clients;       ///< closed-loop client threads
  bool appends;              ///< each tick appends one value before its query
  /// Distinct queries per kind and company. Every company contributes
  /// equally, so a seed changes where in each series the queries come from,
  /// not which series dominate the mix. More queries steady p99 across
  /// seeds; the static workloads pay a scan per query for the oracle.
  std::size_t queries_per_company;

  std::size_t pool_size() const { return kCompanies * queries_per_company; }
};

// Why these three: see BENCHMARK.json. monitor fits its pool and is
// index-filter bound; trail is verification bound; sharded_disk is the one
// working set larger than its cache, behind the fan-out service.
constexpr Spec kSpecs[] = {
    {"monitor", 0, 8192, 0.05, 0, 1, true, 5},
    {"trail", 25, 8192, 0.25, 0, 1, false, 2},
    {"sharded_disk", 0, 128, 0.1, 2, 2, false, 2},
};

struct Options {
  const Spec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  std::string work_dir = ".";
};

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- inputs --

struct Inputs {
  std::vector<seq::TimeSeries> market;
  std::vector<geom::Vec> queries[2];  ///< by Kind (range, knn)
};

/// The market is the default one of EXPERIMENTS.md for every seed; the seed
/// draws the queries. They follow the paper's setup (and
/// bench/bench_common.h): a window of the data under a random scale-shift,
/// with 1% multiplicative noise.
Inputs MakeInputs(const Spec& spec, std::uint64_t seed) {
  Inputs in;
  seq::StockMarketConfig market;
  market.num_companies = kCompanies;
  market.values_per_company = kValues;
  in.market = seq::GenerateStockMarket(market);
  tsss::Rng rng(seed * 0x9E3779B97F4A7C15ull + 7);
  for (auto& pool : in.queries) {
    for (std::size_t j = 0; j < spec.pool_size(); ++j) {
      const seq::TimeSeries& series = in.market[j % kCompanies];
      const auto offset = static_cast<std::ptrdiff_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(kValues - kWindow)));
      geom::Vec q(series.values.begin() + offset,
                  series.values.begin() + offset + kWindow);
      const double a = rng.Uniform(0.5, 2.0);
      const double b = rng.Uniform(-10.0, 10.0);
      for (double& x : q) x = (a * x + b) * (1.0 + rng.Uniform(-0.01, 0.01));
      pool.push_back(std::move(q));
    }
  }
  return in;
}

/// The query a client sends as its j-th operation of one kind. Clients
/// interleave over the pool so that together they cover it in order.
std::size_t QueryIndex(const Spec& spec, std::uint64_t j, std::size_t client) {
  return static_cast<std::size_t>((j * spec.clients + client) % spec.pool_size());
}

// ---------------------------------------------------------------- system --

/// The engine under test: one SearchEngine, or a file-backed ShardedEngine.
struct System {
  std::unique_ptr<core::SearchEngine> engine;
  std::unique_ptr<shard::ShardedEngine> sharded;
  /// shard -> local series id -> global series id, from the shard map.
  std::vector<std::vector<storage::SeriesId>> local_to_global;

  std::size_t num_engines() const { return sharded ? sharded->num_shards() : 1; }
  const core::SearchEngine& engine_at(std::size_t i) const {
    return sharded ? sharded->shard(static_cast<std::uint32_t>(i)) : *engine;
  }
  /// Mutable access for counters and probes, used only while no query is in
  /// flight. The shards are non-const objects this benchmark created;
  /// ShardedEngine hands them out as const only to keep callers from
  /// mutating them under concurrent queries.
  core::SearchEngine& mutable_engine_at(std::size_t i) {
    return const_cast<core::SearchEngine&>(engine_at(i));
  }

  Result<std::vector<core::Match>> Query(Kind kind, std::span<const double> q,
                                         double eps, core::QueryStats* stats) const {
    if (sharded) {
      return kind == kRange ? sharded->RangeQuery(q, eps, {}, stats)
                            : sharded->Knn(q, kK, {}, stats);
    }
    return kind == kRange ? engine->RangeQuery(q, eps, {}, stats)
                          : engine->Knn(q, kK, {}, stats);
  }

  std::uint64_t indexed_windows() const {
    return sharded ? sharded->num_indexed_windows() : engine->num_indexed_windows();
  }
};

struct SetupTimes {
  std::vector<double> total, bulk, checkpoint, open;
};

/// Builds the workload's engine from the corpus once, replacing `sys`.
/// Only the engine calls are timed: Create + BulkBuild, then Checkpoint and
/// Open for the file-backed engine.
Status BuildOnce(const Spec& spec, const Inputs& in, const std::string& dir,
                 System* sys, SetupTimes* times) {
  *sys = System{};
  core::EngineConfig config;
  config.window = kWindow;
  config.subtrail_len = spec.subtrail_len;
  config.buffer_pool_pages = spec.pool_pages;
  config.cold_cache_per_query = false;
  if (spec.shards == 0) {
    const std::int64_t t0 = NowNs();
    Result<std::unique_ptr<core::SearchEngine>> engine =
        core::SearchEngine::Create(config);
    if (!engine.ok()) return engine.status();
    Status s = (*engine)->BulkBuild(in.market);
    if (!s.ok()) return s;
    const double bulk = Seconds(NowNs() - t0);
    sys->engine = std::move(engine).value();
    times->bulk.push_back(bulk);
    times->checkpoint.push_back(0.0);
    times->open.push_back(0.0);
    times->total.push_back(bulk);
    return Status::OK();
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) return Status::IoError("cannot clear " + dir + ": " + ec.message());
  config.storage_dir = dir;
  shard::ShardedEngineConfig sharded_config;
  sharded_config.engine = config;
  sharded_config.num_shards = spec.shards;
  sharded_config.fanout_workers = spec.shards;
  const std::int64_t t0 = NowNs();
  Result<std::unique_ptr<shard::ShardedEngine>> built =
      shard::ShardedEngine::Create(sharded_config);
  if (!built.ok()) return built.status();
  Status s = (*built)->BulkBuild(in.market);
  if (!s.ok()) return s;
  const std::int64_t t1 = NowNs();
  s = (*built)->Checkpoint();
  if (!s.ok()) return s;
  const std::int64_t t2 = NowNs();
  built = Status::Internal("closed");  // shuts the built engine down first
  const std::int64_t t3 = NowNs();
  Result<std::unique_ptr<shard::ShardedEngine>> opened =
      shard::ShardedEngine::Open(dir, spec.shards);
  if (!opened.ok()) return opened.status();
  const std::int64_t t4 = NowNs();
  sys->sharded = std::move(opened).value();
  const shard::ShardMap& map = sys->sharded->shard_map();
  sys->local_to_global.assign(map.num_shards, {});
  for (std::size_t g = 0; g < map.series.size(); ++g) {
    sys->local_to_global[map.series[g].shard].push_back(
        static_cast<storage::SeriesId>(g));
  }
  times->bulk.push_back(Seconds(t1 - t0));
  times->checkpoint.push_back(Seconds(t2 - t1));
  times->open.push_back(Seconds(t4 - t3));
  times->total.push_back(Seconds((t2 - t0) + (t4 - t3)));
  return Status::OK();
}

// ---------------------------------------------------------------- oracle --

/// Sequential-scan answers over an independent copy of the data. For the
/// static workloads every pool query is answered before timing starts; the
/// monitor's data grows, so it scans a sample of queries as they happen.
struct Oracle {
  seq::Dataset mirror;
  std::vector<std::vector<core::Match>> truth[2];
};

Result<std::vector<core::Match>> Scan(const seq::Dataset& data, Kind kind,
                                      std::span<const double> q, double eps) {
  // SequentialScanner only reads through its pointer.
  core::SequentialScanner scanner(const_cast<seq::Dataset*>(&data), kWindow);
  return kind == kRange ? scanner.RangeQuery(q, eps) : scanner.Knn(q, kK);
}

Status PrecomputeTruth(const Inputs& in, double eps, Oracle* oracle) {
  constexpr std::size_t kThreads = 4;
  const std::size_t pool = in.queries[kRange].size();
  const std::size_t tasks = 2 * pool;
  for (auto& truth : oracle->truth) truth.assign(pool, {});
  std::vector<Status> status(tasks);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < tasks; i += kThreads) {
        const Kind kind = i < pool ? kRange : kKnn;
        const std::size_t q = i % pool;
        Result<std::vector<core::Match>> answer =
            Scan(oracle->mirror, kind, in.queries[kind][q], eps);
        if (!answer.ok()) {
          status[i] = answer.status();
          continue;
        }
        oracle->truth[kind][q] = std::move(answer).value();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& s : status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// ---------------------------------------------------------------- clients --

/// The monitor's live feed: a seeded continuation of the last series, and
/// the seeded choice of which ticks get a scan check.
struct Feed {
  storage::SeriesId live = kCompanies - 1;
  double last = 0.0;
  tsss::Rng values{0};
  tsss::Rng checks{0};

  double Next() {
    last *= std::exp(0.0004 + 0.02 * values.NextGaussian());
    return last;
  }
};

/// Everything one run shares between its clients.
struct Run {
  const Spec* spec = nullptr;
  const Inputs* in = nullptr;
  System* sys = nullptr;
  Oracle* oracle = nullptr;
  Feed feed;
  std::atomic<std::uint64_t> done[3] = {};  ///< completed ops by Kind

  bool Enough() const {
    return done[kRange] >= kMinSamples && done[kKnn] >= kMinSamples &&
           (!spec->appends || done[kAppend] >= kMinSamples);
  }
};

/// What one client saw in one phase.
struct ClientStats {
  std::vector<double> latency_ms[3];  ///< by Kind
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t wall_ns = 0;
  std::int64_t check_ns = 0;  ///< out-of-band checking, excluded from rates
  std::uint64_t ops() const {
    return latency_ms[kRange].size() + latency_ms[kKnn].size() +
           latency_ms[kAppend].size();
  }
  double busy_s() const { return Seconds(wall_ns - check_ns); }
};

/// The traced half's per-layer record of one client.
struct TracedStats {
  SpanLog log;
  std::vector<LayerSample> samples[2];  ///< per logical query, legs summed
  std::vector<double> nodes_per_append;
  std::vector<double> direct_leg_ms;
  std::vector<double> fanout_overhead_us;
  std::vector<double> leg_imbalance;
  std::vector<double> knn_logical_candidates;
  std::vector<CandidateSet> probe_sets;
  std::size_t probe_records = 0;
  std::uint64_t identity_failures = 0;
};

/// Monitor: appends one value to the live series (and to the oracle's copy).
void TickAppend(Run& run, ClientStats* stats, TracedStats* traced) {
  const double value = run.feed.Next();
  core::SearchEngine& engine = *run.sys->engine;
  const std::uint64_t reads_before = engine.pool().metrics().logical_reads;
  const std::int64_t t0 = NowNs();
  Status s = engine.Append(run.feed.live, std::span<const double>(&value, 1));
  const std::int64_t t1 = NowNs();
  if (traced != nullptr) {
    traced->nodes_per_append.push_back(static_cast<double>(
        engine.pool().metrics().logical_reads - reads_before));
  }
  ++stats->attempted;
  stats->latency_ms[kAppend].push_back(Millis(t1 - t0));
  ++run.done[kAppend];
  if (!s.ok() ||
      !run.oracle->mirror.Append(run.feed.live, std::span<const double>(&value, 1))
           .ok()) {
    ++stats->failed;
  }
}

/// Checks one answer against the oracle; returns false on a difference.
bool MatchesOracle(Run& run, Kind kind, std::size_t qi,
                   const std::vector<core::Match>& answer) {
  if (!run.spec->appends) return SameAnswer(answer, run.oracle->truth[kind][qi]);
  if (!run.feed.checks.Bernoulli(kMonitorCheckProb)) return true;
  Result<std::vector<core::Match>> truth =
      Scan(run.oracle->mirror, kind, run.in->queries[kind][qi], run.spec->eps);
  return truth.ok() && SameAnswer(answer, *truth);
}

/// Merges per-shard answers (already in global ids) like ShardedEngine.
std::vector<core::Match> MergeLegs(Kind kind, std::vector<core::Match> all) {
  if (kind == kRange) {
    std::sort(all.begin(), all.end(),
              [](const core::Match& a, const core::Match& b) {
                return a.record < b.record;
              });
    return all;
  }
  std::sort(all.begin(), all.end(), CanonicalLess);
  if (all.size() > kK) all.resize(kK);
  return all;
}

void AddSample(LayerSample* sum, const LayerSample& leg) {
  sum->prep_ns += leg.prep_ns;
  sum->index_ns += leg.index_ns;
  sum->verify_ns += leg.verify_ns;
  sum->nodes += leg.nodes;
  sum->leaf_hits += leg.leaf_hits;
  sum->candidates += leg.candidates;
  sum->matches += leg.matches;
  sum->data_pages += leg.data_pages;
  sum->entries_tested += leg.entries_tested;
  sum->entries_visited += leg.entries_visited;
}

/// The outcome of one query operation.
struct OpOutcome {
  /// Time the client spent on the operation, -1 when a call failed. When
  /// traced this includes the tracing work (layer calls, direct legs) but
  /// not the identity or oracle checks.
  std::int64_t ns = -1;
  std::vector<core::Match> answer;
  bool identical = true;  ///< traced: layer calls agree with the engine
};

/// One traced query: the layer calls with spans, then the identity check
/// against the engine's own call (outside the timed part). On a single
/// engine the layer calls are the operation; on the sharded engine the
/// operation is the logical fan-out call, and each leg is then re-run
/// directly on its shard through the layer calls.
OpOutcome TracedQuery(Run& run, Kind kind, std::size_t qi, std::uint64_t op,
                      TracedStats* traced) {
  const std::span<const double> q = run.in->queries[kind][qi];
  const double eps = run.spec->eps;
  const System& sys = *run.sys;
  SpanLog& log = traced->log;
  const std::int64_t root = log.Begin(op, kind == kRange ? "op.range" : "op.knn", -1);
  std::vector<tsss::index::RecordId> records;
  auto layered = [&](const core::SearchEngine& engine, std::int64_t parent,
                     LayerSample* sample, bool keep) {
    return kind == kRange
               ? LayeredRange(engine, q, eps, &log, op, parent, sample,
                              keep ? &records : nullptr)
               : LayeredKnn(engine, q, kK, &log, op, parent, sample);
  };
  const bool want_probe =
      kind == kRange && traced->probe_records < kProbeRecords;

  OpOutcome out;
  LayerSample total;
  core::QueryStats stats;
  if (!sys.sharded) {
    const std::int64_t t0 = NowNs();
    Result<std::vector<core::Match>> answer =
        layered(*sys.engine, root, &total, want_probe);
    const std::int64_t ns = NowNs() - t0;
    log.End(root);
    if (!answer.ok()) return out;
    out.ns = ns;
    out.answer = std::move(answer).value();
    Result<std::vector<core::Match>> own = sys.Query(kind, q, eps, &stats);
    out.identical = own.ok() && SameAnswer(out.answer, *own) &&
                    SameCounts(total, stats, kind == kRange);
  } else {
    const std::int64_t fan = log.Begin(op, "shard.fanout", root);
    const std::int64_t t0 = NowNs();
    Result<std::vector<core::Match>> answer = sys.Query(kind, q, eps, &stats);
    const std::int64_t ns = NowNs() - t0;
    log.End(fan);
    if (!answer.ok()) {
      log.End(root);
      return out;
    }
    std::vector<core::Match> legs_answer;
    std::vector<double> leg_ns;
    for (std::size_t s = 0; s < sys.num_engines(); ++s) {
      const std::int64_t leg = log.Begin(op, "shard.leg", root);
      LayerSample sample;
      const std::int64_t l0 = NowNs();
      Result<std::vector<core::Match>> part =
          layered(sys.engine_at(s), leg, &sample, want_probe && s == 0);
      leg_ns.push_back(static_cast<double>(NowNs() - l0));
      log.End(leg, sample.candidates);
      if (!part.ok()) {
        log.End(root);
        return out;
      }
      for (core::Match& m : *part) {
        m.series = sys.local_to_global[s][m.series];
        m.record = seq::MakeRecordId(m.series, m.offset);
        legs_answer.push_back(m);
      }
      AddSample(&total, sample);
    }
    log.End(root);
    out.ns = ns + static_cast<std::int64_t>(
                      std::accumulate(leg_ns.begin(), leg_ns.end(), 0.0));
    out.answer = std::move(answer).value();
    double slowest = 0.0;
    double sum = 0.0;
    for (double leg : leg_ns) {
      slowest = std::max(slowest, leg);
      sum += leg;
      traced->direct_leg_ms.push_back(leg * 1e-6);
    }
    traced->fanout_overhead_us.push_back((static_cast<double>(ns) - slowest) * 1e-3);
    traced->leg_imbalance.push_back(slowest /
                                    (sum / static_cast<double>(leg_ns.size())));
    if (kind == kKnn) {
      traced->knn_logical_candidates.push_back(static_cast<double>(stats.candidates));
    }
    // k-NN legs share a tightening bound inside the engine, so their
    // candidate counts depend on timing; only range counts must match.
    out.identical = SameAnswer(MergeLegs(kind, std::move(legs_answer)), out.answer) &&
                    (kind == kKnn || SameCounts(total, stats, true));
  }
  if (!out.identical) ++traced->identity_failures;
  traced->samples[kind].push_back(total);
  if (want_probe && !records.empty()) {
    records.resize(std::min(records.size(), kProbeRecords - traced->probe_records));
    traced->probe_records += records.size();
    traced->probe_sets.push_back(CandidateSet{std::vector<double>(q.begin(), q.end()),
                                              eps, std::move(records)});
  }
  return out;
}

/// One client's closed loop for one phase. With `traced` set, queries run
/// through the layer calls; otherwise through the engine, untraced.
void ClientLoop(Run& run, std::size_t client, std::int64_t duration_ns,
                bool require_min, ClientStats* stats, TracedStats* traced) {
  const Spec& spec = *run.spec;
  const std::int64_t start = NowNs();
  const std::int64_t cap = start + 3 * duration_ns;
  std::uint64_t counts[2] = {0, 0};
  for (std::uint64_t i = 0;; ++i) {
    const std::int64_t now = NowNs();
    const bool timed_out = now - start - stats->check_ns >= duration_ns;
    if (now >= cap || (timed_out && (!require_min || run.Enough()))) break;
    if (spec.appends) TickAppend(run, stats, traced);
    const Kind kind = i % 2 == 0 ? kRange : kKnn;
    const std::size_t qi = QueryIndex(spec, counts[kind]++, client);
    ++stats->attempted;
    OpOutcome outcome;
    if (traced != nullptr) {
      outcome = TracedQuery(run, kind, qi, i * spec.clients + client, traced);
    } else {
      const std::int64_t t0 = NowNs();
      Result<std::vector<core::Match>> answer =
          run.sys->Query(kind, run.in->queries[kind][qi], spec.eps, nullptr);
      const std::int64_t ns = NowNs() - t0;
      if (answer.ok()) {
        outcome.ns = ns;
        outcome.answer = std::move(answer).value();
      }
    }
    bool correct = false;
    if (outcome.ns >= 0) {
      stats->latency_ms[kind].push_back(Millis(outcome.ns));
      ++run.done[kind];
      const std::int64_t c0 = NowNs();
      correct = outcome.identical && MatchesOracle(run, kind, qi, outcome.answer);
      stats->check_ns += NowNs() - c0;
    }
    if (!correct) ++stats->failed;
  }
  stats->wall_ns = NowNs() - start;
}

// ---------------------------------------------------------------- phases --

struct Phase {
  std::vector<ClientStats> clients;
  std::vector<TracedStats> traced;

  std::vector<double> Latencies(Kind kind) const {
    std::vector<double> all;
    for (const ClientStats& c : clients) {
      all.insert(all.end(), c.latency_ms[kind].begin(), c.latency_ms[kind].end());
    }
    return all;
  }
  /// Closed-loop throughput: each client's completed ops over its busy time.
  double OpsPerSecond() const {
    double rate = 0.0;
    for (const ClientStats& c : clients) {
      rate += Ratio(static_cast<double>(c.ops()), c.busy_s());
    }
    return rate;
  }
  /// Mean client-observed time per operation, appends included.
  double MeanOpMs() const {
    double sum = 0.0;
    std::size_t n = 0;
    for (const ClientStats& c : clients) {
      for (const auto& kind : c.latency_ms) {
        for (double ms : kind) sum += ms;
        n += kind.size();
      }
    }
    return Ratio(sum, static_cast<double>(n));
  }
  std::uint64_t queries() const {
    return Latencies(kRange).size() + Latencies(kKnn).size();
  }
  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const ClientStats& c : clients) n += c.attempted;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const ClientStats& c : clients) n += c.failed;
    return n;
  }
};

Phase RunPhase(Run& run, double seconds, bool require_min, bool traced) {
  const std::size_t clients = run.spec->clients;
  const auto duration_ns = static_cast<std::int64_t>(seconds * 1e9);
  Phase phase;
  phase.clients.resize(clients);
  if (traced) phase.traced.resize(clients);
  for (auto& done : run.done) done = 0;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLoop(run, c, duration_ns, require_min, &phase.clients[c],
                 traced ? &phase.traced[c] : nullptr);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return phase;
}

struct PoolCounters {
  double logical = 0, hits = 0, evictions = 0, physical = 0;
};

PoolCounters ReadPools(System& sys) {
  PoolCounters out;
  for (std::size_t i = 0; i < sys.num_engines(); ++i) {
    core::SearchEngine& engine = sys.mutable_engine_at(i);
    const storage::BufferPoolMetrics m = engine.pool().metrics();
    out.logical += static_cast<double>(m.logical_reads);
    out.hits += static_cast<double>(m.hits);
    out.evictions += static_cast<double>(m.evictions);
    out.physical +=
        static_cast<double>(engine.pool().store()->metrics().physical_reads);
  }
  return out;
}

// --------------------------------------------------------------- reports --

void AddLatency(Report* report, const std::string& kind,
                const std::vector<double>& ms) {
  report->Add(kind + "_p50_ms", Quantile(ms, 0.50), "ms");
  report->Add(kind + "_p99_ms", Quantile(ms, 0.99), "ms");
}

/// Means over traced queries of one kind, for one LayerSample field.
template <typename Field>
double MeanOf(const std::vector<TracedStats>& traced, Kind kind, Field field) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const TracedStats& t : traced) {
    for (const LayerSample& s : t.samples[kind]) {
      sum += static_cast<double>(field(s));
      ++n;
    }
  }
  return Ratio(sum, static_cast<double>(n));
}

std::vector<double> Concat(const std::vector<TracedStats>& traced,
                           std::vector<double> TracedStats::*member) {
  std::vector<double> all;
  for (const TracedStats& t : traced) {
    all.insert(all.end(), (t.*member).begin(), (t.*member).end());
  }
  return all;
}

/// The per-layer metrics of a traced run. Metrics of a layer the workload
/// does not exercise (the fan-out on one engine, appends on a read-only
/// workload) read 0, so every workload reports the same names.
Report LayerReport(Run& run, const SetupTimes& times, const Phase& plain,
                   const Phase& traced, const PoolCounters& pools,
                   const tsss::service::ServiceMetrics& service_before,
                   const tsss::service::ServiceMetrics& service_after,
                   const ProbeResult& probe) {
  const std::vector<TracedStats>& t = traced.traced;
  Report r;
  auto prep = [](const LayerSample& s) { return s.prep_ns; };
  r.Add("reduce.query_prep_us",
        (MeanOf(t, kRange, prep) + MeanOf(t, kKnn, prep)) / 2.0 * 1e-3, "us");

  const double filter_us =
      MeanOf(t, kRange, [](const LayerSample& s) { return s.index_ns; }) * 1e-3;
  const double nodes = MeanOf(t, kRange, [](const LayerSample& s) { return s.nodes; });
  double tested = 0.0, visited = 0.0, candidates = 0.0, matches = 0.0;
  for (const TracedStats& ts : t) {
    for (const LayerSample& s : ts.samples[kRange]) {
      tested += static_cast<double>(s.entries_tested);
      visited += static_cast<double>(s.entries_visited);
      candidates += static_cast<double>(s.candidates);
      matches += static_cast<double>(s.matches);
    }
  }
  r.Add("index.filter_us", filter_us, "us");
  r.Add("index.knn_walk_us",
        MeanOf(t, kKnn, [](const LayerSample& s) { return s.index_ns; }) * 1e-3, "us");
  r.Add("index.nodes_per_query", nodes, "count");
  r.Add("index.us_per_node", Ratio(filter_us, nodes), "us");
  r.Add("index.node_decode_ns", probe.node_decode_ns, "ns");
  r.Add("index.prune_ratio", Ratio(tested - visited, tested), "ratio");
  r.Add("index.leaf_hits_per_query",
        MeanOf(t, kRange, [](const LayerSample& s) { return s.leaf_hits; }), "count");
  r.Add("index.nodes_per_append", Mean(Concat(t, &TracedStats::nodes_per_append)),
        "count");

  const double queries = static_cast<double>(plain.queries());
  r.Add("storage.fetch_hit_ns", probe.fetch_hit_ns, "ns");
  r.Add("storage.fetch_miss_ns", probe.fetch_miss_ns, "ns");
  r.Add("storage.pool_hit_ratio", Ratio(pools.hits, pools.logical), "ratio");
  r.Add("storage.physical_reads_per_query", Ratio(pools.physical, queries), "count");
  r.Add("storage.evictions_per_query", Ratio(pools.evictions, queries), "count");
  r.Add("storage.read_window_ns", probe.read_window_ns, "ns");
  r.Add("storage.data_pages_per_query",
        MeanOf(t, kRange, [](const LayerSample& s) { return s.data_pages; }), "count");

  r.Add("core.verify_us",
        MeanOf(t, kRange, [](const LayerSample& s) { return s.verify_ns; }) * 1e-3,
        "us");
  r.Add("core.align_ns", probe.align_ns, "ns");
  r.Add("core.candidates_per_query",
        MeanOf(t, kRange, [](const LayerSample& s) { return s.candidates; }), "count");
  r.Add("core.precision", Ratio(matches, candidates), "ratio");
  r.Add("core.bulk_build_s", Median(times.bulk), "s");
  r.Add("core.checkpoint_s", Median(times.checkpoint), "s");
  r.Add("core.open_s", Median(times.open), "s");

  const bool sharded = run.sys->sharded != nullptr;
  const double leg_p50 = sharded ? service_after.p50_latency_ms : 0.0;
  const double direct_leg_p50 = Median(Concat(t, &TracedStats::direct_leg_ms));
  r.Add("service.leg_p50_ms", leg_p50, "ms");
  r.Add("service.leg_p99_ms", sharded ? service_after.p99_latency_ms : 0.0, "ms");
  r.Add("service.queue_wait_ms", sharded ? leg_p50 - direct_leg_p50 : 0.0, "ms");
  r.Add("service.rejected_per_query",
        Ratio(static_cast<double>(service_after.rejected - service_before.rejected),
              queries),
        "count");
  r.Add("shard.fanout_overhead_us", Median(Concat(t, &TracedStats::fanout_overhead_us)),
        "us");
  r.Add("shard.leg_imbalance", Mean(Concat(t, &TracedStats::leg_imbalance)), "ratio");
  r.Add("shard.knn_candidates_per_query",
        Mean(Concat(t, &TracedStats::knn_logical_candidates)), "count");

  const std::vector<double> appends = plain.Latencies(kAppend);
  r.Add("append_p50_ms", Quantile(appends, 0.50), "ms");
  r.Add("append_p99_ms", Quantile(appends, 0.99), "ms");
  r.Add("failed_frac",
        Ratio(static_cast<double>(plain.failed() + traced.failed()),
              static_cast<double>(plain.attempted() + traced.attempted())),
        "ratio");
  r.Add("trace_overhead_pct",
        100.0 * (Ratio(traced.MeanOpMs(), plain.MeanOpMs()) - 1.0), "%");
  return r;
}

// ------------------------------------------------------------------ main --

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      for (const Spec& spec : kSpecs) {
        if (std::strcmp(spec.name, value) == 0) opts->spec = &spec;
      }
      if (opts->spec == nullptr) return false;
    } else if (key == "--seed") {
      opts->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opts->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opts->trace = std::atoi(value);
    } else if (key == "--work-dir") {
      opts->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && opts->spec != nullptr && opts->seconds > 0.0 &&
         (opts->trace == 0 || opts->trace == 1);
}

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(), status.ToString().c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload monitor|trail|sharded_disk "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  const Spec& spec = *opts.spec;
  const std::string dir = opts.work_dir + "/" + spec.name + "-" +
                          std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Fail("work dir", Status::IoError(ec.message()));
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{dir};

  const Inputs in = MakeInputs(spec, opts.seed);
  System sys;
  SetupTimes times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Status s = BuildOnce(spec, in, dir + "/index", &sys, &times);
    if (!s.ok()) return Fail("setup", s);
  }
  double node_pages = 0.0;
  for (std::size_t i = 0; i < sys.num_engines(); ++i) {
    Result<tsss::index::TreeStats> stats = sys.engine_at(i).tree().ComputeStats();
    if (!stats.ok()) return Fail("tree stats", stats.status());
    node_pages += static_cast<double>(stats->node_pages);
  }
  const double bytes_per_window = node_pages * static_cast<double>(storage::kPageSize) /
                                  static_cast<double>(sys.indexed_windows());

  Oracle oracle;
  for (const seq::TimeSeries& series : in.market) oracle.mirror.Add(series);
  if (!spec.appends) {
    Status s = PrecomputeTruth(in, spec.eps, &oracle);
    if (!s.ok()) return Fail("oracle", s);
  }
  Run run;
  run.spec = &spec;
  run.in = &in;
  run.sys = &sys;
  run.oracle = &oracle;
  run.feed.last = in.market.back().values.back();
  run.feed.values = tsss::Rng(opts.seed * 31 + 1);
  run.feed.checks = tsss::Rng(opts.seed * 31 + 2);

  const std::string title = std::string(spec.name) + " seed " +
                            std::to_string(opts.seed) + " trace " +
                            std::to_string(opts.trace);
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Report report;
  if (opts.trace == 0) {
    const Phase phase = RunPhase(run, opts.seconds, /*require_min=*/true, false);
    report.Add("setup_s", Median(times.total), "s");
    report.Add("ops_per_s", phase.OpsPerSecond(), "1/s");
    AddLatency(&report, "range", phase.Latencies(kRange));
    AddLatency(&report, "knn", phase.Latencies(kKnn));
    report.Add("index_bytes_per_window", bytes_per_window, "B");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    attempted = phase.attempted();
    failed = phase.failed();
    Report extra;
    if (spec.appends) AddLatency(&extra, "append", phase.Latencies(kAppend));
    extra.Add("failed_frac",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              "ratio");
    for (int kind = 0; kind < 3; ++kind) {
      extra.Add(std::string("samples_") + kKindName[kind],
                static_cast<double>(phase.Latencies(static_cast<Kind>(kind)).size()),
                "count");
    }
    report.PrintTable(title + ": end-to-end");
    extra.PrintTable(title + ": workload-specific");
  } else {
    const tsss::service::ServiceMetrics service_before =
        sys.sharded ? sys.sharded->FanoutStats() : tsss::service::ServiceMetrics{};
    const PoolCounters pools_before = ReadPools(sys);
    const Phase plain = RunPhase(run, opts.seconds / 2, /*require_min=*/false, false);
    const PoolCounters pools_after = ReadPools(sys);
    const tsss::service::ServiceMetrics service_after =
        sys.sharded ? sys.sharded->FanoutStats() : tsss::service::ServiceMetrics{};
    const Phase traced = RunPhase(run, opts.seconds / 2, /*require_min=*/false, true);

    std::vector<CandidateSet> probe_sets;
    std::vector<const SpanLog*> logs;
    std::uint64_t identity_failures = 0;
    for (const TracedStats& t : traced.traced) {
      probe_sets.insert(probe_sets.end(), t.probe_sets.begin(), t.probe_sets.end());
      logs.push_back(&t.log);
      identity_failures += t.identity_failures;
    }
    Result<ProbeResult> probe = RunProbes(sys.mutable_engine_at(0), probe_sets);
    if (!probe.ok()) return Fail("probes", probe.status());
    const PoolCounters pools{pools_after.logical - pools_before.logical,
                             pools_after.hits - pools_before.hits,
                             pools_after.evictions - pools_before.evictions,
                             pools_after.physical - pools_before.physical};
    report = LayerReport(run, times, plain, traced, pools, service_before,
                         service_after, *probe);
    attempted = plain.attempted() + traced.attempted();
    failed = plain.failed() + traced.failed();
    const std::string spans = opts.work_dir + "/spans-" + spec.name + "-seed" +
                              std::to_string(opts.seed) + ".jsonl";
    if (!WriteSpans(spans, logs)) {
      return Fail("spans", Status::IoError("cannot write " + spans));
    }
    report.PrintTable(title + ": per-layer");
    std::printf("# identity failures %llu; spans in %s\n",
                static_cast<unsigned long long>(identity_failures), spans.c_str());
  }
  if (!report.AllFinite()) {
    return Fail("report", Status::Internal("a metric is not a finite number"));
  }
  correct = failed == 0;
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

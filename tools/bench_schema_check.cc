// Validates machine-written report files against their documented schemas:
//
//   bench_schema_check [--schema bench|explain|inspect|inspect_sharded|
//                                flight|varz|profile|healthz] report.json...
//
//   bench   — BENCH_<name>.json emitted by run_benches.sh (schema documented
//             in bench/bench_common.h, schema_version 1). `tsss_cli
//             serve-bench --json-out` emits the same shape.
//   explain — `tsss_cli explain --format json` plan reports (schema in
//             src/tsss/obs/explain.h). Sharded indexes render the merged
//             per-shard report through the same schema.
//   inspect — `tsss_cli inspect --format json` structural reports.
//   inspect_sharded — `tsss_cli inspect --format json` on a sharded index
//             (shard map summary + one row per shard).
//   flight  — /flightz flight-recorder dumps served by `tsss_cli serve`
//             (schema in src/tsss/obs/flight_recorder.h). Embedded explain
//             documents are validated with the full explain schema.
//   varz    — /varz JSON snapshots (ExportJson in src/tsss/obs/metrics.h).
//   profile — sampling-profiler reports (Profile::ToJson in
//             src/tsss/obs/profiler.h): `tsss_cli profile --json-out` and
//             /pprofz. Enforces the phase-partition identity (per-phase
//             sample counts sum to the total).
//   healthz — /healthz SLO verdicts (RenderHealthzJson in
//             src/tsss/obs/rolling.h).
//
// Exits non-zero naming the first offending file/field. JSON parsing lives in
// tools/json_mini.h (shared with bench_diff).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "json_mini.h"

namespace {

/// Bytes per page (storage::kPageSize): an explain report's bytes_touched is
/// its page reads times this.
constexpr int kPageBytes = 4096;

using jsonmini::JsonValue;

bool IsNumber(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kNumber;
}
bool IsString(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kString;
}
bool IsBool(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kBool;
}

/// Checks that `parent.key` is an object and returns it (else sets *error).
const JsonValue* RequireObject(const JsonValue& parent, const char* key,
                               std::string* error) {
  const JsonValue* v = parent.Get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kObject) {
    *error = std::string(key) + " must be an object";
    return nullptr;
  }
  return v;
}

const JsonValue* RequireArray(const JsonValue& parent, const char* key,
                              std::string* error) {
  const JsonValue* v = parent.Get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kArray) {
    *error = std::string(key) + " must be an array";
    return nullptr;
  }
  return v;
}

bool RequireNumbers(const JsonValue& obj, const char* where,
                    const std::vector<const char*>& keys, std::string* error) {
  for (const char* key : keys) {
    if (!IsNumber(obj.Get(key))) {
      *error = std::string(where) + "." + key + " must be a number";
      return false;
    }
  }
  return true;
}

/// Common preamble: top level object with schema_version == 1. When
/// `report_name` is non-null the "report" field must equal it.
bool CheckHeader(const JsonValue& root, const char* report_name,
                 std::string* error) {
  if (root.kind != JsonValue::Kind::kObject) {
    *error = "top level is not an object";
    return false;
  }
  const JsonValue* version = root.Get("schema_version");
  if (!IsNumber(version) || version->number != 1.0) {
    *error = "schema_version must be the number 1";
    return false;
  }
  if (report_name != nullptr) {
    const JsonValue* report = root.Get("report");
    if (!IsString(report) || report->str != report_name) {
      *error = std::string("report must be the string \"") + report_name + '"';
      return false;
    }
  }
  return true;
}

bool CheckBench(const JsonValue& root, std::string* error) {
  if (!CheckHeader(root, nullptr, error)) return false;
  const JsonValue* name = root.Get("name");
  if (!IsString(name) || name->str.empty()) {
    *error = "name must be a non-empty string";
    return false;
  }
  const JsonValue* env = RequireObject(root, "env", error);
  if (env == nullptr) return false;
  if (!RequireNumbers(*env, "env", {"companies", "values", "queries", "full"},
                      error)) {
    return false;
  }
  if (RequireObject(root, "meta", error) == nullptr) return false;
  const JsonValue* rows = RequireArray(root, "rows", error);
  if (rows == nullptr) return false;
  if (rows->array.empty()) {
    *error = "rows is empty (benchmark produced no results)";
    return false;
  }
  for (std::size_t i = 0; i < rows->array.size(); ++i) {
    const JsonValue& row = rows->array[i];
    if (row.kind != JsonValue::Kind::kObject || row.object.empty()) {
      *error = "rows[" + std::to_string(i) + "] must be a non-empty object";
      return false;
    }
    for (const auto& [key, value] : row.object) {
      if (value.kind == JsonValue::Kind::kArray ||
          value.kind == JsonValue::Kind::kObject) {
        *error = "rows[" + std::to_string(i) + "]." + key +
                 " must be a scalar";
        return false;
      }
    }
  }
  return true;
}

bool CheckExplain(const JsonValue& root, std::string* error) {
  if (!CheckHeader(root, "explain", error)) return false;

  const JsonValue* query = RequireObject(root, "query", error);
  if (query == nullptr) return false;
  if (!IsString(query->Get("kind")) || !IsString(query->Get("prune"))) {
    *error = "query.kind and query.prune must be strings";
    return false;
  }
  if (!RequireNumbers(*query, "query", {"eps", "k", "elapsed_us"}, error)) {
    return false;
  }

  const JsonValue* totals = RequireObject(root, "totals", error);
  if (totals == nullptr) return false;
  if (!RequireNumbers(
          *totals, "totals",
          {"tree_height", "tree_nodes", "nodes_visited", "entries_tested",
           "ep_prunes", "bs_prunes", "exact_prunes", "descents",
           "accepted_leaf_entries", "mbr_distance_evals", "indexed_windows",
           "leaf_candidates", "candidates", "postfiltered", "matches"},
          error)) {
    return false;
  }
  // The prune waterfall must account for every tested entry (the report
  // invariant the oracle tests pin down; a report violating it is corrupt).
  const double accounted = totals->Get("ep_prunes")->number +
                           totals->Get("bs_prunes")->number +
                           totals->Get("exact_prunes")->number +
                           totals->Get("descents")->number +
                           totals->Get("accepted_leaf_entries")->number;
  if (totals->Get("entries_tested")->number != accounted) {
    *error = "totals: prune waterfall does not sum to entries_tested";
    return false;
  }

  const JsonValue* levels = RequireArray(root, "levels", error);
  if (levels == nullptr) return false;
  for (std::size_t i = 0; i < levels->array.size(); ++i) {
    const JsonValue& row = levels->array[i];
    const std::string where = "levels[" + std::to_string(i) + "]";
    if (row.kind != JsonValue::Kind::kObject ||
        !RequireNumbers(row, where.c_str(), {"level", "visited", "total"},
                        error)) {
      if (error->empty()) *error = where + " must be an object";
      return false;
    }
  }

  const JsonValue* io = RequireObject(root, "io", error);
  if (io == nullptr) return false;
  if (!RequireNumbers(*io, "io",
                      {"index_page_reads", "index_page_hits",
                       "index_page_misses", "data_page_reads"},
                      error)) {
    return false;
  }

  const JsonValue* baseline = RequireObject(root, "baseline", error);
  if (baseline == nullptr) return false;
  if (!RequireNumbers(*baseline, "baseline",
                      {"seq_scan_pages", "query_pages"}, error)) {
    return false;
  }

  const JsonValue* cost = RequireObject(root, "cost", error);
  if (cost == nullptr) return false;
  if (!RequireNumbers(*cost, "cost",
                      {"cpu_us", "pages_hit", "pages_miss", "data_pages",
                       "bytes_touched", "candidates_verified"},
                      error)) {
    return false;
  }
  // The cost section is rendered from the same per-query record as the io,
  // totals and baseline rows, so each cost figure must equal its twin there.
  auto matches = [&](const char* cost_key, const JsonValue& section,
                     const char* section_name, const char* key,
                     double scale) {
    if (cost->Get(cost_key)->number == scale * section.Get(key)->number) {
      return true;
    }
    *error = std::string("cost.") + cost_key + " does not equal " +
             (scale == 1.0 ? "" : std::to_string(kPageBytes) + " x ") +
             section_name + "." + key;
    return false;
  };
  if (!matches("pages_hit", *io, "io", "index_page_hits", 1.0) ||
      !matches("pages_miss", *io, "io", "index_page_misses", 1.0) ||
      !matches("data_pages", *io, "io", "data_page_reads", 1.0) ||
      !matches("candidates_verified", *totals, "totals", "candidates", 1.0) ||
      !matches("bytes_touched", *baseline, "baseline", "query_pages",
               kPageBytes)) {
    return false;
  }

  const JsonValue* phases = RequireArray(root, "phases", error);
  if (phases == nullptr) return false;
  for (std::size_t i = 0; i < phases->array.size(); ++i) {
    const JsonValue& row = phases->array[i];
    const std::string where = "phases[" + std::to_string(i) + "]";
    if (row.kind != JsonValue::Kind::kObject || !IsString(row.Get("name")) ||
        !RequireNumbers(row, where.c_str(), {"depth", "dur_us"}, error)) {
      if (error->empty()) *error = where + " must have name/depth/dur_us";
      return false;
    }
  }
  return true;
}

bool CheckInspect(const JsonValue& root, std::string* error) {
  if (!CheckHeader(root, "inspect", error)) return false;

  const JsonValue* tree = RequireObject(root, "tree", error);
  if (tree == nullptr) return false;
  if (!RequireNumbers(*tree, "tree",
                      {"height", "nodes", "entries"}, error)) {
    return false;
  }
  if (!IsBool(tree->Get("depth_uniform"))) {
    *error = "tree.depth_uniform must be a boolean";
    return false;
  }
  const JsonValue* levels = RequireArray(*tree, "levels", error);
  if (levels == nullptr) {
    *error = "tree." + *error;
    return false;
  }
  for (std::size_t i = 0; i < levels->array.size(); ++i) {
    const JsonValue& row = levels->array[i];
    const std::string where = "tree.levels[" + std::to_string(i) + "]";
    if (row.kind != JsonValue::Kind::kObject ||
        !RequireNumbers(row, where.c_str(),
                        {"level", "nodes", "entries", "min_fanout",
                         "max_fanout", "avg_fanout", "avg_occupancy",
                         "overlap_volume", "dead_space_ratio", "margin_sum"},
                        error)) {
      if (error->empty()) *error = where + " must be an object";
      return false;
    }
    const JsonValue* histogram = row.Get("occupancy_histogram");
    if (histogram == nullptr ||
        histogram->kind != JsonValue::Kind::kArray ||
        histogram->array.size() != 10) {
      *error = where + ".occupancy_histogram must be a 10-element array";
      return false;
    }
  }

  const JsonValue* pool = RequireObject(root, "pool", error);
  if (pool == nullptr) return false;
  if (!RequireNumbers(*pool, "pool", {"capacity", "profiled_pages"}, error)) {
    return false;
  }
  const JsonValue* pool_levels = RequireArray(*pool, "levels", error);
  if (pool_levels == nullptr) {
    *error = "pool." + *error;
    return false;
  }
  for (std::size_t i = 0; i < pool_levels->array.size(); ++i) {
    const JsonValue& row = pool_levels->array[i];
    const std::string where = "pool.levels[" + std::to_string(i) + "]";
    if (row.kind != JsonValue::Kind::kObject ||
        !RequireNumbers(row, where.c_str(),
                        {"level", "pages", "accesses", "misses", "evictions"},
                        error)) {
      if (error->empty()) *error = where + " must be an object";
      return false;
    }
  }
  const JsonValue* unclassified = RequireObject(*pool, "unclassified", error);
  if (unclassified == nullptr) {
    *error = "pool." + *error;
    return false;
  }
  if (!RequireNumbers(*unclassified, "pool.unclassified",
                      {"pages", "accesses", "misses", "evictions"}, error)) {
    return false;
  }
  const JsonValue* top = RequireArray(*pool, "top_pages", error);
  if (top == nullptr) {
    *error = "pool." + *error;
    return false;
  }
  for (std::size_t i = 0; i < top->array.size(); ++i) {
    const JsonValue& row = top->array[i];
    const std::string where = "pool.top_pages[" + std::to_string(i) + "]";
    if (row.kind != JsonValue::Kind::kObject ||
        !RequireNumbers(row, where.c_str(),
                        {"page", "level", "accesses", "misses", "evictions"},
                        error)) {
      if (error->empty()) *error = where + " must be an object";
      return false;
    }
  }
  return true;
}

bool CheckInspectSharded(const JsonValue& root, std::string* error) {
  if (!CheckHeader(root, "inspect_sharded", error)) return false;

  const JsonValue* map = RequireObject(root, "shard_map", error);
  if (map == nullptr) return false;
  if (!RequireNumbers(*map, "shard_map",
                      {"shards", "series", "indexed_windows"}, error)) {
    return false;
  }
  if (!IsString(map->Get("scheme"))) {
    *error = "shard_map.scheme must be a string";
    return false;
  }

  const JsonValue* shards = RequireArray(root, "shards", error);
  if (shards == nullptr) return false;
  if (static_cast<double>(shards->array.size()) !=
      map->Get("shards")->number) {
    *error = "shards must hold exactly shard_map.shards rows";
    return false;
  }
  for (std::size_t i = 0; i < shards->array.size(); ++i) {
    const JsonValue& row = shards->array[i];
    const std::string where = "shards[" + std::to_string(i) + "]";
    if (row.kind != JsonValue::Kind::kObject ||
        !RequireNumbers(row, where.c_str(),
                        {"shard", "series", "indexed_windows", "tree_height",
                         "pool_hit_ratio"},
                        error)) {
      if (error->empty()) *error = where + " must be an object";
      return false;
    }
  }
  return true;
}

bool CheckFlight(const JsonValue& root, std::string* error) {
  if (!CheckHeader(root, "flight", error)) return false;
  if (!RequireNumbers(
          root, "flight",
          {"armed", "threshold_us", "capacity", "captured", "dropped"},
          error)) {
    return false;
  }
  const JsonValue* records = RequireArray(root, "records", error);
  if (records == nullptr) return false;
  for (std::size_t i = 0; i < records->array.size(); ++i) {
    const JsonValue& row = records->array[i];
    const std::string where = "records[" + std::to_string(i) + "]";
    if (row.kind != JsonValue::Kind::kObject) {
      *error = where + " must be an object";
      return false;
    }
    if (!IsString(row.Get("kind")) || !IsString(row.Get("outcome"))) {
      *error = where + ".kind and .outcome must be strings";
      return false;
    }
    if (!RequireNumbers(row, where.c_str(), {"id", "latency_us"}, error)) {
      return false;
    }
    const JsonValue* cost = RequireObject(row, "cost", error);
    if (cost == nullptr) {
      *error = where + "." + *error;
      return false;
    }
    if (!RequireNumbers(*cost, (where + ".cost").c_str(),
                        {"cpu_us", "pages_hit", "pages_miss", "data_pages",
                         "bytes_touched", "candidates_verified"},
                        error)) {
      return false;
    }
    // The embedded explain/trace documents are null when capture assembly
    // could not produce them; anything else must be a well-formed document
    // (the explain one down to the prune-waterfall identity).
    const JsonValue* explain = row.Get("explain");
    if (explain == nullptr) {
      *error = where + ".explain is missing";
      return false;
    }
    if (explain->kind != JsonValue::Kind::kNull) {
      if (!CheckExplain(*explain, error)) {
        *error = where + ".explain: " + *error;
        return false;
      }
    }
    const JsonValue* trace = row.Get("trace");
    if (trace == nullptr ||
        (trace->kind != JsonValue::Kind::kNull &&
         trace->kind != JsonValue::Kind::kObject)) {
      *error = where + ".trace must be null or an object";
      return false;
    }
    if (trace->kind == JsonValue::Kind::kObject &&
        trace->Get("traceEvents") == nullptr) {
      *error = where + ".trace must carry traceEvents";
      return false;
    }
  }
  return true;
}

bool CheckProfile(const JsonValue& root, std::string* error) {
  if (!CheckHeader(root, "profile", error)) return false;
  if (!RequireNumbers(root, "profile", {"hz", "seconds", "samples", "dropped"},
                      error)) {
    return false;
  }
  const JsonValue* phases = RequireArray(root, "phases", error);
  if (phases == nullptr) return false;
  double phase_total = 0.0;
  for (std::size_t i = 0; i < phases->array.size(); ++i) {
    const JsonValue& row = phases->array[i];
    const std::string where = "phases[" + std::to_string(i) + "]";
    if (row.kind != JsonValue::Kind::kObject || !IsString(row.Get("name")) ||
        !RequireNumbers(row, where.c_str(), {"samples"}, error)) {
      if (error->empty()) *error = where + " must have name/samples";
      return false;
    }
    phase_total += row.Get("samples")->number;
  }
  // Phase attribution is a partition: every sample lands in exactly one
  // phase (or "(untagged)"), so the per-phase counts sum to the total. A
  // report violating that lost or double-counted samples.
  if (phase_total != root.Get("samples")->number) {
    *error = "phase sample counts do not sum to samples";
    return false;
  }
  const JsonValue* folded = RequireArray(root, "folded", error);
  if (folded == nullptr) return false;
  for (std::size_t i = 0; i < folded->array.size(); ++i) {
    const JsonValue& row = folded->array[i];
    const std::string where = "folded[" + std::to_string(i) + "]";
    if (row.kind != JsonValue::Kind::kObject || !IsString(row.Get("stack")) ||
        !RequireNumbers(row, where.c_str(), {"samples"}, error)) {
      if (error->empty()) *error = where + " must have stack/samples";
      return false;
    }
  }
  return true;
}

bool CheckHealthz(const JsonValue& root, std::string* error) {
  if (!CheckHeader(root, "healthz", error)) return false;
  for (const char* key : {"healthy", "latency_ok", "availability_ok"}) {
    if (!IsBool(root.Get(key))) {
      *error = std::string(key) + " must be a boolean";
      return false;
    }
  }
  if (!RequireNumbers(root, "healthz",
                      {"target_p99_ms", "target_availability",
                       "fast_burn_rate", "slow_burn_rate"},
                      error)) {
    return false;
  }
  for (const char* key : {"fast", "slow"}) {
    const JsonValue* window = RequireObject(root, key, error);
    if (window == nullptr) return false;
    if (!RequireNumbers(*window, key,
                        {"window_s", "count", "errors", "deadline_exceeded",
                         "p50_ms", "p99_ms", "availability"},
                        error)) {
      return false;
    }
  }
  return true;
}

bool CheckVarz(const JsonValue& root, std::string* error) {
  // /varz has no schema_version header: it is the raw registry snapshot
  // with exactly three sections of scalar (or histogram-summary) values.
  if (root.kind != JsonValue::Kind::kObject) {
    *error = "top level is not an object";
    return false;
  }
  for (const char* section : {"counters", "gauges"}) {
    const JsonValue* obj = RequireObject(root, section, error);
    if (obj == nullptr) return false;
    for (const auto& [key, value] : obj->object) {
      if (!IsNumber(&value)) {
        *error = std::string(section) + "." + key + " must be a number";
        return false;
      }
    }
  }
  const JsonValue* histograms = RequireObject(root, "histograms", error);
  if (histograms == nullptr) return false;
  for (const auto& [key, value] : histograms->object) {
    const std::string where = "histograms." + key;
    if (value.kind != JsonValue::Kind::kObject ||
        !RequireNumbers(value, where.c_str(),
                        {"count", "sum_us", "p50_ms", "p90_ms", "p99_ms"},
                        error)) {
      if (error->empty()) *error = where + " must be an object";
      return false;
    }
  }
  return true;
}

bool CheckFile(const char* path, const std::string& schema,
               std::string* error) {
  JsonValue root;
  if (!jsonmini::ParseFile(path, &root, error)) return false;
  if (schema == "bench") return CheckBench(root, error);
  if (schema == "explain") return CheckExplain(root, error);
  if (schema == "inspect") return CheckInspect(root, error);
  if (schema == "inspect_sharded") return CheckInspectSharded(root, error);
  if (schema == "flight") return CheckFlight(root, error);
  if (schema == "varz") return CheckVarz(root, error);
  if (schema == "profile") return CheckProfile(root, error);
  if (schema == "healthz") return CheckHealthz(root, error);
  *error = "unknown schema '" + schema + "'";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string schema = "bench";
  int first = 1;
  if (argc >= 3 && std::strcmp(argv[1], "--schema") == 0) {
    schema = argv[2];
    first = 3;
  }
  if (first >= argc) {
    std::fprintf(stderr,
                 "usage: %s [--schema bench|explain|inspect|inspect_sharded|"
                 "flight|varz|profile|healthz] report.json...\n",
                 argv[0]);
    return 2;
  }
  if (schema != "bench" && schema != "explain" && schema != "inspect" &&
      schema != "inspect_sharded" && schema != "flight" && schema != "varz" &&
      schema != "profile" && schema != "healthz") {
    std::fprintf(stderr, "unknown --schema '%s'\n", schema.c_str());
    return 2;
  }
  int failed = 0;
  for (int i = first; i < argc; ++i) {
    std::string error;
    if (CheckFile(argv[i], schema, &error)) {
      std::printf("%s: OK (%s)\n", argv[i], schema.c_str());
    } else {
      std::fprintf(stderr, "%s: INVALID: %s\n", argv[i], error.c_str());
      failed = 1;
    }
  }
  return failed;
}

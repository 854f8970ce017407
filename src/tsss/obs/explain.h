#ifndef TSSS_OBS_EXPLAIN_H_
#define TSSS_OBS_EXPLAIN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tsss::obs {

class QueryTrace;

/// Node visits at one tree level set against the tree's actual shape.
struct ExplainLevelRow {
  std::size_t level = 0;      ///< 0 = leaves, height-1 = root
  std::uint64_t visited = 0;  ///< nodes loaded at this level by the query
  std::uint64_t total = 0;    ///< nodes the tree has at this level
};

/// One timed phase copied from the query's trace spans.
struct ExplainPhaseRow {
  std::string name;
  int depth = 0;  ///< span nesting depth (root spans are 0)
  std::uint64_t dur_us = 0;
};

/// A completed query's plan report: how the index walk disposed of every
/// entry it tested, what the candidate funnel looked like, and what I/O it
/// cost, against the tree's shape and a sequential-scan baseline.
///
/// Pure data; assembled by core::SearchEngine::ExplainLast() (plus
/// FillExplainPhases for the trace part) and rendered by the functions below.
/// Kept free of engine/index includes so obs/ stays the bottom layer.
struct ExplainReport {
  // --- query identity ---
  std::string kind;            ///< "range" | "knn" | "long_range"
  double eps = 0.0;
  std::uint64_t k = 0;         ///< k-NN only
  std::string prune_strategy;  ///< "eep" | "spheres" | "exact"
  std::uint64_t elapsed_us = 0;

  // --- traversal vs. tree shape ---
  std::size_t tree_height = 0;
  std::uint64_t tree_nodes = 0;
  std::uint64_t nodes_visited = 0;
  std::vector<ExplainLevelRow> levels;  ///< [0] = leaves

  // --- prune waterfall ---
  // Universe: every MBR penetration test the walk performed. Identity
  // (checked by explain_accounted() and the oracle tests):
  //   entries_tested == ep_prunes + bs_prunes + exact_prunes
  //                     + descents + accepted_leaf_entries
  std::uint64_t entries_tested = 0;
  std::uint64_t ep_prunes = 0;     ///< entering/exiting-point slab rejects
  std::uint64_t bs_prunes = 0;     ///< bounding-sphere outer rejects
  std::uint64_t exact_prunes = 0;  ///< exact line-MBR distance rejects
  std::uint64_t descents = 0;      ///< internal entries accepted (descended)
  /// Leaf entries accepted *by a penetration test* (box-leaf mode; 0 in
  /// point mode, where leaf points are screened by PLD instead).
  std::uint64_t accepted_leaf_entries = 0;
  std::uint64_t mbr_distance_evals = 0;

  // --- candidate funnel ---
  std::uint64_t indexed_windows = 0;
  std::uint64_t leaf_candidates = 0;  ///< index survivors (tree entries)
  std::uint64_t candidates = 0;       ///< windows verified after expansion
  std::uint64_t postfiltered = 0;     ///< of those, discarded by verification
  std::uint64_t matches = 0;

  // --- buffer pool / I/O ---
  std::uint64_t index_page_reads = 0;
  std::uint64_t index_page_hits = 0;
  std::uint64_t index_page_misses = 0;
  std::uint64_t data_page_reads = 0;

  // --- sequential-scan baseline (speedup attribution) ---
  /// Pages a full sequential scan of the raw data would read.
  std::uint64_t seq_scan_pages = 0;

  // --- cost attribution: the two figures not already rows above ---
  /// CPU time the query burned on its own thread (CLOCK_THREAD_CPUTIME_ID).
  std::uint64_t cpu_us = 0;
  /// Every counted page read (index + data) times the fixed page size.
  std::uint64_t bytes_touched = 0;

  // --- phases (from the query trace; may be empty) ---
  std::vector<ExplainPhaseRow> phases;
};

/// True iff the prune waterfall accounts for every tested entry (see the
/// identity above). Reports built from a telemetry-enabled walk satisfy it.
bool explain_accounted(const ExplainReport& report);

/// Folds per-partition reports of ONE logical query (the shard fan-out) into
/// a single report. Every counter in the waterfall, funnel, I/O and baseline
/// sections is summed — the waterfall identity is linear, so the merged
/// report satisfies explain_accounted() whenever every part does. Tree shape
/// rows are summed level-by-level (height = max over parts), elapsed_us is
/// the max (the parts ran concurrently), and the query identity is taken
/// from the first part. Phases are dropped: per-shard span timelines overlap
/// and a concatenation would be misleading. Empty input yields a default
/// report.
ExplainReport MergeExplainReports(const std::vector<ExplainReport>& parts);

/// Copies the spans of `trace` into report.phases (name, depth, duration).
void FillExplainPhases(const QueryTrace& trace, ExplainReport* report);

/// Human-readable plan report (fixed-width tables; deterministic for golden
/// tests given a deterministic report).
std::string RenderExplainText(const ExplainReport& report);

/// Appends the report's cost object,
///   {"cpu_us":..,"pages_hit":..,"pages_miss":..,"data_pages":..,
///    "bytes_touched":..,"candidates_verified":..}
/// rendered from its I/O and funnel rows plus cpu_us and bytes_touched.
/// RenderExplainJson embeds it as "cost", and so does each flight record.
void AppendExplainCostJson(const ExplainReport& report, std::string* out);

/// Machine-readable report:
///   {"schema_version":1,"report":"explain","query":{...},"totals":{...},
///    "levels":[...],"io":{...},"baseline":{...},"cost":{...},"phases":[...]}
/// Validated by tools/bench_schema_check --schema explain.
std::string RenderExplainJson(const ExplainReport& report);

}  // namespace tsss::obs

#endif  // TSSS_OBS_EXPLAIN_H_

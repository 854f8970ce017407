#include "tsss/core/engine.h"

namespace tsss::core {

namespace {

const char* PruneName(geom::PruneStrategy strategy) {
  switch (strategy) {
    case geom::PruneStrategy::kEepOnly:
      return "eep";
    case geom::PruneStrategy::kBoundingSpheres:
      return "spheres";
    case geom::PruneStrategy::kExactDistance:
      return "exact";
  }
  return "unknown";
}

}  // namespace

Result<obs::ExplainReport> SearchEngine::ExplainFromStats(
    const std::string& kind, double eps, std::uint64_t k,
    std::uint64_t elapsed_us, const QueryStats& stats) const {
  Result<index::StructuralStats> shape = tree_->ComputeStructuralStats();
  if (!shape.ok()) return shape.status();

  obs::ExplainReport r;
  r.kind = kind;
  r.eps = eps;
  r.k = k;
  r.prune_strategy = PruneName(config_.prune);
  r.elapsed_us = elapsed_us;

  const obs::QueryTelemetry& t = stats.telemetry;
  r.tree_height = shape->height;
  r.tree_nodes = shape->node_count;
  r.nodes_visited = t.nodes_visited;
  r.levels.resize(shape->height);
  for (std::size_t l = 0; l < shape->height; ++l) {
    r.levels[l].level = l;
    r.levels[l].visited =
        l < obs::QueryTelemetry::kMaxLevels ? t.nodes_per_level[l] : 0;
    r.levels[l].total = shape->levels[l].nodes;
  }

  r.entries_tested = t.entries_tested;
  r.ep_prunes = t.ep_prunes;
  r.bs_prunes = t.bs_prunes;
  r.exact_prunes = t.exact_prunes;
  // A penetration "visit" is an accepted entry. In box-leaf mode leaf
  // entries run the same penetration test as internal ones, so the accepted
  // pool splits into descents (internal) and index survivors (leaf). In
  // point mode leaf points are screened by PLD instead and never enter the
  // tested universe, so every accept is a descent. (k-NN takes the
  // best-first path, which collects no PenetrationStats; its waterfall is
  // all zeros and the identity holds trivially.)
  const std::uint64_t accepted = stats.penetration.visits;
  if (tree_->config().box_leaves) {
    r.accepted_leaf_entries =
        t.leaf_candidates <= accepted ? t.leaf_candidates : accepted;
    r.descents = accepted - r.accepted_leaf_entries;
  } else {
    r.descents = accepted;
  }
  r.mbr_distance_evals = t.mbr_distance_evals;

  r.indexed_windows = indexed_windows_;
  r.leaf_candidates = t.leaf_candidates;
  r.candidates = stats.candidates;
  r.postfiltered = t.candidates_postfiltered;
  r.matches = stats.matches;

  r.index_page_reads = stats.index_page_reads;
  r.index_page_misses = stats.index_page_misses;
  r.index_page_hits = stats.index_page_reads >= stats.index_page_misses
                          ? stats.index_page_reads - stats.index_page_misses
                          : 0;
  r.data_page_reads = stats.data_page_reads;

  r.seq_scan_pages = dataset_.store().TotalPages();
  r.cost = DeriveQueryCost(stats);
  return r;
}

Result<obs::ExplainReport> SearchEngine::ExplainLast() const {
  std::optional<LastQuery> last;
  {
    MutexLock lock(last_query_mu_);
    last = last_query_;
  }
  if (!last.has_value()) {
    return Status::NotFound(
        "no telemetry-enabled query has run on this engine yet (pass a "
        "QueryStats or install a trace, then query again)");
  }

  Result<obs::ExplainReport> report =
      ExplainFromStats(last->kind, last->eps, last->k, last->elapsed_us,
                       last->stats);
  if (report.ok()) {
    // The snapshot remembers the strategy the query actually ran with, which
    // can differ from the engine's *current* one after set_prune_strategy.
    report->prune_strategy = PruneName(last->prune);
  }
  return report;
}

}  // namespace tsss::core

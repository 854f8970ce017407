#ifndef TSSS_PERFBENCH_LAYERS_H_
#define TSSS_PERFBENCH_LAYERS_H_

// The traced run's view of one query: SearchEngine::RangeQuery and Knn
// re-assembled from the public calls of each layer, with a span around each
// call. The pieces must give the engine's own answer and QueryStats counts;
// perfbench.cc checks that for every traced operation.
//
// Layer boundaries, named after the modules they live in:
//   reduce  SearchEngine::ReducedQueryLine + core::QueryContext
//   index   RTree::LineQuery (range) / LineNeighborIterator::Next (k-NN)
//   core    the candidate loop: SequenceStore reads + VerifyCandidate/Align

#include <cstdint>
#include <vector>

#include "harness.h"
#include "tsss/core/engine.h"

namespace perfbench {

/// What one decomposed query did, per layer. Times are nanoseconds.
struct LayerSample {
  std::int64_t prep_ns = 0;    ///< reduce
  std::int64_t index_ns = 0;   ///< LineQuery, or the sum of Next() calls
  std::int64_t verify_ns = 0;  ///< range: expand + read + verify loop
  std::uint64_t nodes = 0;       ///< pool logical reads (node fetches)
  std::uint64_t leaf_hits = 0;   ///< leaf entries returned by the index
  std::uint64_t candidates = 0;  ///< windows verified
  std::uint64_t matches = 0;
  std::uint64_t data_pages = 0;
  std::uint64_t entries_tested = 0;  ///< penetration tests (range only)
  std::uint64_t entries_visited = 0;
};

/// Range query through the layers. `records`, when non-null, receives the
/// sorted verification candidates (the probes reuse them).
tsss::Result<std::vector<tsss::core::Match>> LayeredRange(
    const tsss::core::SearchEngine& engine, std::span<const double> query,
    double eps, SpanLog* log, std::uint64_t op, std::int64_t parent,
    LayerSample* sample, std::vector<tsss::index::RecordId>* records);

/// k-NN through the layers (GEMINI multi-step search, as in the engine).
tsss::Result<std::vector<tsss::core::Match>> LayeredKnn(
    const tsss::core::SearchEngine& engine, std::span<const double> query,
    std::size_t k, SpanLog* log, std::uint64_t op, std::int64_t parent,
    LayerSample* sample);

/// Exact equality of the decomposed counts with the engine's QueryStats.
/// `range` adds the penetration counters, which only range queries fill.
bool SameCounts(const LayerSample& sample, const tsss::core::QueryStats& stats,
                bool range);

/// Microbenchmarks of single layer calls over a workload's own index pages
/// and candidates. Each is the median over rounds of ns per call.
struct ProbeResult {
  double fetch_hit_ns = 0.0;
  double fetch_miss_ns = 0.0;
  double node_decode_ns = 0.0;
  double read_window_ns = 0.0;
  double align_ns = 0.0;
};

/// One traced range query's candidates, kept for the read/align probes.
struct CandidateSet {
  std::vector<double> query;
  double eps = 0.0;
  std::vector<tsss::index::RecordId> records;
};

/// Runs the probes on `engine`, which no other thread may be using: the
/// miss probe clears its buffer pool.
tsss::Result<ProbeResult> RunProbes(tsss::core::SearchEngine& engine,
                                    const std::vector<CandidateSet>& sets);

}  // namespace perfbench

#endif  // TSSS_PERFBENCH_LAYERS_H_

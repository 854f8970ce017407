#ifndef TSSS_INDEX_RTREE_H_
#define TSSS_INDEX_RTREE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "tsss/common/exec_control.h"
#include "tsss/common/status.h"
#include "tsss/geom/line.h"
#include "tsss/geom/mbr.h"
#include "tsss/geom/penetration.h"
#include "tsss/index/node.h"
#include "tsss/index/split.h"
#include "tsss/storage/buffer_pool.h"

namespace tsss::index {

/// Construction parameters of an RTree. Defaults reproduce the paper's
/// experimental setting (Section 7): 4 KiB pages, one node per page, M = 20,
/// m = 40% of M = 8, R* forced-reinsert p = 30% of M = 6.
struct RTreeConfig {
  std::size_t dim = 6;            ///< dimensionality of indexed points
  std::size_t max_entries = 20;   ///< M for internal nodes (capped by page)
  /// Leaf entries carry full boxes instead of points (sub-trail MBR mode,
  /// following the ST-index [2]). Line queries then report every record
  /// whose box passes the eps-penetration test.
  bool box_leaves = false;
  /// Max entries per leaf. 0 (default) = as many as fit the page, matching
  /// the paper's setup where M = 20 governs *internal* nodes while leaf
  /// pages pack point entries densely.
  std::size_t leaf_max_entries = 0;
  double min_fill_fraction = 0.4; ///< m = max(1, floor(fraction * capacity))
  SplitAlgorithm split = SplitAlgorithm::kRStar;
  /// Fraction of the node capacity removed on forced reinsertion
  /// (R* only; 0 disables).
  double reinsert_fraction = 0.3;

  std::size_t min_entries() const { return MinFillOf(max_entries); }
  std::size_t reinsert_count() const { return ReinsertOf(max_entries); }

  std::size_t MinFillOf(std::size_t capacity) const {
    const auto m = static_cast<std::size_t>(min_fill_fraction *
                                            static_cast<double>(capacity));
    return m < 1 ? 1 : m;
  }
  std::size_t ReinsertOf(std::size_t capacity) const {
    return static_cast<std::size_t>(reinsert_fraction *
                                    static_cast<double>(capacity));
  }
};

/// A match produced by a line query: the record plus its point's distance to
/// the query line in the *indexed* (reduced) space.
struct LineMatch {
  RecordId record = 0;
  double reduced_distance = 0.0;
};

/// Statistics describing tree shape; see ComputeStats().
struct TreeStats {
  std::size_t height = 0;          ///< number of levels (1 = root is a leaf)
  std::size_t node_count = 0;      ///< logical nodes
  std::size_t node_pages = 0;      ///< physical pages (one per node)
  std::size_t leaf_count = 0;
  std::size_t entry_count = 0;     ///< data entries (leaf records)
  double avg_leaf_fill = 0.0;      ///< mean leaf occupancy / M
  double avg_internal_fill = 0.0;
  double total_leaf_mbr_volume = 0.0;
  double total_overlap_volume = 0.0;  ///< pairwise sibling-MBR overlap
  double avg_aspect_ratio = 0.0;      ///< mean (longest side / shortest side)
  double avg_diag_to_min_side = 0.0;  ///< mean (diagonal / shortest side)
};

/// Shape of one tree level, for ComputeStructuralStats(). Level 0 = leaves.
struct LevelStats {
  std::size_t level = 0;
  std::size_t nodes = 0;
  std::size_t entries = 0;      ///< total entries across the level's nodes
  std::size_t min_fanout = 0;
  std::size_t max_fanout = 0;
  double avg_fanout = 0.0;
  /// Mean entries / capacity; capacity is leaf_capacity() for level 0 and
  /// config().max_entries otherwise.
  double avg_occupancy = 0.0;
  /// Node count by occupancy decile; [9] also holds occupancy >= 100%.
  std::size_t occupancy_histogram[10] = {};
  /// Pairwise overlap volume among sibling MBRs, summed over the level's
  /// nodes (the X-tree degradation signal, per node of the level *above*
  /// this one's entries live in - i.e. computed from nodes AT this level
  /// over their own entry boxes).
  double overlap_volume = 0.0;
  /// Mean of max(0, V(node) - sum V(entries)) / V(node) over nodes with
  /// V(node) > 0: how much of each node's box covers no child box. Point
  /// leaves have degenerate entry boxes, so their ratio is 1 by definition.
  double dead_space_ratio = 0.0;
  double margin_sum = 0.0;  ///< sum of node-MBR margins (R* split objective)
};

/// Full structural profile of the tree: TreeStats' totals plus per-level
/// fanout/occupancy histograms, overlap, dead space and margins, and a
/// leaf-depth uniformity check. See ComputeStructuralStats().
struct StructuralStats {
  std::size_t height = 0;
  std::size_t node_count = 0;
  std::size_t entry_count = 0;      ///< data entries (leaf records)
  /// True iff the observed levels are exactly {0, ..., height-1}, the top
  /// level has one node (the root) and each internal level's entry count
  /// equals the node count of the level below - i.e. the tree is height-
  /// balanced with no dangling references.
  bool depth_uniform = false;
  std::vector<LevelStats> levels;  ///< [0] = leaves, [height-1] = root
};

/// Disk-resident R-tree over `dim`-dimensional points with the paper's
/// line-penetration search.
///
/// The tree is a height-balanced hierarchy of 4 KiB nodes managed by a
/// BufferPool; every node access goes through the pool and is counted, which
/// is how the Figure 5 experiment measures page accesses. Supports Guttman
/// (linear/quadratic split) and R* (ChooseSubtree, topological split, forced
/// reinsertion) insertion flavours, deletion with tree condensation, bulk
/// loading (STR), rectangle queries, the paper's line queries, and
/// incremental nearest-line-neighbour iteration.
///
/// Thread-compatibility (DESIGN.md §8): the read path - RangeQuery,
/// LineQuery, LineKnn, PointKnn and NearestLineNeighbors - is const and safe
/// to run from many threads concurrently over one tree, provided no mutation
/// (Insert/Delete/BulkLoad) runs at the same time; the underlying BufferPool
/// is internally synchronized. Mutations keep the single-writer contract.
/// Query methods poll the calling thread's ExecControl (if one is installed)
/// once per node load, so deadlines and cancellation take effect at R-tree
/// node granularity.
class RTree {
 public:
  /// Creates an empty tree whose nodes live in `pool` (must outlive the
  /// tree). Validates the configuration against the page capacity.
  static Result<std::unique_ptr<RTree>> Create(storage::BufferPool* pool,
                                               const RTreeConfig& config);

  /// Re-attaches to a tree whose pages already live in `pool`'s store
  /// (persistence re-open). `root`, `height` and `size` come from the saved
  /// metadata; the root node is loaded to validate them.
  static Result<std::unique_ptr<RTree>> Attach(storage::BufferPool* pool,
                                               const RTreeConfig& config,
                                               storage::PageId root,
                                               std::size_t height,
                                               std::size_t size);

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  /// Inserts a point with the given record id. Duplicates are allowed.
  Status Insert(std::span<const double> point, RecordId record);

  /// Inserts a box entry (requires config.box_leaves).
  Status InsertBox(const geom::Mbr& box, RecordId record);

  /// Removes one entry matching (point, record).
  /// Returns NotFound if no such entry exists.
  Status Delete(std::span<const double> point, RecordId record);

  /// Removes one box entry matching (box, record).
  Status DeleteBox(const geom::Mbr& box, RecordId record);

  /// Bulk loads (replaces) the tree contents with Sort-Tile-Recursive
  /// packing. Much faster than repeated Insert and produces a well-shaped
  /// tree; records currently in the tree are discarded.
  Status BulkLoad(std::vector<Entry> points);

  /// All records whose point intersects `box`.
  Result<std::vector<RecordId>> RangeQuery(const geom::Mbr& box) const;

  /// The paper's search (Section 6): all records whose indexed point lies
  /// within `eps` of `line`, visiting only subtrees admitted by `strategy`
  /// (Theorem 3 guarantees no false dismissal). `stats` may be null.
  Result<std::vector<LineMatch>> LineQuery(const geom::Line& line, double eps,
                                           geom::PruneStrategy strategy,
                                           geom::PenetrationStats* stats) const;

  /// The k records whose points are nearest to `line` in reduced distance,
  /// in increasing order (branch-and-bound best-first search).
  Result<std::vector<LineMatch>> LineKnn(const geom::Line& line,
                                         std::size_t k) const;

  /// Classic k-nearest-neighbour search around a point (best-first search
  /// with MinDist pruning). Distances are Euclidean in the indexed space;
  /// for box leaves the distance is point-to-box.
  Result<std::vector<LineMatch>> PointKnn(std::span<const double> point,
                                          std::size_t k) const;

  /// Incremental nearest-line-neighbour iterator: yields records in
  /// non-decreasing reduced distance to the query line. Used by the engine's
  /// exact k-NN (GEMINI-style multi-step search).
  class LineNeighborIterator {
   public:
    /// Returns the next nearest match, or nullopt when exhausted.
    Result<std::optional<LineMatch>> Next();

   private:
    friend class RTree;
    struct QueueItem {
      double distance;
      bool is_record;
      storage::PageId page;
      LineMatch match;
      bool operator>(const QueueItem& other) const {
        return distance > other.distance;
      }
    };
    LineNeighborIterator(const RTree* tree, geom::Line line);

    const RTree* tree_;
    geom::Line line_;
    /// Entry corners and LineMbrDistance breakpoints, sized once per
    /// iterator (4 * dim) so Next() allocates nothing per entry.
    geom::Vec scratch_;
    std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> heap_;
  };
  LineNeighborIterator NearestLineNeighbors(const geom::Line& line) const;

  /// Number of data entries in the tree.
  std::size_t size() const { return size_; }
  /// Levels in the tree; 1 when the root is a leaf.
  std::size_t height() const { return height_; }
  /// Resolved max entries for leaf nodes (config value or page capacity).
  std::size_t leaf_capacity() const { return leaf_max_; }
  /// Page of the root node (persisted by the engine's checkpoint).
  storage::PageId root_page() const { return root_; }
  const RTreeConfig& config() const { return config_; }
  storage::BufferPool* pool() { return pool_; }

  /// Walks the whole tree and validates structural invariants:
  ///  * parent MBRs tightly contain (equal) the union of their children,
  ///  * fanout within [m, M] for non-roots, internal root has >= 2 entries,
  ///  * uniform leaf depth (every root-to-leaf path has length `height`),
  ///  * total leaf entry count matches size(),
  ///  * every box has matching dimensionality, finite coordinates and
  ///    lo <= hi; point-mode leaves hold degenerate boxes,
  ///  * internal entries reference valid child pages.
  /// O(n) full-tree walk - used by tests after every mutation and by the
  /// engine's consistency checks, not on query hot paths.
  Status ValidateInvariants();

  /// Walks the whole tree and gathers shape statistics.
  Result<TreeStats> ComputeStats() const;

  /// Walks the whole tree and gathers the full structural profile (per-level
  /// histograms, overlap, dead space, depth check). Const and read-only like
  /// ComputeStats(); an O(n + sum fanout^2) walk for diagnostics, not for
  /// query hot paths.
  Result<StructuralStats> ComputeStructuralStats() const;

  /// Calls `fn(node, page_id)` for every node, top-down. Exposed for the
  /// stats/ablation tooling. Read-only (queries may run concurrently).
  Status VisitNodes(
      const std::function<void(const Node&, storage::PageId)>& fn) const;

 private:
  RTree(storage::BufferPool* pool, const RTreeConfig& config);

  struct PathStep {
    storage::PageId page = storage::kInvalidPageId;
    /// Index of this node's entry within its parent (undefined for root).
    std::size_t index_in_parent = 0;
  };

  /// The read path's node walk: polls the thread's ExecControl (deadline/
  /// cancel), pins the node's page (counted) and calls `fn(const NodeView&)`
  /// while it is pinned. The view must not escape `fn`. Const and
  /// concurrency-safe: reads only immutable tree state plus the internally
  /// synchronized pool.
  template <typename Fn>
  Status ScanNode(storage::PageId id, Fn&& fn) const;
  /// Loads a node into owned form (the write path and whole-tree walks);
  /// ScanNode with every entry decoded.
  Result<Node> LoadNode(storage::PageId id) const;
  /// Overwrites the node stored at page `id`.
  Status StoreNode(storage::PageId id, const Node& node);
  /// Allocates a page for a brand-new node and writes it; returns its id.
  Result<storage::PageId> StoreNewNode(const Node& node);

  /// Capacity / fill bounds for a node of the given kind.
  std::size_t MaxFor(const Node& node) const {
    return node.is_leaf() ? leaf_max_ : config_.max_entries;
  }
  std::size_t MinFor(const Node& node) const {
    return config_.MinFillOf(MaxFor(node));
  }

  /// Descends from the root to the best node at `target_level` for `mbr`
  /// (R* ChooseSubtree or Guttman ChooseLeaf depending on config).
  Result<std::vector<PathStep>> ChoosePath(const geom::Mbr& mbr,
                                           std::uint16_t target_level);

  /// Core insertion of an entry at a level; drives overflow treatment.
  Status InsertEntry(Entry entry, std::uint16_t target_level,
                     std::vector<bool>& reinserted_at_level);

  /// Handles MBR updates and overflows along `path` bottom-up.
  Status PropagateUp(std::vector<PathStep> path,
                     std::vector<bool>& reinserted_at_level);

  /// Removes the `count` entries farthest from the node's MBR center and
  /// returns them (R* forced reinsertion).
  std::vector<Entry> TakeFarthestEntries(Node* node, std::size_t count);

  /// Grows the tree by one level: old root and `sibling` become children of
  /// a fresh root.
  Status GrowRoot(Entry old_root_entry, Entry sibling_entry);

  /// Depth-first search for the leaf containing (point, record).
  Result<std::optional<std::vector<PathStep>>> FindLeaf(
      storage::PageId page, std::uint16_t level, const geom::Mbr& target,
      RecordId record, std::vector<PathStep>& path);

  /// Removes under-full nodes along the path after a deletion, collecting
  /// orphaned entries for reinsertion.
  Status CondenseTree(std::vector<PathStep> path);

  Status CheckNode(storage::PageId page, std::uint16_t expected_level,
                   const geom::Mbr* parent_box, bool is_root,
                   std::size_t* entries_seen);

  storage::BufferPool* pool_;
  RTreeConfig config_;
  NodeCodec codec_;
  storage::PageId root_ = storage::kInvalidPageId;
  std::size_t leaf_max_ = 0;
  std::size_t size_ = 0;
  std::size_t height_ = 1;
};

template <typename Fn>
Status RTree::ScanNode(storage::PageId id, Fn&& fn) const {
  // Cooperative cancellation: the query service bounds requests with a
  // deadline; one check per node keeps the granularity coarse enough to be
  // free and fine enough that a runaway query unwinds promptly.
  Status polled = PollExecControl();
  if (!polled.ok()) return polled;
  Result<storage::PageGuard> guard = pool_->Fetch(id);
  if (!guard.ok()) return guard.status();
  Result<NodeView> view = codec_.View(guard->page());
  if (!view.ok()) return view.status();
  fn(*view);
  return Status::OK();
}

/// Publishes the headline numbers of `stats` as tsss_tree_* gauges in the
/// global MetricsRegistry (height, nodes, entries, occupancy and
/// dead-space permille). Idempotent: gauges are set, not accumulated.
void RegisterStructuralGauges(const StructuralStats& stats);

}  // namespace tsss::index

#endif  // TSSS_INDEX_RTREE_H_

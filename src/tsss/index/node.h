#ifndef TSSS_INDEX_NODE_H_
#define TSSS_INDEX_NODE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "tsss/common/status.h"
#include "tsss/geom/mbr.h"
#include "tsss/storage/page.h"

namespace tsss::index {

/// Opaque record identifier stored in leaf entries. The engine packs
/// (series id, window offset) into it; the index never interprets it.
using RecordId = std::uint64_t;

/// One slot of an R-tree node.
///
/// Internal nodes hold <child page, MBR> pairs; leaf nodes hold
/// <record id, point> pairs (paper, Section 6). In memory a leaf point is
/// represented as a degenerate MBR (lo == hi) so that the split algorithms
/// work on both node kinds unchanged.
struct Entry {
  geom::Mbr mbr;
  storage::PageId child = storage::kInvalidPageId;  ///< internal entries only
  RecordId record = 0;                              ///< leaf entries only

  static Entry ForChild(storage::PageId child, geom::Mbr mbr) {
    Entry e{std::move(mbr), child, 0};
    return e;
  }
  static Entry ForRecord(RecordId record, std::span<const double> point) {
    Entry e{geom::Mbr::FromPoint(point), storage::kInvalidPageId, record};
    return e;
  }
};

/// Decoded R-tree node. level == 0 means leaf; the root has the highest
/// level. A node always fits in one 4 KiB page (enforced by NodeCodec).
struct Node {
  std::uint16_t level = 0;
  std::vector<Entry> entries;

  bool is_leaf() const { return level == 0; }
  std::size_t size() const { return entries.size(); }

  /// Tight bounding box over all entries.
  geom::Mbr ComputeMbr(std::size_t dim) const;
};

/// Read-only view of one node page, read in place: the query read path's
/// alternative to decoding the page into a Node.
///
/// NodeCodec::View validates the header and every coordinate before it
/// hands out a view, so a view only ever describes a well-formed page (the
/// same pages Decode accepts). The view borrows the page bytes and owns
/// nothing; it is valid only while the page stays pinned, so bind it from a
/// named PageGuard and let it die with the guard's scope.
class NodeView {
 public:
  std::uint16_t level() const { return level_; }
  bool is_leaf() const { return level_ == 0; }
  std::size_t size() const { return count_; }

  /// Child page of entry k (internal nodes).
  storage::PageId child(std::size_t k) const {
    return Load<storage::PageId>(EntryAt(k));
  }
  /// Record id of entry k (leaf nodes).
  RecordId record(std::size_t k) const { return Load<RecordId>(EntryAt(k)); }

  /// Copies entry k's box into `lo` and `hi` (each dim doubles). A point
  /// entry yields lo == hi. The coordinates sit at unaligned offsets, hence
  /// the copy into caller scratch rather than a span over the page.
  void Corners(std::size_t k, std::span<double> lo, std::span<double> hi) const {
    // TSSS_HOT_BEGIN(node_view_corners) — once per entry a query reads.
    const std::uint8_t* at = EntryAt(k) + id_bytes_;
    const std::size_t bytes = dim_ * sizeof(double);
    std::memcpy(lo.data(), at, bytes);
    std::memcpy(hi.data(), has_box_ ? at + bytes : at, bytes);
    // TSSS_HOT_END(node_view_corners)
  }

  /// Decodes every entry into owned form, appended to `out` (the write
  /// path's Node; Decode and RTree::LoadNode both end here).
  void AppendEntries(std::vector<Entry>* out) const;

 private:
  friend class NodeCodec;
  NodeView() = default;

  const std::uint8_t* EntryAt(std::size_t k) const {
    return entries_ + k * entry_bytes_;
  }
  template <typename T>
  static T Load(const std::uint8_t* at) {
    T value;
    std::memcpy(&value, at, sizeof(T));
    return value;
  }

  const std::uint8_t* entries_ = nullptr;
  std::size_t entry_bytes_ = 0;
  std::size_t id_bytes_ = 0;  ///< child (u32) or record (u64) before the box
  std::size_t dim_ = 0;
  std::size_t count_ = 0;
  std::uint16_t level_ = 0;
  bool has_box_ = false;
};

/// Fixed-layout serializer between Nodes and 4 KiB pages, one node per page.
///
/// Layout (little-endian, host representation for doubles):
///   header:  magic u16 | level u16 | count u16 | dim u16 | flags u16 |
///            reserved u32 (always kInvalidPageId)
///   internal entry: child u32 | lo[dim] f64 | hi[dim] f64
///   leaf entry:     record u64 | point[dim] f64            (point leaves)
///   leaf entry:     record u64 | lo[dim] f64 | hi[dim] f64 (box leaves)
class NodeCodec {
 public:
  /// `box_leaves` selects the leaf entry layout: false = point entries
  /// (record + point, the paper's default), true = box entries
  /// (record + lo + hi, used for sub-trail MBR leaves following the
  /// ST-index of Faloutsos et al. [2]).
  explicit NodeCodec(std::size_t dim, bool box_leaves = false);

  std::size_t dim() const { return dim_; }
  bool box_leaves() const { return box_leaves_; }

  /// Hard per-page capacity limits imposed by the page size.
  std::size_t max_internal_entries() const { return max_internal_; }
  std::size_t max_leaf_entries() const { return max_leaf_; }

  /// Serializes `node` into `page`. Fails with ResourceExhausted if the node
  /// exceeds the page capacity for its kind.
  Status Encode(const Node& node, storage::Page* page) const;

  /// Deserializes one node page: View plus an owned copy of every entry.
  Result<Node> Decode(const storage::Page& page) const;

  /// Validates one node page in place and returns a view over `page`,
  /// without copying it. Accepts and rejects exactly the pages Decode does,
  /// with the same Status. The view is valid while `page` is pinned.
  Result<NodeView> View(const storage::Page& page) const;

 private:
  std::size_t dim_;
  bool box_leaves_;
  std::size_t max_internal_;
  std::size_t max_leaf_;
};

}  // namespace tsss::index

#endif  // TSSS_INDEX_NODE_H_

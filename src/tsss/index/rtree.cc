#include "tsss/index/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

namespace tsss::index {

namespace {

/// Upper bound on tree height used to size per-insert bookkeeping. A tree
/// with branching factor >= 2 and 2^48 entries stays far below this.
constexpr std::size_t kMaxHeight = 64;

}  // namespace

RTree::RTree(storage::BufferPool* pool, const RTreeConfig& config)
    : pool_(pool), config_(config), codec_(config.dim, config.box_leaves) {}

namespace {

/// Shared validation for Create/Attach; returns the resolved leaf capacity.
Result<std::size_t> ValidateConfig(const RTreeConfig& config) {
  if (config.dim == 0) {
    return Status::InvalidArgument("RTree dim must be positive");
  }
  NodeCodec codec(config.dim, config.box_leaves);
  if (config.max_entries < 2) {
    return Status::InvalidArgument("RTree max_entries must be >= 2");
  }
  if (config.max_entries + 1 > codec.max_internal_entries()) {
    return Status::InvalidArgument(
        "RTree max_entries " + std::to_string(config.max_entries) +
        " exceeds internal page capacity " +
        std::to_string(codec.max_internal_entries()) +
        " (need M+1 slots) for dim " + std::to_string(config.dim));
  }
  std::size_t leaf_max = config.leaf_max_entries;
  if (leaf_max == 0) {
    leaf_max = codec.max_leaf_entries() - 1;
  }
  if (leaf_max < 2 || leaf_max + 1 > codec.max_leaf_entries()) {
    return Status::InvalidArgument(
        "RTree leaf_max_entries " + std::to_string(leaf_max) +
        " out of range for leaf page capacity " +
        std::to_string(codec.max_leaf_entries()));
  }
  return leaf_max;
}

}  // namespace

Result<std::unique_ptr<RTree>> RTree::Create(storage::BufferPool* pool,
                                             const RTreeConfig& config) {
  Result<std::size_t> leaf_max = ValidateConfig(config);
  if (!leaf_max.ok()) return leaf_max.status();
  auto tree = std::unique_ptr<RTree>(new RTree(pool, config));
  tree->leaf_max_ = *leaf_max;
  // Allocate the (initially empty leaf) root.
  Result<storage::PageId> root = tree->StoreNewNode(Node{});
  if (!root.ok()) return root.status();
  tree->root_ = *root;
  return tree;
}

Result<std::unique_ptr<RTree>> RTree::Attach(storage::BufferPool* pool,
                                             const RTreeConfig& config,
                                             storage::PageId root,
                                             std::size_t height,
                                             std::size_t size) {
  Result<std::size_t> leaf_max = ValidateConfig(config);
  if (!leaf_max.ok()) return leaf_max.status();
  if (height == 0) {
    return Status::InvalidArgument("attached tree height must be >= 1");
  }
  auto tree = std::unique_ptr<RTree>(new RTree(pool, config));
  tree->leaf_max_ = *leaf_max;
  tree->root_ = root;
  tree->height_ = height;
  tree->size_ = size;
  // Validate the root page decodes and its level matches the height.
  Result<Node> root_node = tree->LoadNode(root);
  if (!root_node.ok()) return root_node.status();
  if (root_node->level != height - 1) {
    return Status::Corruption("attached root level " +
                              std::to_string(root_node->level) +
                              " does not match height " + std::to_string(height));
  }
  return tree;
}

Result<Node> RTree::LoadNode(storage::PageId id) const {
  Node node;
  Status s = ScanNode(id, [&node](const NodeView& view) {
    node.level = view.level();
    view.AppendEntries(&node.entries);
  });
  if (!s.ok()) return s;
  return node;
}

Status RTree::StoreNode(storage::PageId id, const Node& node) {
  Result<storage::PageGuard> guard = pool_->Fetch(id);
  if (!guard.ok()) return guard.status();
  return codec_.Encode(node, &guard->MutablePage());
}

Result<storage::PageId> RTree::StoreNewNode(const Node& node) {
  Result<storage::PageGuard> guard = pool_->New();
  if (!guard.ok()) return guard.status();
  Status s = codec_.Encode(node, &guard->MutablePage());
  if (!s.ok()) return s;
  return guard->id();
}

Result<std::vector<RTree::PathStep>> RTree::ChoosePath(
    const geom::Mbr& mbr, std::uint16_t target_level) {
  std::vector<PathStep> path;
  path.push_back(PathStep{root_, 0});
  Result<Node> node = LoadNode(root_);
  if (!node.ok()) return node.status();
  if (node->level < target_level) {
    return Status::Internal("ChoosePath target level above the root");
  }
  while (node->level > target_level) {
    const bool children_are_leaves = node->level == 1;
    std::size_t best = 0;
    if (children_are_leaves && config_.split == SplitAlgorithm::kRStar) {
      // R* ChooseSubtree at the leaf level: minimise overlap enlargement,
      // ties by volume enlargement, then by volume.
      double best_overlap_growth = std::numeric_limits<double>::infinity();
      double best_vol_growth = std::numeric_limits<double>::infinity();
      double best_vol = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < node->entries.size(); ++i) {
        geom::Mbr grown = node->entries[i].mbr;
        grown.Extend(mbr);
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (std::size_t j = 0; j < node->entries.size(); ++j) {
          if (j == i) continue;
          overlap_before += node->entries[i].mbr.OverlapVolume(node->entries[j].mbr);
          overlap_after += grown.OverlapVolume(node->entries[j].mbr);
        }
        const double overlap_growth = overlap_after - overlap_before;
        const double vol = node->entries[i].mbr.Volume();
        const double vol_growth = grown.Volume() - vol;
        if (overlap_growth < best_overlap_growth ||
            (overlap_growth == best_overlap_growth &&
             (vol_growth < best_vol_growth ||
              (vol_growth == best_vol_growth && vol < best_vol)))) {
          best_overlap_growth = overlap_growth;
          best_vol_growth = vol_growth;
          best_vol = vol;
          best = i;
        }
      }
    } else {
      // Guttman ChooseLeaf / R* above leaf level: minimise volume
      // enlargement, ties by volume.
      double best_vol_growth = std::numeric_limits<double>::infinity();
      double best_vol = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < node->entries.size(); ++i) {
        const double vol = node->entries[i].mbr.Volume();
        const double vol_growth = node->entries[i].mbr.EnlargedVolume(mbr) - vol;
        if (vol_growth < best_vol_growth ||
            (vol_growth == best_vol_growth && vol < best_vol)) {
          best_vol_growth = vol_growth;
          best_vol = vol;
          best = i;
        }
      }
    }
    const storage::PageId child = node->entries[best].child;
    path.push_back(PathStep{child, best});
    node = LoadNode(child);
    if (!node.ok()) return node.status();
  }
  return path;
}

std::vector<Entry> RTree::TakeFarthestEntries(Node* node, std::size_t count) {
  const geom::Mbr box = node->ComputeMbr(config_.dim);
  const geom::Vec center = box.Center();
  std::vector<std::pair<double, std::size_t>> by_dist;
  by_dist.reserve(node->entries.size());
  for (std::size_t i = 0; i < node->entries.size(); ++i) {
    const geom::Vec c = node->entries[i].mbr.Center();
    by_dist.emplace_back(geom::DistanceSquared(c, center), i);
  }
  std::sort(by_dist.begin(), by_dist.end());
  // The `count` farthest entries leave the node; they are returned
  // closest-first, the reinsertion order R* found to work best.
  std::vector<Entry> removed;
  removed.reserve(count);
  std::vector<bool> take(node->entries.size(), false);
  for (std::size_t k = by_dist.size() - count; k < by_dist.size(); ++k) {
    take[by_dist[k].second] = true;
  }
  for (std::size_t k = by_dist.size() - count; k < by_dist.size(); ++k) {
    removed.push_back(node->entries[by_dist[k].second]);
  }
  std::reverse(removed.begin(), removed.end());  // closest of the removed first
  std::vector<Entry> kept;
  kept.reserve(node->entries.size() - count);
  for (std::size_t i = 0; i < node->entries.size(); ++i) {
    if (!take[i]) kept.push_back(std::move(node->entries[i]));
  }
  node->entries = std::move(kept);
  return removed;
}

Status RTree::GrowRoot(Entry old_root_entry, Entry sibling_entry) {
  Node new_root;
  new_root.level = static_cast<std::uint16_t>(height_);
  new_root.entries.push_back(std::move(old_root_entry));
  new_root.entries.push_back(std::move(sibling_entry));
  Result<storage::PageId> page = StoreNewNode(new_root);
  if (!page.ok()) return page.status();
  root_ = *page;
  ++height_;
  return Status::OK();
}

Status RTree::PropagateUp(std::vector<PathStep> path,
                          std::vector<bool>& reinserted_at_level) {
  std::vector<std::pair<Entry, std::uint16_t>> pending;

  for (std::size_t i = path.size(); i-- > 0;) {
    Result<Node> node = LoadNode(path[i].page);
    if (!node.ok()) return node.status();
    std::optional<Entry> sibling;

    if (node->entries.size() > MaxFor(*node)) {
      const bool is_root = i == 0;
      const std::size_t p = RTreeConfig::ReinsertOf(MaxFor(*node));
      const bool can_reinsert = !is_root && p > 0 &&
                                config_.split == SplitAlgorithm::kRStar &&
                                node->level < reinserted_at_level.size() &&
                                !reinserted_at_level[node->level];
      if (can_reinsert) {
        reinserted_at_level[node->level] = true;
        std::vector<Entry> removed = TakeFarthestEntries(&*node, p);
        for (Entry& e : removed) {
          pending.emplace_back(std::move(e), node->level);
        }
      } else {
        SplitResult split = SplitEntries(std::move(node->entries), config_.dim,
                                         MinFor(*node), config_.split);
        node->entries = std::move(split.left);
        Node right;
        right.level = node->level;
        right.entries = std::move(split.right);
        Result<storage::PageId> right_page = StoreNewNode(right);
        if (!right_page.ok()) return right_page.status();
        sibling = Entry::ForChild(*right_page, right.ComputeMbr(config_.dim));
      }
    }

    Status s = StoreNode(path[i].page, *node);
    if (!s.ok()) return s;

    if (i == 0) {
      if (sibling.has_value()) {
        Entry old_root_entry =
            Entry::ForChild(path[0].page, node->ComputeMbr(config_.dim));
        s = GrowRoot(std::move(old_root_entry), std::move(*sibling));
        if (!s.ok()) return s;
      }
      break;
    }

    Result<Node> parent = LoadNode(path[i - 1].page);
    if (!parent.ok()) return parent.status();
    if (path[i].index_in_parent >= parent->entries.size() ||
        parent->entries[path[i].index_in_parent].child != path[i].page) {
      return Status::Internal("path/parent mismatch during propagation");
    }
    parent->entries[path[i].index_in_parent].mbr = node->ComputeMbr(config_.dim);
    if (sibling.has_value()) parent->entries.push_back(std::move(*sibling));
    s = StoreNode(path[i - 1].page, *parent);
    if (!s.ok()) return s;
  }

  for (auto& [entry, level] : pending) {
    Status s = InsertEntry(std::move(entry), level, reinserted_at_level);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status RTree::InsertEntry(Entry entry, std::uint16_t target_level,
                          std::vector<bool>& reinserted_at_level) {
  Result<std::vector<PathStep>> path = ChoosePath(entry.mbr, target_level);
  if (!path.ok()) return path.status();
  Result<Node> node = LoadNode(path->back().page);
  if (!node.ok()) return node.status();
  node->entries.push_back(std::move(entry));
  // An overfull node (M+1 entries) still fits the page: Create() enforces
  // M+1 <= page capacity, and PropagateUp resolves the overflow next.
  Status s = StoreNode(path->back().page, *node);
  if (!s.ok()) return s;
  return PropagateUp(std::move(*path), reinserted_at_level);
}

Status RTree::Insert(std::span<const double> point, RecordId record) {
  if (point.size() != config_.dim) {
    return Status::InvalidArgument("point dim " + std::to_string(point.size()) +
                                   " != tree dim " + std::to_string(config_.dim));
  }
  std::vector<bool> reinserted(kMaxHeight, false);
  Status s = InsertEntry(Entry::ForRecord(record, point), 0, reinserted);
  if (!s.ok()) return s;
  ++size_;
  return Status::OK();
}

Status RTree::InsertBox(const geom::Mbr& box, RecordId record) {
  if (!config_.box_leaves) {
    return Status::FailedPrecondition(
        "InsertBox requires a tree configured with box_leaves");
  }
  if (box.dim() != config_.dim || box.empty()) {
    return Status::InvalidArgument("box dim mismatch or empty box");
  }
  Entry e;
  e.mbr = box;
  e.record = record;
  std::vector<bool> reinserted(kMaxHeight, false);
  Status s = InsertEntry(std::move(e), 0, reinserted);
  if (!s.ok()) return s;
  ++size_;
  return Status::OK();
}

Result<std::optional<std::vector<RTree::PathStep>>> RTree::FindLeaf(
    storage::PageId page, std::uint16_t level, const geom::Mbr& target,
    RecordId record, std::vector<PathStep>& path) {
  Result<Node> node = LoadNode(page);
  if (!node.ok()) return node.status();
  if (node->is_leaf()) {
    for (const Entry& e : node->entries) {
      if (e.record == record && e.mbr == target) {
        return std::optional<std::vector<PathStep>>(path);
      }
    }
    return std::optional<std::vector<PathStep>>();
  }
  for (std::size_t i = 0; i < node->entries.size(); ++i) {
    const Entry& e = node->entries[i];
    if (!e.mbr.Contains(target)) continue;
    path.push_back(PathStep{e.child, i});
    Result<std::optional<std::vector<PathStep>>> found =
        FindLeaf(e.child, static_cast<std::uint16_t>(level - 1), target, record,
                 path);
    if (!found.ok()) return found.status();
    if (found->has_value()) return found;
    path.pop_back();
  }
  return std::optional<std::vector<PathStep>>();
}

Status RTree::CondenseTree(std::vector<PathStep> path) {
  std::vector<std::pair<Entry, std::uint16_t>> orphans;

  for (std::size_t i = path.size(); i-- > 1;) {
    Result<Node> node = LoadNode(path[i].page);
    if (!node.ok()) return node.status();
    Result<Node> parent = LoadNode(path[i - 1].page);
    if (!parent.ok()) return parent.status();

    // Locate this node's entry in its parent by child id (indices may have
    // shifted if callers mutated the parent).
    std::size_t idx = parent->entries.size();
    for (std::size_t j = 0; j < parent->entries.size(); ++j) {
      if (parent->entries[j].child == path[i].page) {
        idx = j;
        break;
      }
    }
    if (idx == parent->entries.size()) {
      return Status::Internal("condense: child entry missing from parent");
    }

    if (node->entries.size() < MinFor(*node)) {
      for (Entry& e : node->entries) {
        orphans.emplace_back(std::move(e), node->level);
      }
      parent->entries.erase(parent->entries.begin() +
                            static_cast<std::ptrdiff_t>(idx));
      Status s = StoreNode(path[i - 1].page, *parent);
      if (!s.ok()) return s;
      s = pool_->Delete(path[i].page);
      if (!s.ok()) return s;
    } else {
      parent->entries[idx].mbr = node->ComputeMbr(config_.dim);
      Status s = StoreNode(path[i - 1].page, *parent);
      if (!s.ok()) return s;
    }
  }

  // Reinsert orphans, highest level first so that target levels still exist.
  std::stable_sort(orphans.begin(), orphans.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  for (auto& [entry, level] : orphans) {
    std::vector<bool> reinserted(kMaxHeight, false);
    Status s = InsertEntry(std::move(entry), level, reinserted);
    if (!s.ok()) return s;
  }

  // Shrink the root while it is an internal node with a single child.
  while (true) {
    Result<Node> root = LoadNode(root_);
    if (!root.ok()) return root.status();
    if (root->is_leaf() || root->entries.size() != 1) break;
    const storage::PageId child = root->entries[0].child;
    Status s = pool_->Delete(root_);
    if (!s.ok()) return s;
    root_ = child;
    --height_;
  }
  return Status::OK();
}

Status RTree::Delete(std::span<const double> point, RecordId record) {
  if (point.size() != config_.dim) {
    return Status::InvalidArgument("point dim " + std::to_string(point.size()) +
                                   " != tree dim " + std::to_string(config_.dim));
  }
  return DeleteBox(geom::Mbr::FromPoint(point), record);
}

Status RTree::DeleteBox(const geom::Mbr& target, RecordId record) {
  if (target.dim() != config_.dim || target.empty()) {
    return Status::InvalidArgument("box dim mismatch or empty box");
  }
  std::vector<PathStep> path;
  path.push_back(PathStep{root_, 0});
  Result<std::optional<std::vector<PathStep>>> found =
      FindLeaf(root_, static_cast<std::uint16_t>(height_ - 1), target, record,
               path);
  if (!found.ok()) return found.status();
  if (!found->has_value()) {
    return Status::NotFound("no entry for record " + std::to_string(record));
  }
  const std::vector<PathStep>& leaf_path = **found;

  Result<Node> leaf = LoadNode(leaf_path.back().page);
  if (!leaf.ok()) return leaf.status();
  bool erased = false;
  for (std::size_t i = 0; i < leaf->entries.size(); ++i) {
    if (leaf->entries[i].record == record && leaf->entries[i].mbr == target) {
      leaf->entries.erase(leaf->entries.begin() + static_cast<std::ptrdiff_t>(i));
      erased = true;
      break;
    }
  }
  if (!erased) return Status::Internal("FindLeaf result went stale");
  Status s = StoreNode(leaf_path.back().page, *leaf);
  if (!s.ok()) return s;
  --size_;
  return CondenseTree(leaf_path);
}

Result<std::vector<RecordId>> RTree::RangeQuery(const geom::Mbr& box) const {
  if (box.dim() != config_.dim) {
    return Status::InvalidArgument("query box dim mismatch");
  }
  std::vector<RecordId> out;
  std::vector<storage::PageId> stack;
  stack.push_back(root_);
  while (!stack.empty()) {
    const storage::PageId page = stack.back();
    stack.pop_back();
    Result<Node> node = LoadNode(page);
    if (!node.ok()) return node.status();
    for (const Entry& e : node->entries) {
      if (!box.Intersects(e.mbr)) continue;
      if (node->is_leaf()) {
        out.push_back(e.record);
      } else {
        stack.push_back(e.child);
      }
    }
  }
  return out;
}

Status RTree::VisitNodes(
    const std::function<void(const Node&, storage::PageId)>& fn) const {
  std::vector<storage::PageId> stack;
  stack.push_back(root_);
  while (!stack.empty()) {
    const storage::PageId page = stack.back();
    stack.pop_back();
    Result<Node> node = LoadNode(page);
    if (!node.ok()) return node.status();
    fn(*node, page);
    if (!node->is_leaf()) {
      for (const Entry& e : node->entries) stack.push_back(e.child);
    }
  }
  return Status::OK();
}

namespace {

/// Validates one entry box: dimensionality, finiteness, lo <= hi, and (for
/// point-mode leaves) degeneracy. Returns a Corruption status naming the page.
Status CheckEntryBox(const geom::Mbr& box, std::size_t dim, bool expect_point,
                     storage::PageId page) {
  const std::string where = " (page " + std::to_string(page) + ")";
  if (box.empty()) {
    return Status::Corruption("entry has empty MBR" + where);
  }
  if (box.dim() != dim) {
    return Status::Corruption("entry MBR dim " + std::to_string(box.dim()) +
                              " != tree dim " + std::to_string(dim) + where);
  }
  for (std::size_t d = 0; d < dim; ++d) {
    if (!std::isfinite(box.lo()[d]) || !std::isfinite(box.hi()[d])) {
      return Status::Corruption("entry MBR has non-finite coordinate" + where);
    }
    if (box.lo()[d] > box.hi()[d]) {
      return Status::Corruption("entry MBR inverted (lo > hi) in dim " +
                                std::to_string(d) + where);
    }
    if (expect_point && box.lo()[d] != box.hi()[d]) {
      return Status::Corruption(
          "point-mode leaf entry holds a non-degenerate box" + where);
    }
  }
  return Status::OK();
}

}  // namespace

Status RTree::CheckNode(storage::PageId page, std::uint16_t expected_level,
                        const geom::Mbr* parent_box, bool is_root,
                        std::size_t* entries_seen) {
  Result<Node> node = LoadNode(page);
  if (!node.ok()) return node.status();
  if (node->level != expected_level) {
    return Status::Corruption("node level " + std::to_string(node->level) +
                              " != expected " + std::to_string(expected_level));
  }
  if (!is_root) {
    if (node->entries.size() < MinFor(*node)) {
      return Status::Corruption("non-root node under-full: " +
                                std::to_string(node->entries.size()));
    }
  } else if (!node->is_leaf() && node->entries.size() < 2) {
    return Status::Corruption("internal root must have >= 2 entries");
  }
  if (node->entries.size() > MaxFor(*node)) {
    return Status::Corruption("node over-full: " +
                              std::to_string(node->entries.size()));
  }
  if (parent_box != nullptr) {
    const geom::Mbr self = node->ComputeMbr(config_.dim);
    if (!(*parent_box == self)) {
      return Status::Corruption("parent MBR is not tight for page " +
                                std::to_string(page));
    }
  }
  const bool expect_point = node->is_leaf() && !config_.box_leaves;
  for (const Entry& e : node->entries) {
    Status s = CheckEntryBox(e.mbr, config_.dim, expect_point, page);
    if (!s.ok()) return s;
    if (!node->is_leaf() && e.child == storage::kInvalidPageId) {
      return Status::Corruption("internal entry with invalid child page (page " +
                                std::to_string(page) + ")");
    }
  }
  if (node->is_leaf()) {
    *entries_seen += node->entries.size();
    return Status::OK();
  }
  for (const Entry& e : node->entries) {
    Status s = CheckNode(e.child, static_cast<std::uint16_t>(expected_level - 1),
                         &e.mbr, false, entries_seen);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status RTree::ValidateInvariants() {
  if (root_ == storage::kInvalidPageId) {
    return Status::Corruption("tree has no root page");
  }
  if (height_ == 0) {
    return Status::Corruption("tree height is zero");
  }
  std::size_t entries_seen = 0;
  Status s = CheckNode(root_, static_cast<std::uint16_t>(height_ - 1), nullptr,
                       true, &entries_seen);
  if (!s.ok()) return s;
  if (entries_seen != size_) {
    return Status::Corruption("entry count mismatch: tree says " +
                              std::to_string(size_) + ", walk found " +
                              std::to_string(entries_seen));
  }
  return Status::OK();
}

}  // namespace tsss::index

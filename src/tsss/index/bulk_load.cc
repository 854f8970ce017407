#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "tsss/index/rtree.h"

namespace tsss::index {
namespace {

/// Sort-Tile-Recursive partitioning: orders `entries` so that consecutive
/// chunks of `capacity` are spatially coherent. `dim_index` is the axis to
/// sort on at this recursion depth; `dims_left` how many axes remain.
void StrTile(std::vector<Entry>& entries, std::size_t begin, std::size_t end,
             std::size_t dim_index, std::size_t dims_left, std::size_t capacity,
             std::size_t dim) {
  const std::size_t n = end - begin;
  if (n <= capacity || dims_left <= 1) {
    std::sort(entries.begin() + static_cast<std::ptrdiff_t>(begin),
              entries.begin() + static_cast<std::ptrdiff_t>(end),
              [dim_index](const Entry& a, const Entry& b) {
                return a.mbr.lo()[dim_index] < b.mbr.lo()[dim_index];
              });
    return;
  }
  std::sort(entries.begin() + static_cast<std::ptrdiff_t>(begin),
            entries.begin() + static_cast<std::ptrdiff_t>(end),
            [dim_index](const Entry& a, const Entry& b) {
              return a.mbr.lo()[dim_index] < b.mbr.lo()[dim_index];
            });
  const double pages = std::ceil(static_cast<double>(n) /
                                 static_cast<double>(capacity));
  const std::size_t num_slabs = static_cast<std::size_t>(
      std::ceil(std::pow(pages, 1.0 / static_cast<double>(dims_left))));
  const std::size_t slab_size = (n + num_slabs - 1) / num_slabs;
  for (std::size_t s = begin; s < end; s += slab_size) {
    const std::size_t slab_end = std::min(s + slab_size, end);
    StrTile(entries, s, slab_end, (dim_index + 1) % dim, dims_left - 1, capacity,
            dim);
  }
}

}  // namespace

Status RTree::BulkLoad(std::vector<Entry> points) {
  for (const Entry& e : points) {
    if (e.mbr.dim() != config_.dim || e.mbr.empty()) {
      return Status::InvalidArgument("bulk load entry dim mismatch or empty");
    }
  }

  // Free the existing tree.
  std::vector<storage::PageId> old_pages;
  Status s = VisitNodes(
      [&old_pages](const Node&, storage::PageId page) { old_pages.push_back(page); });
  if (!s.ok()) return s;
  for (storage::PageId page : old_pages) {
    s = pool_->Delete(page);
    if (!s.ok()) return s;
  }

  const std::size_t n = points.size();
  if (n == 0) {
    Result<storage::PageId> root = StoreNewNode(Node{});
    if (!root.ok()) return root.status();
    root_ = *root;
    height_ = 1;
    size_ = 0;
    return Status::OK();
  }

  // Pack leaves to (almost) full capacity. STR keeps sibling leaves
  // spatially tight, which is what makes bulk-loaded trees query well.
  StrTile(points, 0, n, 0, config_.dim, leaf_max_, config_.dim);

  std::uint16_t level = 0;
  std::vector<Entry> current = std::move(points);
  while (true) {
    const std::size_t capacity = level == 0 ? leaf_max_ : config_.max_entries;
    // Avoid producing a final group below the minimum fill: if the last
    // chunk would be smaller than min_entries, steal from the previous one.
    std::vector<Entry> parents;
    const std::size_t count = current.size();
    if (count <= capacity) {
      // One node absorbs everything: it becomes the root.
      Node root;
      root.level = level;
      root.entries = std::move(current);
      Result<storage::PageId> page = StoreNewNode(root);
      if (!page.ok()) return page.status();
      root_ = *page;
      height_ = static_cast<std::size_t>(level) + 1;
      size_ = n;
      return Status::OK();
    }
    std::size_t begin = 0;
    while (begin < count) {
      std::size_t chunk = std::min(capacity, count - begin);
      const std::size_t rest = count - begin - chunk;
      if (rest > 0 && rest < config_.MinFillOf(capacity)) {
        // Rebalance so the final node meets min fill.
        chunk = count - begin - config_.MinFillOf(capacity);
      }
      Node node;
      node.level = level;
      node.entries.assign(
          std::make_move_iterator(current.begin() +
                                  static_cast<std::ptrdiff_t>(begin)),
          std::make_move_iterator(current.begin() +
                                  static_cast<std::ptrdiff_t>(begin + chunk)));
      Result<storage::PageId> page = StoreNewNode(node);
      if (!page.ok()) return page.status();
      parents.push_back(Entry::ForChild(*page, node.ComputeMbr(config_.dim)));
      begin += chunk;
    }
    current = std::move(parents);
    ++level;
  }
}

}  // namespace tsss::index

#include <algorithm>
#include <limits>

#include "tsss/index/rtree.h"
#include "tsss/obs/metrics.h"

namespace tsss::index {

Result<TreeStats> RTree::ComputeStats() const {
  TreeStats stats;
  stats.height = height_;
  stats.entry_count = size_;

  std::size_t leaf_entry_sum = 0;
  std::size_t internal_entry_sum = 0;
  std::size_t internal_count = 0;
  double aspect_sum = 0.0;
  double diag_sum = 0.0;
  std::size_t box_count = 0;

  Status s = VisitNodes([&](const Node& node, storage::PageId) {
    ++stats.node_count;
    if (node.is_leaf()) {
      ++stats.leaf_count;
      leaf_entry_sum += node.entries.size();
      stats.total_leaf_mbr_volume += node.ComputeMbr(config_.dim).Volume();
    } else {
      ++internal_count;
      internal_entry_sum += node.entries.size();
      // Pairwise overlap among sibling MBRs: the quantity the X-tree paper
      // ties to search degradation and the paper cites in Section 7.
      for (std::size_t i = 0; i < node.entries.size(); ++i) {
        for (std::size_t j = i + 1; j < node.entries.size(); ++j) {
          stats.total_overlap_volume +=
              node.entries[i].mbr.OverlapVolume(node.entries[j].mbr);
        }
      }
      // Shape of child boxes: long-thin MBRs are why bounding spheres fail
      // (Section 7 discussion, SR-tree observation).
      for (const Entry& e : node.entries) {
        double shortest = std::numeric_limits<double>::infinity();
        double longest = 0.0;
        for (std::size_t d = 0; d < config_.dim; ++d) {
          const double side = e.mbr.hi()[d] - e.mbr.lo()[d];
          shortest = std::min(shortest, side);
          longest = std::max(longest, side);
        }
        if (shortest > 0.0) {
          aspect_sum += longest / shortest;
          diag_sum += 2.0 * e.mbr.HalfDiagonal() / shortest;
          ++box_count;
        }
      }
    }
  });
  if (!s.ok()) return s;
  stats.node_pages = stats.node_count;

  if (stats.leaf_count > 0) {
    stats.avg_leaf_fill =
        static_cast<double>(leaf_entry_sum) /
        (static_cast<double>(stats.leaf_count) * static_cast<double>(leaf_max_));
  }
  if (internal_count > 0) {
    stats.avg_internal_fill = static_cast<double>(internal_entry_sum) /
                              (static_cast<double>(internal_count) *
                               static_cast<double>(config_.max_entries));
  }
  if (box_count > 0) {
    stats.avg_aspect_ratio = aspect_sum / static_cast<double>(box_count);
    stats.avg_diag_to_min_side = diag_sum / static_cast<double>(box_count);
  }
  return stats;
}

Result<StructuralStats> RTree::ComputeStructuralStats() const {
  StructuralStats stats;
  stats.height = height_;
  stats.entry_count = size_;
  stats.levels.resize(height_);
  for (std::size_t l = 0; l < height_; ++l) stats.levels[l].level = l;

  // Per-level accumulators that need a second pass to turn into means.
  std::vector<double> dead_ratio_sum(height_, 0.0);
  std::vector<std::size_t> dead_ratio_count(height_, 0);
  bool level_out_of_range = false;

  Status s = VisitNodes([&](const Node& node, storage::PageId) {
    ++stats.node_count;
    if (node.level >= height_) {
      level_out_of_range = true;
      return;
    }
    LevelStats& lv = stats.levels[node.level];
    const std::size_t fanout = node.entries.size();
    if (lv.nodes == 0 || fanout < lv.min_fanout) lv.min_fanout = fanout;
    if (fanout > lv.max_fanout) lv.max_fanout = fanout;
    ++lv.nodes;
    lv.entries += fanout;

    const std::size_t capacity =
        node.is_leaf() ? leaf_max_ : config_.max_entries;
    const double occupancy = capacity == 0
                                 ? 0.0
                                 : static_cast<double>(fanout) /
                                       static_cast<double>(capacity);
    auto bucket = static_cast<std::size_t>(occupancy * 10.0);
    lv.occupancy_histogram[bucket > 9 ? 9 : bucket] += 1;

    const geom::Mbr node_box = node.ComputeMbr(config_.dim);
    lv.margin_sum += node_box.Margin();
    const double node_volume = node_box.Volume();
    if (node_volume > 0.0) {
      double covered = 0.0;
      for (const Entry& e : node.entries) covered += e.mbr.Volume();
      const double dead = node_volume - covered;
      dead_ratio_sum[node.level] += std::max(0.0, dead) / node_volume;
      ++dead_ratio_count[node.level];
    }
    for (std::size_t i = 0; i < node.entries.size(); ++i) {
      for (std::size_t j = i + 1; j < node.entries.size(); ++j) {
        lv.overlap_volume +=
            node.entries[i].mbr.OverlapVolume(node.entries[j].mbr);
      }
    }
  });
  if (!s.ok()) return s;

  for (std::size_t l = 0; l < height_; ++l) {
    LevelStats& lv = stats.levels[l];
    if (lv.nodes > 0) {
      lv.avg_fanout =
          static_cast<double>(lv.entries) / static_cast<double>(lv.nodes);
      const std::size_t capacity = l == 0 ? leaf_max_ : config_.max_entries;
      if (capacity > 0) {
        lv.avg_occupancy = lv.avg_fanout / static_cast<double>(capacity);
      }
    }
    if (dead_ratio_count[l] > 0) {
      lv.dead_space_ratio =
          dead_ratio_sum[l] / static_cast<double>(dead_ratio_count[l]);
    }
  }

  // Depth uniformity: every level populated, one root, and each internal
  // level's entries exactly reference the nodes one level down.
  stats.depth_uniform = !level_out_of_range &&
                        stats.levels[height_ - 1].nodes == 1;
  for (std::size_t l = 0; stats.depth_uniform && l < height_; ++l) {
    if (stats.levels[l].nodes == 0) stats.depth_uniform = false;
    if (l >= 1 && stats.levels[l].entries != stats.levels[l - 1].nodes) {
      stats.depth_uniform = false;
    }
  }
  return stats;
}

void RegisterStructuralGauges(const StructuralStats& stats) {
  auto& registry = obs::MetricsRegistry::Global();
  auto set = [&registry](const char* name, const char* help, std::int64_t v) {
    registry.GetGauge(name, help)->Set(v);
  };
  set("tsss_tree_height", "R-tree height (levels)",
      static_cast<std::int64_t>(stats.height));
  set("tsss_tree_nodes", "R-tree logical node count",
      static_cast<std::int64_t>(stats.node_count));
  set("tsss_tree_entries", "R-tree data entry count",
      static_cast<std::int64_t>(stats.entry_count));
  set("tsss_tree_depth_uniform", "1 iff every leaf sits at the same depth",
      stats.depth_uniform ? 1 : 0);
  if (!stats.levels.empty()) {
    const LevelStats& leaves = stats.levels.front();
    set("tsss_tree_leaf_occupancy_permille",
        "mean leaf occupancy, in permille of leaf capacity",
        static_cast<std::int64_t>(leaves.avg_occupancy * 1000.0));
    set("tsss_tree_leaf_dead_space_permille",
        "mean leaf dead-space ratio, in permille",
        static_cast<std::int64_t>(leaves.dead_space_ratio * 1000.0));
  }
}

}  // namespace tsss::index

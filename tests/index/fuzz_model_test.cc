// Model-based randomized testing: drive the R-tree with random operation
// sequences (insert / delete / range query / line query) and compare every
// observable result against a trivially correct in-memory reference model.
// Runs across split algorithms and seeds (TEST_P).

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/index/rtree.h"

namespace tsss::index {
namespace {

using geom::Line;
using geom::Mbr;
using geom::Vec;

/// The reference model: a flat map from record id to point.
class ReferenceIndex {
 public:
  void Insert(RecordId record, const Vec& point) { points_[record] = point; }
  void Erase(RecordId record) { points_.erase(record); }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  const std::pair<const RecordId, Vec>& Sample(Rng& rng) const {
    auto it = points_.begin();
    std::advance(it, rng.UniformInt(0, static_cast<std::int64_t>(points_.size()) - 1));
    return *it;
  }

  std::set<RecordId> RangeQuery(const Mbr& box) const {
    std::set<RecordId> out;
    for (const auto& [record, point] : points_) {
      if (box.Contains(point)) out.insert(record);
    }
    return out;
  }

  std::set<RecordId> LineQuery(const Line& line, double eps) const {
    std::set<RecordId> out;
    for (const auto& [record, point] : points_) {
      if (geom::Pld(point, line) <= eps) out.insert(record);
    }
    return out;
  }

 private:
  std::map<RecordId, Vec> points_;
};

using FuzzParam = std::tuple<SplitAlgorithm, std::uint64_t /*seed*/>;

class RTreeFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(RTreeFuzzTest, RandomOpsAgreeWithReferenceModel) {
  const auto [split, seed] = GetParam();
  constexpr std::size_t kDim = 4;

  storage::MemPageStore store;
  storage::BufferPool pool(&store, 128);
  RTreeConfig config;
  config.dim = kDim;
  config.max_entries = 6;
  config.leaf_max_entries = 10;
  config.split = split;
  auto created = RTree::Create(&pool, config);
  ASSERT_TRUE(created.ok()) << created.status();
  RTree& tree = **created;

  ReferenceIndex model;
  Rng rng(seed);
  RecordId next_record = 0;

  for (int step = 0; step < 2500; ++step) {
    const double roll = rng.NextDouble();
    if (model.empty() || roll < 0.55) {
      // Insert. Cluster half the points to provoke interesting splits.
      Vec p(kDim);
      const double center = rng.Bernoulli(0.5) ? 0.0 : 50.0;
      for (auto& x : p) x = center + rng.Uniform(-10, 10);
      ASSERT_TRUE(tree.Insert(p, next_record).ok()) << "step " << step;
      model.Insert(next_record, p);
      ++next_record;
    } else if (roll < 0.75) {
      // Delete a random live record.
      const auto& [record, point] = model.Sample(rng);
      ASSERT_TRUE(tree.Delete(point, record).ok())
          << "step " << step << " record " << record;
      model.Erase(record);
    } else if (roll < 0.9) {
      // Range query.
      Vec lo(kDim), hi(kDim);
      for (std::size_t d = 0; d < kDim; ++d) {
        lo[d] = rng.Uniform(-20, 60);
        hi[d] = lo[d] + rng.Uniform(0, 40);
      }
      const Mbr box = Mbr::FromCorners(lo, hi);
      auto result = tree.RangeQuery(box);
      ASSERT_TRUE(result.ok());
      const std::set<RecordId> got(result->begin(), result->end());
      ASSERT_EQ(got, model.RangeQuery(box)) << "step " << step;
    } else {
      // Line query.
      Vec p(kDim), d(kDim);
      for (std::size_t i = 0; i < kDim; ++i) {
        p[i] = rng.Uniform(-20, 60);
        d[i] = rng.Uniform(-1, 1);
      }
      const Line line{p, d};
      const double eps = rng.Uniform(0, 15);
      auto result = tree.LineQuery(line, eps, geom::PruneStrategy::kEepOnly,
                                   nullptr);
      ASSERT_TRUE(result.ok());
      std::set<RecordId> got;
      for (const LineMatch& m : *result) got.insert(m.record);
      ASSERT_EQ(got, model.LineQuery(line, eps)) << "step " << step;
    }

    if (step % 250 == 249) {
      ASSERT_TRUE(tree.ValidateInvariants().ok())
          << "step " << step << ": " << tree.ValidateInvariants();
      ASSERT_EQ(tree.size(), model.size()) << "step " << step;
    }
  }

  // Final teardown: delete everything; no pages may leak beyond the root.
  while (!model.empty()) {
    const auto& [record, point] = model.Sample(rng);
    ASSERT_TRUE(tree.Delete(point, record).ok());
    model.Erase(record);
  }
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(store.num_live_pages(), 1u) << "pages leaked";
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RTreeFuzzTest,
    ::testing::Values(
        std::make_tuple(SplitAlgorithm::kLinear, std::uint64_t{1}),
        std::make_tuple(SplitAlgorithm::kQuadratic, std::uint64_t{2}),
        std::make_tuple(SplitAlgorithm::kRStar, std::uint64_t{3}),
        std::make_tuple(SplitAlgorithm::kRStar, std::uint64_t{4}),
        std::make_tuple(SplitAlgorithm::kRStar, std::uint64_t{5}),
        std::make_tuple(SplitAlgorithm::kRStar, std::uint64_t{6}),
        std::make_tuple(SplitAlgorithm::kLinear, std::uint64_t{7})),
    [](const testing::TestParamInfo<FuzzParam>& param_info) {
      return std::string(SplitAlgorithmToString(std::get<0>(param_info.param))) +
             "_plain_seed" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace tsss::index

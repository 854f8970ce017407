// Randomized property testing for the deep structural validators: interleave
// insert / delete / bulk-load / range / line (penetration) / k-NN operations
// with deterministic tsss::Rng seeds, and run RTree::ValidateInvariants() and
// BufferPool::AuditPins() after EVERY operation. Example-based tests check
// one final state; this catches bookkeeping bugs (leaked pins, stale MBRs,
// dirty-count drift) in the intermediate states where they are born.

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

constexpr std::size_t kDim = 4;

Vec RandomPoint(Rng& rng) {
  Vec p(kDim);
  const double center = rng.Bernoulli(0.5) ? 0.0 : 40.0;
  for (auto& x : p) x = center + rng.Uniform(-10, 10);
  return p;
}

Line RandomLine(Rng& rng) {
  Vec p(kDim), d(kDim);
  for (std::size_t i = 0; i < kDim; ++i) {
    p[i] = rng.Uniform(-20, 50);
    d[i] = rng.Uniform(-1, 1);
  }
  return Line{p, d};
}

using Param = std::tuple<SplitAlgorithm, std::uint64_t /*seed*/>;

class InvariantPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(InvariantPropertyTest, ValidatorsHoldAfterEveryOperation) {
  const auto [split, seed] = GetParam();

  storage::MemPageStore store;
  // Tiny pool so evictions and write-backs churn constantly; CRC
  // verification explicitly on so the stray-write detector runs even in
  // Release test builds.
  storage::BufferPool pool(&store, 16, /*verify_clean_crc=*/true);
  RTreeConfig config;
  config.dim = kDim;
  config.max_entries = 5;
  config.leaf_max_entries = 8;
  config.split = split;
  auto created = RTree::Create(&pool, config);
  ASSERT_TRUE(created.ok()) << created.status();
  RTree& tree = **created;

  std::map<RecordId, Vec> model;
  Rng rng(seed);
  RecordId next_record = 0;

  for (int step = 0; step < 400; ++step) {
    const double roll = rng.NextDouble();
    if (model.empty() || roll < 0.45) {
      const Vec p = RandomPoint(rng);
      ASSERT_TRUE(tree.Insert(p, next_record).ok()) << "step " << step;
      model[next_record] = p;
      ++next_record;
    } else if (roll < 0.60) {
      auto it = model.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<std::int64_t>(model.size()) - 1));
      ASSERT_TRUE(tree.Delete(it->second, it->first).ok()) << "step " << step;
      model.erase(it);
    } else if (roll < 0.67) {
      // Bulk-load (STR) replacing the whole tree with the model's contents.
      std::vector<Entry> entries;
      entries.reserve(model.size());
      for (const auto& [record, point] : model) {
        entries.push_back(Entry::ForRecord(record, point));
      }
      ASSERT_TRUE(tree.BulkLoad(std::move(entries)).ok()) << "step " << step;
    } else if (roll < 0.78) {
      Vec lo(kDim), hi(kDim);
      for (std::size_t d = 0; d < kDim; ++d) {
        lo[d] = rng.Uniform(-20, 50);
        hi[d] = lo[d] + rng.Uniform(0, 30);
      }
      const Mbr box = Mbr::FromCorners(lo, hi);
      auto got = tree.RangeQuery(box);
      ASSERT_TRUE(got.ok());
      std::set<RecordId> expect;
      for (const auto& [record, point] : model) {
        if (box.Contains(point)) expect.insert(record);
      }
      ASSERT_EQ(std::set<RecordId>(got->begin(), got->end()), expect)
          << "step " << step;
    } else if (roll < 0.92) {
      // Line (penetration) query, rotating through every prune strategy -
      // all must agree with the model (no false dismissals, Theorem 3).
      const Line line = RandomLine(rng);
      const double eps = rng.Uniform(0, 12);
      const auto strategy = static_cast<geom::PruneStrategy>(step % 3);
      auto got = tree.LineQuery(line, eps, strategy, nullptr);
      ASSERT_TRUE(got.ok());
      std::set<RecordId> got_set;
      for (const LineMatch& m : *got) got_set.insert(m.record);
      std::set<RecordId> expect;
      for (const auto& [record, point] : model) {
        if (geom::Pld(point, line) <= eps) expect.insert(record);
      }
      ASSERT_EQ(got_set, expect) << "step " << step;
    } else {
      // k-NN by line distance: results must come back sorted and complete.
      const Line line = RandomLine(rng);
      const std::size_t k = static_cast<std::size_t>(rng.UniformInt(1, 5));
      auto got = tree.LineKnn(line, k);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), std::min(k, model.size())) << "step " << step;
      for (std::size_t i = 1; i < got->size(); ++i) {
        ASSERT_LE((*got)[i - 1].reduced_distance, (*got)[i].reduced_distance);
      }
    }

    ASSERT_TRUE(tree.ValidateInvariants().ok())
        << "step " << step << ": " << tree.ValidateInvariants();
    ASSERT_TRUE(pool.AuditPins().ok())
        << "step " << step << ": " << pool.AuditPins();
    ASSERT_EQ(tree.size(), model.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, InvariantPropertyTest,
    ::testing::Values(
        std::make_tuple(SplitAlgorithm::kLinear, std::uint64_t{11}),
        std::make_tuple(SplitAlgorithm::kQuadratic, std::uint64_t{12}),
        std::make_tuple(SplitAlgorithm::kRStar, std::uint64_t{13}),
        std::make_tuple(SplitAlgorithm::kRStar, std::uint64_t{14})),
    [](const testing::TestParamInfo<Param>& param_info) {
      return std::string(
                 SplitAlgorithmToString(std::get<0>(param_info.param))) +
             "_plain_seed" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace tsss::index

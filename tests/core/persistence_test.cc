// End-to-end persistence: build a file-backed engine, checkpoint, reopen in
// a "new process" (new object), and verify identical query answers plus
// continued mutability.

#include <fcntl.h>
#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/core/engine.h"
#include "tsss/seq/stock_generator.h"

namespace tsss::core {
namespace {

using geom::Vec;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/tsss_engine_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  EngineConfig FileBackedConfig() {
    EngineConfig config;
    config.window = 16;
    config.reduced_dim = 4;
    config.tree.max_entries = 8;
    config.buffer_pool_pages = 64;
    config.storage_dir = dir_;
    return config;
  }

  std::vector<seq::TimeSeries> Market() {
    seq::StockMarketConfig mc;
    mc.num_companies = 10;
    mc.values_per_company = 100;
    mc.seed = 77;
    return seq::GenerateStockMarket(mc);
  }

  std::string dir_;
};

TEST_F(PersistenceTest, CheckpointAndReopenGiveIdenticalAnswers) {
  const auto market = Market();
  Vec query(market[3].values.begin() + 10, market[3].values.begin() + 26);
  std::vector<Match> before;
  {
    auto engine = SearchEngine::Create(FileBackedConfig());
    ASSERT_TRUE(engine.ok()) << engine.status();
    for (const auto& series : market) {
      ASSERT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
    }
    auto matches = (*engine)->RangeQuery(query, 0.5);
    ASSERT_TRUE(matches.ok());
    before = *matches;
    ASSERT_TRUE((*engine)->Checkpoint().ok());
  }

  auto reopened = SearchEngine::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->num_indexed_windows(), 10u * (100 - 16 + 1));
  EXPECT_EQ((*reopened)->config().window, 16u);
  ASSERT_TRUE((*reopened)->tree().ValidateInvariants().ok());

  auto matches = (*reopened)->RangeQuery(query, 0.5);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ((*matches)[i].record, before[i].record);
    EXPECT_NEAR((*matches)[i].distance, before[i].distance, 1e-12);
  }
  // Dataset names survived too.
  EXPECT_EQ(*(*reopened)->dataset().Name(3), market[3].name);
}

TEST_F(PersistenceTest, ReopenedEngineStaysMutable) {
  {
    auto engine = SearchEngine::Create(FileBackedConfig());
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->AddSeries("s", std::vector<double>(30, 1.0)).ok());
    ASSERT_TRUE((*engine)->Checkpoint().ok());
  }
  auto reopened = SearchEngine::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  const std::size_t before = (*reopened)->num_indexed_windows();
  Rng rng(1);
  Vec fresh(40);
  for (auto& x : fresh) x = rng.Uniform(0, 10);
  ASSERT_TRUE((*reopened)->AddSeries("fresh", fresh).ok());
  EXPECT_EQ((*reopened)->num_indexed_windows(), before + 25);
  ASSERT_TRUE((*reopened)->tree().ValidateInvariants().ok());

  // Checkpoint again and reopen once more.
  ASSERT_TRUE((*reopened)->Checkpoint().ok());
  auto again = SearchEngine::Open(dir_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->num_indexed_windows(), before + 25);
}

TEST_F(PersistenceTest, CheckpointRequiresFileBacking) {
  EngineConfig config = FileBackedConfig();
  config.storage_dir.clear();  // in-memory
  auto engine = SearchEngine::Create(config);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->Checkpoint().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PersistenceTest, OpenMissingDirFails) {
  auto engine = SearchEngine::Open(dir_ + "/nope");
  EXPECT_FALSE(engine.ok());
}

TEST_F(PersistenceTest, BulkBuiltEngineSurvivesReopen) {
  const auto market = Market();
  {
    auto engine = SearchEngine::Create(FileBackedConfig());
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->BulkBuild(market).ok());
    ASSERT_TRUE((*engine)->Checkpoint().ok());
  }
  auto reopened = SearchEngine::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_TRUE((*reopened)->tree().ValidateInvariants().ok());
  // Self-window is found exactly.
  const Vec query(market[0].values.begin(), market[0].values.begin() + 16);
  auto matches = (*reopened)->RangeQuery(query, 1e-9);
  ASSERT_TRUE(matches.ok());
  bool found = false;
  for (const Match& m : *matches) {
    if (m.series == 0 && m.offset == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(PersistenceTest, QueriesOnAReopenedIndexLeaveThePageSidecarUntouched) {
  const auto market = Market();
  {
    auto engine = SearchEngine::Create(FileBackedConfig());
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->BulkBuild(market).ok());
    ASSERT_TRUE((*engine)->Checkpoint().ok());
  }
  const std::string sidecar = dir_ + "/pages.tsss.meta";
  const auto read_bytes = [&] {
    std::ifstream in(sidecar, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  };
  // A past mtime makes a rewrite visible even within one clock tick.
  const timespec past[2] = {{1000000000, 0}, {1000000000, 0}};
  ASSERT_EQ(::utimensat(AT_FDCWD, sidecar.c_str(), past, 0), 0);
  const std::vector<char> before = read_bytes();
  {
    auto reopened = SearchEngine::Open(dir_);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    const Vec query(market[2].values.begin() + 5, market[2].values.begin() + 21);
    ASSERT_TRUE((*reopened)->RangeQuery(query, 0.5).ok());
    ASSERT_TRUE((*reopened)->Knn(query, 5).ok());
  }
  EXPECT_EQ(read_bytes(), before);
  struct stat st {};
  ASSERT_EQ(::stat(sidecar.c_str(), &st), 0);
  EXPECT_EQ(st.st_mtim.tv_sec, 1000000000);
  EXPECT_EQ(st.st_mtim.tv_nsec, 0);
}

}  // namespace
}  // namespace tsss::core

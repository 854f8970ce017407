// Regression tests for ParseEngineMeta: engine.meta is read back from disk
// on Open() and is untrusted. Before the hardening, values like "window nan"
// or "window 1e300" hit a raw double -> size_t cast — undefined behaviour
// (UBSan float-cast-overflow) — instead of a Corruption status.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "tsss/core/engine.h"

namespace tsss::core {
namespace {

/// A complete, valid metadata text (mirrors what Checkpoint writes).
std::string ValidMeta() {
  return
      "tsss-engine-meta-v1\n"
      "window 128\n"
      "stride 1\n"
      "subtrail 0\n"
      "reducer 0\n"
      "reduced_dim 6\n"
      "prune 0\n"
      "pool_pages 8192\n"
      "cold_cache 1\n"
      "tree_max 20\n"
      "tree_leaf_max 20\n"
      "tree_min_fill 0.4\n"
      "tree_split 2\n"
      "tree_reinsert 0.3\n"
      "windows 873\n"
      "root 3\n"
      "height 2\n"
      "size 873\n";
}

Result<EngineMeta> Parse(const std::string& text) {
  std::istringstream in(text);
  return ParseEngineMeta(in);
}

std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos);
  return text.replace(at, from.size(), to);
}

TEST(EngineMetaTest, ValidMetaParses) {
  auto meta = Parse(ValidMeta());
  ASSERT_TRUE(meta.ok()) << meta.status().message();
  EXPECT_EQ(meta->config.window, 128u);
  EXPECT_EQ(meta->config.stride, 1u);
  EXPECT_EQ(meta->indexed_windows, 873u);
  EXPECT_EQ(meta->root, 3u);
  EXPECT_EQ(meta->height, 2u);
  EXPECT_EQ(meta->tree_size, 873u);
}

/// The same metadata as older checkpoints wrote it, with the X-tree
/// supernode settings (supernodes off).
std::string LegacyMeta() {
  return Replace(ValidMeta(), "windows 873\n",
                 "supernodes 0\n"
                 "supernode_overlap 0.8\n"
                 "supernode_multiple 4\n"
                 "windows 873\n");
}

TEST(EngineMetaTest, LegacyMetaWithSupernodesOffParses) {
  auto meta = Parse(LegacyMeta());
  ASSERT_TRUE(meta.ok()) << meta.status().message();
  EXPECT_EQ(meta->config.tree.max_entries, 20u);
  EXPECT_EQ(meta->tree_size, 873u);
}

TEST(EngineMetaTest, SupernodesOnIsCorruption) {
  // An index built with supernodes may hold multi-page nodes, which the
  // one-page-per-node reader would misread; refuse it up front.
  auto meta = Parse(Replace(LegacyMeta(), "supernodes 0", "supernodes 1"));
  EXPECT_EQ(meta.status().code(), StatusCode::kCorruption);
  EXPECT_NE(meta.status().message().find("supernodes"), std::string::npos)
      << meta.status().message();
}

TEST(EngineMetaTest, WrongVersionLineIsCorruption) {
  auto meta = Parse("tsss-engine-meta-v999\nwindow 128\n");
  EXPECT_EQ(meta.status().code(), StatusCode::kCorruption);
}

TEST(EngineMetaTest, MissingKeyIsCorruption) {
  auto meta = Parse(Replace(ValidMeta(), "stride 1\n", ""));
  EXPECT_EQ(meta.status().code(), StatusCode::kCorruption);
}

TEST(EngineMetaTest, NanSizeIsCorruptionNotUb) {
  auto meta = Parse(Replace(ValidMeta(), "window 128", "window nan"));
  EXPECT_EQ(meta.status().code(), StatusCode::kCorruption);
}

TEST(EngineMetaTest, HugeSizeIsCorruptionNotUb) {
  auto meta = Parse(Replace(ValidMeta(), "window 128", "window 1e300"));
  EXPECT_EQ(meta.status().code(), StatusCode::kCorruption);
}

TEST(EngineMetaTest, NegativeSizeIsCorruption) {
  auto meta = Parse(Replace(ValidMeta(), "pool_pages 8192", "pool_pages -1"));
  EXPECT_EQ(meta.status().code(), StatusCode::kCorruption);
}

TEST(EngineMetaTest, FractionalSizeIsCorruption) {
  auto meta = Parse(Replace(ValidMeta(), "windows 873", "windows 873.5"));
  EXPECT_EQ(meta.status().code(), StatusCode::kCorruption);
}

TEST(EngineMetaTest, UnknownReducerEnumIsCorruption) {
  auto meta = Parse(Replace(ValidMeta(), "reducer 0", "reducer 99"));
  EXPECT_EQ(meta.status().code(), StatusCode::kCorruption);
}

TEST(EngineMetaTest, UnknownSplitEnumIsCorruption) {
  auto meta = Parse(Replace(ValidMeta(), "tree_split 2", "tree_split 7"));
  EXPECT_EQ(meta.status().code(), StatusCode::kCorruption);
}

TEST(EngineMetaTest, RootBeyondPageIdSpaceIsCorruption) {
  auto meta = Parse(Replace(ValidMeta(), "root 3", "root 4294967296"));
  EXPECT_EQ(meta.status().code(), StatusCode::kCorruption);
}

TEST(EngineMetaTest, InfiniteFractionIsCorruption) {
  auto meta =
      Parse(Replace(ValidMeta(), "tree_min_fill 0.4", "tree_min_fill inf"));
  EXPECT_EQ(meta.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace tsss::core

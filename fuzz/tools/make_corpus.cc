// Seed-corpus generator: writes well-formed inputs for each fuzz harness
// using the library's real writers, so every seed starts on the parsers'
// happy path and mutation explores the interesting boundary around it.
//
//   make_fuzz_corpus [OUT_DIR]    (default: fuzz/corpus, run from repo root)
//
// The generated seeds are deterministic and checked into fuzz/corpus/; re-run
// this tool after changing an on-disk format and commit the diff.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tsss/index/node.h"
#include "tsss/seq/csv.h"
#include "tsss/seq/dataset.h"
#include "tsss/seq/dataset_io.h"
#include "tsss/storage/page.h"

namespace {

namespace fs = std::filesystem;

void WriteSeed(const fs::path& dir, const std::string& name,
               const std::string& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", (dir / name).c_str());
    std::exit(1);
  }
}

std::string PageBytes(const tsss::storage::Page& page) {
  return std::string(reinterpret_cast<const char*>(page.bytes.data()),
                     page.bytes.size());
}

/// node_decode harness input: [dim selector][flags] + page image. The
/// selector bytes must invert the harness's mapping (dim = 1 + b % 16,
/// box_leaves = b & 1).
std::string NodeSeed(std::size_t dim, bool box_leaves,
                     const tsss::storage::Page& page) {
  std::string out;
  out.push_back(static_cast<char>(dim - 1));
  out.push_back(static_cast<char>(box_leaves ? 1 : 0));
  return out + PageBytes(page);
}

tsss::geom::Mbr Box(std::initializer_list<double> lo,
                    std::initializer_list<double> hi) {
  return tsss::geom::Mbr::FromCorners(tsss::geom::Vec(lo), tsss::geom::Vec(hi));
}

void MakeNodeSeeds(const fs::path& dir) {
  using tsss::index::Entry;
  using tsss::index::Node;
  using tsss::index::NodeCodec;
  using tsss::storage::Page;

  {  // internal node, dim 2
    NodeCodec codec(2, false);
    Node node;
    node.level = 1;
    node.entries = {
        Entry::ForChild(7, Box({0.0, -1.0}, {2.5, 1.0})),
        Entry::ForChild(9, Box({-4.0, 0.5}, {0.0, 3.0})),
    };
    Page page;
    if (!codec.Encode(node, &page).ok()) std::exit(1);
    WriteSeed(dir, "internal_dim2", NodeSeed(2, false, page));
  }
  {  // point leaf, dim 6 (the paper's default reduced dimensionality)
    NodeCodec codec(6, false);
    Node node;
    for (std::uint64_t r = 0; r < 5; ++r) {
      const std::vector<double> point = {0.5 * static_cast<double>(r), 1, 2,
                                         3, 4, 5};
      node.entries.push_back(Entry::ForRecord(r * 1000 + 1, point));
    }
    Page page;
    if (!codec.Encode(node, &page).ok()) std::exit(1);
    WriteSeed(dir, "leaf_points_dim6", NodeSeed(6, false, page));
  }
  {  // box leaf (sub-trail mode) whose reserved header word links a
     // continuation page, as multi-page nodes once did: Decode rejects it
    NodeCodec codec(3, true);
    Entry trail;
    trail.mbr = Box({0, 0, 0}, {1, 1, 1});
    trail.record = 42;
    Node node;
    node.entries = {trail};
    Page page;
    if (!codec.Encode(node, &page).ok()) std::exit(1);
    const std::uint32_t next = 12;  // the header's last u32, at byte 10
    std::memcpy(page.bytes.data() + 10, &next, sizeof(next));
    WriteSeed(dir, "leaf_boxes_dim3_chained", NodeSeed(3, true, page));
  }
  {  // empty leaf (a fresh root)
    NodeCodec codec(6, false);
    Page page;
    if (!codec.Encode(Node{}, &page).ok()) std::exit(1);
    WriteSeed(dir, "leaf_empty_dim6", NodeSeed(6, false, page));
  }
}

std::string DatasetBytes(const tsss::seq::Dataset& dataset) {
  std::ostringstream out(std::ios::binary);
  if (!tsss::seq::SaveDatasetToStream(out, dataset).ok()) std::exit(1);
  return out.str();
}

void MakePersistenceSeeds(const fs::path& dir) {
  {  // dataset with two series
    tsss::seq::Dataset dataset;
    const std::vector<double> a = {1.0, 2.5, -3.0, 4.25};
    const std::vector<double> b = {0.0, 0.5};
    dataset.Add("stock_a", a);
    dataset.Add("stock_b", b);
    WriteSeed(dir, "dataset_two_series", DatasetBytes(dataset));
  }
  {  // empty dataset (header + checksum only)
    WriteSeed(dir, "dataset_empty", DatasetBytes(tsss::seq::Dataset{}));
  }
  // engine.meta text exactly as SearchEngine::Checkpoint writes it.
  WriteSeed(dir, "engine_meta",
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
            "tree_split 2\n"
            "windows 873\n"
            "root 3\n"
            "height 2\n"
            "size 873\n");
}

void MakeCsvSeeds(const fs::path& dir) {
  {  // writer output for named + unnamed series
    std::vector<tsss::seq::TimeSeries> series = {
        {"prices", {101.25, 99.5, 103.125}},
        {"series1", {1.0, 2.0, 3.0, 4.0}},
    };
    WriteSeed(dir, "two_series", tsss::seq::ToCsv(series));
  }
  WriteSeed(dir, "comments_and_blanks",
            "# header comment\n"
            "\n"
            "alpha, 1.5, 2.5 ,3.5,\n"
            "  # indented comment\n"
            "9,8,7\n");
  WriteSeed(dir, "lonely_name", "lonely\n");
}

void MakePageCrcSeeds(const fs::path& dir) {
  // Arbitrary bytes; include a full page image so the harness's 4 KiB
  // equivalence branch is covered from the first run.
  tsss::storage::Page page;
  for (std::size_t i = 0; i < page.bytes.size(); ++i) {
    page.bytes[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  WriteSeed(dir, "full_page", PageBytes(page));
  WriteSeed(dir, "short_text", "crc me\n");
  WriteSeed(dir, "single_byte", std::string(1, '\0'));
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path out = argc > 1 ? fs::path(argv[1]) : fs::path("fuzz/corpus");
  MakePageCrcSeeds(out / "page_crc");
  MakeNodeSeeds(out / "node_decode");
  MakePersistenceSeeds(out / "persistence");
  MakeCsvSeeds(out / "csv");
  std::printf("seed corpus written under %s\n", out.c_str());
  return 0;
}

// Fuzz target: R-tree node decoding (index/node.cc, NodeCodec).
//
// The first two input bytes choose the codec configuration (dimension
// 1..16 and point vs box leaves); the rest becomes a 4 KiB page image.
// Properties:
//   1. Decode/View on arbitrary bytes never crash, abort a DCHECK, or trip
//      ASan/UBSan — malformed pages must come back as Status.
//   2. Anything Decode accepts re-encodes with Encode and decodes again to
//      the identical node (accepted input is round-trip stable).
//   3. View (the query read path's in-place reader) accepts exactly the
//      pages Decode accepts, with the same Status, and on accepted pages
//      every field it reads - level, count, child/record ids, every corner
//      bit pattern - matches the decoded node.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "fuzz_check.h"
#include "tsss/index/node.h"
#include "tsss/storage/page.h"

namespace {

void CheckRoundTrip(const tsss::index::NodeCodec& codec,
                    const tsss::index::Node& node) {
  tsss::storage::Page encoded;
  FUZZ_CHECK(codec.Encode(node, &encoded).ok());
  const tsss::Result<tsss::index::Node> again = codec.Decode(encoded);
  FUZZ_CHECK(again.ok());
  FUZZ_CHECK(again->level == node.level);
  FUZZ_CHECK(again->entries.size() == node.entries.size());
  for (std::size_t i = 0; i < node.entries.size(); ++i) {
    const tsss::index::Entry& a = node.entries[i];
    const tsss::index::Entry& b = again->entries[i];
    FUZZ_CHECK(a.child == b.child);
    FUZZ_CHECK(a.record == b.record);
    FUZZ_CHECK(a.mbr.lo() == b.mbr.lo());
    FUZZ_CHECK(a.mbr.hi() == b.mbr.hi());
  }
}

void CheckViewMatches(const tsss::index::NodeCodec& codec,
                      const tsss::storage::Page& page,
                      const tsss::Result<tsss::index::Node>& node) {
  const tsss::Result<tsss::index::NodeView> view = codec.View(page);
  FUZZ_CHECK(view.ok() == node.ok());
  if (!node.ok()) {
    FUZZ_CHECK(view.status().ToString() == node.status().ToString());
    return;
  }
  FUZZ_CHECK(view->level() == node->level);
  FUZZ_CHECK(view->size() == node->entries.size());
  std::vector<double> lo(codec.dim());
  std::vector<double> hi(codec.dim());
  for (std::size_t k = 0; k < view->size(); ++k) {
    const tsss::index::Entry& e = node->entries[k];
    if (view->is_leaf()) {
      FUZZ_CHECK(view->record(k) == e.record);
    } else {
      FUZZ_CHECK(view->child(k) == e.child);
    }
    view->Corners(k, lo, hi);
    FUZZ_CHECK(std::memcmp(lo.data(), e.mbr.lo().data(),
                           lo.size() * sizeof(double)) == 0);
    FUZZ_CHECK(std::memcmp(hi.data(), e.mbr.hi().data(),
                           hi.size() * sizeof(double)) == 0);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 2) return 0;
  const std::size_t dim = 1 + data[0] % 16;
  const bool box_leaves = (data[1] & 1) != 0;
  data += 2;
  size -= 2;

  tsss::storage::Page page;
  std::memcpy(page.bytes.data(), data,
              std::min(size, tsss::storage::kPageSize));

  const tsss::index::NodeCodec codec(dim, box_leaves);
  const tsss::Result<tsss::index::Node> node = codec.Decode(page);
  if (node.ok()) CheckRoundTrip(codec, *node);
  CheckViewMatches(codec, page, node);
  return 0;
}

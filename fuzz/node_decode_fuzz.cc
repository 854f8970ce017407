// Fuzz target: R-tree node decoding (index/node.cc, NodeCodec).
//
// The first two input bytes choose the codec configuration (dimension
// 1..16 and point vs box leaves); the rest becomes a 4 KiB page image.
// Properties:
//   1. DecodePart/Decode on arbitrary bytes never crash, abort a DCHECK,
//      or trip ASan/UBSan — malformed pages must come back as Status.
//   2. Anything DecodePart accepts re-encodes with EncodePart and decodes
//      again to the identical part (accepted input is round-trip stable).
//   3. View (the query read path's in-place reader) accepts exactly the
//      pages DecodePart accepts, with the same Status, and on accepted
//      pages every field it reads - level, next, count, child/record ids,
//      every corner bit pattern - matches the decoded part.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "fuzz_check.h"
#include "tsss/index/node.h"
#include "tsss/storage/page.h"

namespace {

void CheckRoundTrip(const tsss::index::NodeCodec& codec,
                    const tsss::index::NodePart& part) {
  tsss::storage::Page encoded;
  const tsss::Status s =
      codec.EncodePart(part.level, part.entries, part.next, &encoded);
  FUZZ_CHECK(s.ok());
  const tsss::Result<tsss::index::NodePart> again = codec.DecodePart(encoded);
  FUZZ_CHECK(again.ok());
  FUZZ_CHECK(again->level == part.level);
  FUZZ_CHECK(again->next == part.next);
  FUZZ_CHECK(again->entries.size() == part.entries.size());
  for (std::size_t i = 0; i < part.entries.size(); ++i) {
    const tsss::index::Entry& a = part.entries[i];
    const tsss::index::Entry& b = again->entries[i];
    FUZZ_CHECK(a.child == b.child);
    FUZZ_CHECK(a.record == b.record);
    FUZZ_CHECK(a.mbr.lo() == b.mbr.lo());
    FUZZ_CHECK(a.mbr.hi() == b.mbr.hi());
  }
}

void CheckViewMatches(const tsss::index::NodeCodec& codec,
                      const tsss::storage::Page& page,
                      const tsss::Result<tsss::index::NodePart>& part) {
  const tsss::Result<tsss::index::NodeView> view = codec.View(page);
  FUZZ_CHECK(view.ok() == part.ok());
  if (!part.ok()) {
    FUZZ_CHECK(view.status().ToString() == part.status().ToString());
    return;
  }
  FUZZ_CHECK(view->level() == part->level);
  FUZZ_CHECK(view->next() == part->next);
  FUZZ_CHECK(view->size() == part->entries.size());
  std::vector<double> lo(codec.dim());
  std::vector<double> hi(codec.dim());
  for (std::size_t k = 0; k < view->size(); ++k) {
    const tsss::index::Entry& e = part->entries[k];
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
  const tsss::Result<tsss::index::NodePart> part = codec.DecodePart(page);
  if (part.ok()) CheckRoundTrip(codec, *part);
  CheckViewMatches(codec, page, part);

  // The single-page entry point applies one extra validation (no chain
  // link); it must be just as robust.
  // discard-ok: fuzz target — only crashes/hangs matter, any Status is fine.
  (void)codec.Decode(page);
  return 0;
}

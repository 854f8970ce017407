#include "tsss/index/node.h"

#include <cmath>
#include <cstring>
#include <string>

namespace tsss::index {
namespace {

constexpr std::uint16_t kMagic = 0x5254;  // "RT"
constexpr std::uint16_t kFlagBoxLeaves = 0x1;
constexpr std::size_t kHeaderBytes =
    5 * sizeof(std::uint16_t) + sizeof(std::uint32_t);
/// The header's last word is reserved. Multi-page nodes once chained their
/// pages through it; a one-page node always held kInvalidPageId there, so any
/// other value marks a page this codec cannot read.
constexpr std::uint32_t kReserved = storage::kInvalidPageId;

std::size_t InternalEntryBytes(std::size_t dim) {
  return sizeof(std::uint32_t) + 2 * dim * sizeof(double);
}

std::size_t LeafEntryBytes(std::size_t dim, bool box_leaves) {
  return sizeof(std::uint64_t) + (box_leaves ? 2 : 1) * dim * sizeof(double);
}

class Writer {
 public:
  explicit Writer(storage::Page* page) : page_(page) {}

  template <typename T>
  void Put(T value) {
    std::memcpy(page_->bytes.data() + pos_, &value, sizeof(T));
    pos_ += sizeof(T);
  }

  std::size_t pos() const { return pos_; }

 private:
  storage::Page* page_;
  std::size_t pos_ = 0;
};

class Reader {
 public:
  explicit Reader(const storage::Page* page) : page_(page) {}

  template <typename T>
  T Get() {
    T value;
    std::memcpy(&value, page_->bytes.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

 private:
  const storage::Page* page_;
  std::size_t pos_ = 0;
};

}  // namespace

geom::Mbr Node::ComputeMbr(std::size_t dim) const {
  geom::Mbr out(dim);
  for (const Entry& e : entries) out.Extend(e.mbr);
  return out;
}

NodeCodec::NodeCodec(std::size_t dim, bool box_leaves)
    : dim_(dim),
      box_leaves_(box_leaves),
      max_internal_((storage::kPageSize - kHeaderBytes) / InternalEntryBytes(dim)),
      max_leaf_((storage::kPageSize - kHeaderBytes) /
                LeafEntryBytes(dim, box_leaves)) {}

Status NodeCodec::Encode(const Node& node, storage::Page* page) const {
  const bool is_leaf = node.is_leaf();
  const std::size_t cap = is_leaf ? max_leaf_ : max_internal_;
  if (node.entries.size() > cap) {
    return Status::ResourceExhausted(
        "node with " + std::to_string(node.entries.size()) +
        " entries exceeds page capacity " + std::to_string(cap));
  }
  page->bytes.fill(0);
  Writer w(page);
  w.Put<std::uint16_t>(kMagic);
  w.Put<std::uint16_t>(node.level);
  w.Put<std::uint16_t>(static_cast<std::uint16_t>(node.entries.size()));
  w.Put<std::uint16_t>(static_cast<std::uint16_t>(dim_));
  w.Put<std::uint16_t>(box_leaves_ ? kFlagBoxLeaves : 0);
  w.Put<std::uint32_t>(kReserved);
  for (const Entry& e : node.entries) {
    if (e.mbr.dim() != dim_) {
      return Status::InvalidArgument("entry dimensionality mismatch: expected " +
                                     std::to_string(dim_) + ", got " +
                                     std::to_string(e.mbr.dim()));
    }
    if (e.mbr.empty()) {
      return Status::InvalidArgument("cannot encode an empty MBR entry");
    }
    if (is_leaf) {
      w.Put<std::uint64_t>(e.record);
      for (std::size_t i = 0; i < dim_; ++i) w.Put<double>(e.mbr.lo()[i]);
      if (box_leaves_) {
        for (std::size_t i = 0; i < dim_; ++i) w.Put<double>(e.mbr.hi()[i]);
      }
    } else {
      w.Put<std::uint32_t>(e.child);
      for (std::size_t i = 0; i < dim_; ++i) w.Put<double>(e.mbr.lo()[i]);
      for (std::size_t i = 0; i < dim_; ++i) w.Put<double>(e.mbr.hi()[i]);
    }
  }
  return Status::OK();
}

Result<NodeView> NodeCodec::View(const storage::Page& page) const {
  Reader r(&page);
  const std::uint16_t magic = r.Get<std::uint16_t>();
  if (magic != kMagic) {
    return Status::Corruption("bad node magic " + std::to_string(magic));
  }
  NodeView view;
  view.level_ = r.Get<std::uint16_t>();
  const std::uint16_t count = r.Get<std::uint16_t>();
  const std::uint16_t dim = r.Get<std::uint16_t>();
  const std::uint16_t flags = r.Get<std::uint16_t>();
  const std::uint32_t reserved = r.Get<std::uint32_t>();
  if (reserved != kReserved) {
    return Status::Corruption("node header reserved word is " +
                              std::to_string(reserved));
  }
  if ((flags & kFlagBoxLeaves) != (box_leaves_ ? kFlagBoxLeaves : 0)) {
    return Status::Corruption("node leaf-layout flag does not match codec");
  }
  if (dim != dim_) {
    return Status::Corruption("node dim " + std::to_string(dim) +
                              " does not match codec dim " + std::to_string(dim_));
  }
  const bool is_leaf = view.level_ == 0;
  const std::size_t cap = is_leaf ? max_leaf_ : max_internal_;
  if (count > cap) {
    return Status::Corruption("node entry count " + std::to_string(count) +
                              " exceeds capacity " + std::to_string(cap));
  }
  view.entries_ = page.bytes.data() + kHeaderBytes;
  view.entry_bytes_ =
      is_leaf ? LeafEntryBytes(dim_, box_leaves_) : InternalEntryBytes(dim_);
  view.id_bytes_ = is_leaf ? sizeof(std::uint64_t) : sizeof(std::uint32_t);
  view.dim_ = dim_;
  view.count_ = count;
  view.has_box_ = !is_leaf || box_leaves_;

  // The coordinates come straight from an untrusted page image; validate
  // them all here so corruption surfaces as a Status before any reader sees
  // the node, instead of tripping the Mbr invariant checks (no NaN/inf,
  // lo <= hi) further in - in checked builds those abort, which would turn
  // bad bytes into a crash.
  for (std::size_t k = 0; k < view.count_; ++k) {
    const std::uint8_t* lo = view.EntryAt(k) + view.id_bytes_;
    const std::uint8_t* hi = view.has_box_ ? lo + dim_ * sizeof(double) : lo;
    for (std::size_t i = 0; i < dim_; ++i) {
      const double l = NodeView::Load<double>(lo + i * sizeof(double));
      const double h = NodeView::Load<double>(hi + i * sizeof(double));
      if (!std::isfinite(l) || !std::isfinite(h)) {
        return Status::Corruption("node entry " + std::to_string(k) +
                                  " has a non-finite coordinate");
      }
      if (l > h) {
        return Status::Corruption("node entry " + std::to_string(k) +
                                  " has an inverted box (lo > hi) in dim " +
                                  std::to_string(i));
      }
    }
  }
  return view;
}

void NodeView::AppendEntries(std::vector<Entry>* out) const {
  out->reserve(out->size() + count_);
  for (std::size_t k = 0; k < count_; ++k) {
    geom::Vec lo(dim_);
    geom::Vec hi(dim_);
    Corners(k, lo, hi);
    Entry e;
    if (is_leaf()) {
      e.record = record(k);
    } else {
      e.child = child(k);
    }
    e.mbr = geom::Mbr::FromCorners(std::move(lo), std::move(hi));
    out->push_back(std::move(e));
  }
}

Result<Node> NodeCodec::Decode(const storage::Page& page) const {
  Result<NodeView> view = View(page);
  if (!view.ok()) return view.status();
  Node node;
  node.level = view->level();
  view->AppendEntries(&node.entries);
  return node;
}

}  // namespace tsss::index

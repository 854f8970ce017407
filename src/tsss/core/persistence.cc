// Engine persistence: Checkpoint() writes everything needed to re-open a
// file-backed engine; Open() restores it. The page file already holds the
// R-tree; what is saved here is the dataset (raw series) and a small
// metadata file with the engine configuration and the tree's root/shape.

#include <cmath>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <string>

#include "tsss/core/engine.h"
#include "tsss/seq/dataset_io.h"
#include "tsss/storage/file_page_store.h"

namespace tsss::core {
namespace {

constexpr char kMetaVersion[] = "tsss-engine-meta-v1";

std::string MetaPath(const std::string& dir) { return dir + "/engine.meta"; }
std::string DatasetPath(const std::string& dir) { return dir + "/dataset.bin"; }

/// Largest double that converts to an integer without losing exactness
/// (2^53); also comfortably bounds every legitimate metadata value.
constexpr double kMaxIntegralDouble = 9007199254740992.0;

/// Checked double -> size_t narrowing for untrusted metadata values: the
/// raw static_cast is undefined behaviour for NaN, infinities, negatives
/// and out-of-range magnitudes (UBSan float-cast-overflow), all of which a
/// corrupt file can contain.
Status MetaToSize(double value, const char* key, std::size_t* out) {
  if (!std::isfinite(value) || value < 0.0 || value > kMaxIntegralDouble ||
      value != std::floor(value)) {
    return Status::Corruption(std::string("engine metadata key '") + key +
                              "' has non-integral or out-of-range value");
  }
  *out = static_cast<std::size_t>(value);
  return Status::OK();
}

/// Checked double -> enum conversion: the value must be integral and one of
/// 0..max_value (the enums are dense and zero-based).
Status MetaToEnumInt(double value, const char* key, int max_value, int* out) {
  std::size_t v = 0;
  Status s = MetaToSize(value, key, &v);
  if (!s.ok()) return s;
  if (v > static_cast<std::size_t>(max_value)) {
    return Status::Corruption(std::string("engine metadata key '") + key +
                              "' names an unknown enumerator " +
                              std::to_string(v));
  }
  *out = static_cast<int>(v);
  return Status::OK();
}

Status MetaToFraction(double value, const char* key, double* out) {
  if (!std::isfinite(value)) {
    return Status::Corruption(std::string("engine metadata key '") + key +
                              "' is not finite");
  }
  *out = value;
  return Status::OK();
}

}  // namespace

Result<EngineMeta> ParseEngineMeta(std::istream& in) {
  std::string version;
  if (!std::getline(in, version) || version != kMetaVersion) {
    return Status::Corruption("unsupported engine metadata version '" + version +
                              "'");
  }
  std::map<std::string, double> kv;
  std::string key;
  double value;
  while (in >> key >> value) kv[key] = value;
  for (const char* required :
       {"window", "stride", "subtrail", "reducer", "reduced_dim", "prune",
        "pool_pages", "cold_cache", "tree_max", "tree_leaf_max",
        "tree_min_fill", "tree_split", "tree_reinsert", "windows", "root",
        "height", "size"}) {
    if (kv.find(required) == kv.end()) {
      return Status::Corruption(std::string("engine metadata missing key '") +
                                required + "'");
    }
  }
  // Older checkpoints also recorded the X-tree supernode settings. The
  // feature is gone, so such a meta still opens while supernodes were off,
  // and an index that may hold multi-page nodes is refused.
  const auto supernodes = kv.find("supernodes");
  if (supernodes != kv.end() && supernodes->second != 0) {
    return Status::Corruption(
        "engine metadata enables X-tree supernodes, which are no longer "
        "supported");
  }

  EngineMeta meta;
  EngineConfig& config = meta.config;
  Status s = MetaToSize(kv["window"], "window", &config.window);
  if (!s.ok()) return s;
  s = MetaToSize(kv["stride"], "stride", &config.stride);
  if (!s.ok()) return s;
  s = MetaToSize(kv["subtrail"], "subtrail", &config.subtrail_len);
  if (!s.ok()) return s;
  int enum_value = 0;
  s = MetaToEnumInt(kv["reducer"], "reducer",
                    static_cast<int>(reduce::ReducerKind::kHaar), &enum_value);
  if (!s.ok()) return s;
  config.reducer = static_cast<reduce::ReducerKind>(enum_value);
  s = MetaToSize(kv["reduced_dim"], "reduced_dim", &config.reduced_dim);
  if (!s.ok()) return s;
  s = MetaToEnumInt(kv["prune"], "prune",
                    static_cast<int>(geom::PruneStrategy::kExactDistance),
                    &enum_value);
  if (!s.ok()) return s;
  config.prune = static_cast<geom::PruneStrategy>(enum_value);
  s = MetaToSize(kv["pool_pages"], "pool_pages", &config.buffer_pool_pages);
  if (!s.ok()) return s;
  config.cold_cache_per_query = kv["cold_cache"] != 0;
  s = MetaToSize(kv["tree_max"], "tree_max", &config.tree.max_entries);
  if (!s.ok()) return s;
  s = MetaToSize(kv["tree_leaf_max"], "tree_leaf_max",
                 &config.tree.leaf_max_entries);
  if (!s.ok()) return s;
  s = MetaToFraction(kv["tree_min_fill"], "tree_min_fill",
                     &config.tree.min_fill_fraction);
  if (!s.ok()) return s;
  s = MetaToEnumInt(kv["tree_split"], "tree_split",
                    static_cast<int>(index::SplitAlgorithm::kRStar),
                    &enum_value);
  if (!s.ok()) return s;
  config.tree.split = static_cast<index::SplitAlgorithm>(enum_value);
  s = MetaToFraction(kv["tree_reinsert"], "tree_reinsert",
                     &config.tree.reinsert_fraction);
  if (!s.ok()) return s;
  s = MetaToSize(kv["windows"], "windows", &meta.indexed_windows);
  if (!s.ok()) return s;
  std::size_t root = 0;
  s = MetaToSize(kv["root"], "root", &root);
  if (!s.ok()) return s;
  if (root > static_cast<std::size_t>(storage::kInvalidPageId)) {
    return Status::Corruption("engine metadata root page id out of range");
  }
  meta.root = static_cast<storage::PageId>(root);
  s = MetaToSize(kv["height"], "height", &meta.height);
  if (!s.ok()) return s;
  s = MetaToSize(kv["size"], "size", &meta.tree_size);
  if (!s.ok()) return s;
  return meta;
}

Status SearchEngine::Checkpoint() {
  if (config_.storage_dir.empty()) {
    return Status::FailedPrecondition(
        "Checkpoint requires an engine created with a storage_dir");
  }
  Status s = pool_->FlushAll();
  if (!s.ok()) return s;
  s = page_store_->Sync();
  if (!s.ok()) return s;
  s = seq::SaveDataset(DatasetPath(config_.storage_dir), dataset_);
  if (!s.ok()) return s;

  std::ofstream meta(MetaPath(config_.storage_dir), std::ios::trunc);
  if (!meta) {
    return Status::IoError("cannot write '" + MetaPath(config_.storage_dir) + "'");
  }
  meta << kMetaVersion << '\n';
  meta << "window " << config_.window << '\n';
  meta << "stride " << config_.stride << '\n';
  meta << "subtrail " << config_.subtrail_len << '\n';
  meta << "reducer " << static_cast<int>(config_.reducer) << '\n';
  meta << "reduced_dim " << config_.reduced_dim << '\n';
  meta << "prune " << static_cast<int>(config_.prune) << '\n';
  meta << "pool_pages " << config_.buffer_pool_pages << '\n';
  meta << "cold_cache " << (config_.cold_cache_per_query ? 1 : 0) << '\n';
  meta << "tree_max " << config_.tree.max_entries << '\n';
  meta << "tree_leaf_max " << config_.tree.leaf_max_entries << '\n';
  meta << "tree_min_fill " << config_.tree.min_fill_fraction << '\n';
  meta << "tree_split " << static_cast<int>(config_.tree.split) << '\n';
  meta << "tree_reinsert " << config_.tree.reinsert_fraction << '\n';
  meta << "windows " << indexed_windows_ << '\n';
  meta << "root " << tree_->root_page() << '\n';
  meta << "height " << tree_->height() << '\n';
  meta << "size " << tree_->size() << '\n';
  meta.flush();
  if (!meta) return Status::IoError("metadata write failed");
  return Status::OK();
}

Result<std::unique_ptr<SearchEngine>> SearchEngine::Open(
    const std::string& storage_dir) {
  std::ifstream meta_file(MetaPath(storage_dir));
  if (!meta_file) {
    return Status::IoError("cannot open '" + MetaPath(storage_dir) + "'");
  }
  Result<EngineMeta> meta = ParseEngineMeta(meta_file);
  if (!meta.ok()) return meta.status();

  EngineConfig config = meta->config;
  config.storage_dir = storage_dir;
  Result<std::unique_ptr<SearchEngine>> engine = Assemble(
      config,
      [](const std::string& dir) {
        return storage::FilePageStore::Open(dir + "/pages.tsss");
      },
      [&meta](storage::BufferPool* pool, const index::RTreeConfig& tree) {
        return index::RTree::Attach(pool, tree, meta->root, meta->height,
                                    meta->tree_size);
      });
  if (!engine.ok()) return engine.status();
  (*engine)->indexed_windows_ = meta->indexed_windows;

  Status s = seq::LoadDataset(DatasetPath(storage_dir), &(*engine)->dataset_);
  if (!s.ok()) return s;
  return engine;
}

}  // namespace tsss::core

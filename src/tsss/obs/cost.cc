#include "tsss/obs/cost.h"

#include <ctime>
#include <string>
#include <vector>

#include "tsss/obs/histogram.h"
#include "tsss/obs/metrics.h"

namespace tsss::obs {

std::uint64_t ThreadCpuNowUs() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
}

namespace {

/// The metrics one label pair rolls into.
struct CostMetrics {
  std::string key;
  std::string value;
  LatencyHistogram* cpu = nullptr;
  Counter* pages_hit = nullptr;
  Counter* pages_miss = nullptr;
  Counter* data_pages = nullptr;
  Counter* bytes = nullptr;
  Counter* candidates = nullptr;
};

CostMetrics Resolve(const std::string& key, const std::string& value) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  CostMetrics m;
  m.key = key;
  m.value = value;
  m.cpu = reg.GetHistogram(WithLabel("tsss_query_cost_cpu", key, value),
                           "Per-query thread-CPU time");
  m.pages_hit = reg.GetCounter(
      WithLabel("tsss_query_cost_pages_hit_total", key, value),
      "Index-page reads served by the buffer pool, attributed per query");
  m.pages_miss = reg.GetCounter(
      WithLabel("tsss_query_cost_pages_miss_total", key, value),
      "Index-page reads that missed the buffer pool, attributed per query");
  m.data_pages = reg.GetCounter(
      WithLabel("tsss_query_cost_data_pages_total", key, value),
      "Raw-data pages read for verification, attributed per query");
  m.bytes = reg.GetCounter(
      WithLabel("tsss_query_cost_bytes_total", key, value),
      "Bytes moved through the page interfaces, attributed per query");
  m.candidates = reg.GetCounter(
      WithLabel("tsss_query_cost_candidates_total", key, value),
      "Windows exactly verified, attributed per query");
  return m;
}

/// Label pairs a thread keeps resolved; past this, pairs are resolved
/// through the registry on every call.
constexpr std::size_t kMaxCachedLabels = 16;

}  // namespace

void RecordQueryCost(const std::string& label_key,
                     const std::string& label_value, const QueryCost& cost) {
  // Registry metrics are never destroyed, so resolved pointers stay valid
  // for the process; each thread keeps the few label pairs it uses (query
  // kinds, shard ids) and skips the registry's mutex and map lookups.
  thread_local std::vector<CostMetrics> cache;
  const CostMetrics* m = nullptr;
  for (const CostMetrics& cached : cache) {
    if (cached.key == label_key && cached.value == label_value) m = &cached;
  }
  CostMetrics uncached;
  if (m == nullptr) {
    uncached = Resolve(label_key, label_value);
    m = &uncached;
    if (cache.size() < kMaxCachedLabels) {
      cache.push_back(std::move(uncached));
      m = &cache.back();
    }
  }
  m->cpu->RecordUs(cost.cpu_us);
  m->pages_hit->Inc(cost.pages_hit);
  m->pages_miss->Inc(cost.pages_miss);
  m->data_pages->Inc(cost.data_pages);
  m->bytes->Inc(cost.bytes_touched);
  m->candidates->Inc(cost.candidates_verified);
}

}  // namespace tsss::obs

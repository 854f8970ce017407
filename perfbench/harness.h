#ifndef TSSS_PERFBENCH_HARNESS_H_
#define TSSS_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the perfbench workloads: clocks, order
// statistics, the answer comparison used by every correctness check, an
// in-memory span log written out when a traced run ends, and the metric
// report whose last line is the machine-readable result.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "tsss/core/similarity.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Ratio that reads 0 instead of NaN when nothing was counted.
inline double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The canonical k-NN order of SearchEngine: distance, then record id.
inline bool CanonicalLess(const tsss::core::Match& a,
                          const tsss::core::Match& b) {
  return a.distance < b.distance ||
         (a.distance == b.distance && a.record < b.record);
}

/// True when two answers hold the same windows at bit-identical distances.
/// Both are compared in canonical order, which the sequential scanner's
/// k-NN answer need not be in.
inline bool SameAnswer(std::vector<tsss::core::Match> a,
                       std::vector<tsss::core::Match> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end(), CanonicalLess);
  std::sort(b.begin(), b.end(), CanonicalLess);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].record != b[i].record || a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

/// One timed call into a layer. Spans of one operation share `op`; `parent`
/// indexes the enclosing span in the same log (-1 for the operation itself).
struct Span {
  std::uint64_t op = 0;
  const char* name = "";
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 0;  ///< work the call did (nodes, candidates, ...)
  /// Time inside the layer. Equals end - start except for a layer whose
  /// calls interleave with another's in one loop (the k-NN index walk).
  std::int64_t busy_ns = 0;
};

/// Append-only span buffer for one client thread; nothing is written until
/// the run ends, so recording costs a clock read and a vector push.
class SpanLog {
 public:
  std::int64_t Begin(std::uint64_t op, const char* name, std::int64_t parent) {
    spans_.push_back(Span{op, name, parent, NowNs(), 0, 0, 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Records a span whose interval the caller already measured.
  std::int64_t Add(std::uint64_t op, const char* name, std::int64_t parent,
                   std::int64_t start_ns, std::int64_t end_ns,
                   std::uint64_t count, std::int64_t busy_ns = -1) {
    spans_.push_back(Span{op, name, parent, start_ns, end_ns, count,
                          busy_ns < 0 ? end_ns - start_ns : busy_ns});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void End(std::int64_t index, std::uint64_t count = 0) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = NowNs();
    span.count = count;
    span.busy_ns = span.end_ns - span.start_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Writes every client's spans as JSON lines, one span per line.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t client = 0; client < logs.size(); ++client) {
    for (const Span& s : logs[client]->spans()) {
      std::fprintf(out,
                   "{\"client\":%zu,\"op\":%llu,\"name\":\"%s\",\"parent\":%lld,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"busy_ns\":%lld,"
                   "\"count\":%llu}\n",
                   client, static_cast<unsigned long long>(s.op), s.name,
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.busy_ns),
                   static_cast<unsigned long long>(s.count));
    }
  }
  return std::fclose(out) == 0;
}

/// Named metrics in insertion order, printed as a table and as the final
/// JSON result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }

  void PrintTable(const std::string& title) const {
    std::printf("# %s\n", title.c_str());
    for (const Metric& m : metrics_) {
      std::printf("#   %-32s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  bool AllFinite() const {
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) return false;
    }
    return true;
  }

  std::string Json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i != 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // TSSS_PERFBENCH_HARNESS_H_

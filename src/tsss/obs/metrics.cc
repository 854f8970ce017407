#include "tsss/obs/metrics.h"

#include <cstdio>
#include <utility>

#include "tsss/obs/json.h"

namespace tsss::obs {

namespace {

// Fixed 6-decimal formatting keeps exporter output deterministic across
// locales and libc versions (golden tests depend on it).
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, Entry<Counter>{help, std::make_unique<Counter>()})
             .first;
  }
  return it->second.metric.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, Entry<Gauge>{help, std::make_unique<Gauge>()})
             .first;
  }
  return it->second.metric.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                                const std::string& help) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, Entry<LatencyHistogram>{
                                help, std::make_unique<LatencyHistogram>()})
             .first;
  }
  return it->second.metric.get();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::vector<MetricSample> out;
  MutexLock lock(mu_);
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, entry] : counters_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kCounter;
    s.name = name;
    s.help = entry.help;
    s.counter_value = entry.metric->Value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, entry] : gauges_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kGauge;
    s.name = name;
    s.help = entry.help;
    s.gauge_value = entry.metric->Value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, entry] : histograms_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kHistogram;
    s.name = name;
    s.help = entry.help;
    s.hist_count = entry.metric->Count();
    s.hist_sum_us = entry.metric->SumUs();
    s.hist_p50_ms = entry.metric->PercentileMs(0.50);
    s.hist_p90_ms = entry.metric->PercentileMs(0.90);
    s.hist_p99_ms = entry.metric->PercentileMs(0.99);
    out.push_back(std::move(s));
  }
  return out;
}

std::string WithLabel(const std::string& base, const std::string& key,
                      const std::string& value) {
  return base + "{" + key + "=\"" + value + "\"}";
}

std::string ExportPrometheus(const std::vector<MetricSample>& samples) {
  std::string out;
  // The snapshot is name-sorted, so all labelled variants of a base follow
  // each other (and any unlabelled sample of the same base): one HELP/TYPE
  // header covers the run.
  std::string last_base;
  for (const MetricSample& s : samples) {
    const std::string base = s.name.substr(0, s.name.find('{'));
    const bool new_base = base != last_base;
    last_base = base;
    if (!s.help.empty() && new_base) {
      out += "# HELP " + base + " " + s.help + "\n";
    }
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        if (new_base) out += "# TYPE " + base + " counter\n";
        out += s.name + " " + std::to_string(s.counter_value) + "\n";
        break;
      case MetricSample::Kind::kGauge:
        if (new_base) out += "# TYPE " + base + " gauge\n";
        out += s.name + " " + std::to_string(s.gauge_value) + "\n";
        break;
      case MetricSample::Kind::kHistogram: {
        // Prometheus summaries report quantile values in seconds. A labelled
        // name ("base{shard=\"0\"}") folds its labels into the quantile label
        // set and moves them after the _sum/_count suffixes, so every series
        // keeps the "one brace group at the end" exposition grammar.
        const std::size_t brace = s.name.find('{');
        const std::string labels =
            brace == std::string::npos
                ? ""
                : s.name.substr(brace + 1, s.name.size() - brace - 2);
        const std::string label_prefix = labels.empty() ? "" : labels + ",";
        const std::string label_suffix =
            labels.empty() ? "" : "{" + labels + "}";
        if (new_base) out += "# TYPE " + base + " summary\n";
        out += base + "{" + label_prefix + "quantile=\"0.5\"} " +
               FormatDouble(s.hist_p50_ms / 1000.0) + "\n";
        out += base + "{" + label_prefix + "quantile=\"0.9\"} " +
               FormatDouble(s.hist_p90_ms / 1000.0) + "\n";
        out += base + "{" + label_prefix + "quantile=\"0.99\"} " +
               FormatDouble(s.hist_p99_ms / 1000.0) + "\n";
        out += base + "_sum" + label_suffix + " " +
               FormatDouble(static_cast<double>(s.hist_sum_us) / 1e6) + "\n";
        out += base + "_count" + label_suffix + " " +
               std::to_string(s.hist_count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string ExportJson(const std::vector<MetricSample>& samples) {
  std::string counters, gauges, histograms;
  for (const MetricSample& s : samples) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        if (!counters.empty()) counters += ",";
        counters += "\"" + JsonEscape(s.name) +
                    "\":" + std::to_string(s.counter_value);
        break;
      case MetricSample::Kind::kGauge:
        if (!gauges.empty()) gauges += ",";
        gauges +=
            "\"" + JsonEscape(s.name) + "\":" + std::to_string(s.gauge_value);
        break;
      case MetricSample::Kind::kHistogram:
        if (!histograms.empty()) histograms += ",";
        histograms += "\"" + JsonEscape(s.name) + "\":{\"count\":" +
                      std::to_string(s.hist_count) +
                      ",\"sum_us\":" + std::to_string(s.hist_sum_us) +
                      ",\"p50_ms\":" + FormatDouble(s.hist_p50_ms) +
                      ",\"p90_ms\":" + FormatDouble(s.hist_p90_ms) +
                      ",\"p99_ms\":" + FormatDouble(s.hist_p99_ms) + "}";
        break;
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}\n";
}

}  // namespace tsss::obs

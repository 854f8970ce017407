#include "tsss/obs/flight_recorder.h"

#include <utility>

#include "tsss/obs/json.h"

namespace tsss::obs {

namespace {

/// Embeds an already-rendered JSON document as a nested value, trimming the
/// trailing newline our renderers end documents with.
void AppendDocument(std::string* out, const std::string& doc) {
  std::size_t end = doc.size();
  while (end > 0 && (doc[end - 1] == '\n' || doc[end - 1] == ' ')) --end;
  out->append(doc, 0, end);
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::Arm(std::uint64_t threshold_us,
                         std::uint64_t max_per_sec) {
  {
    MutexLock lock(mu_);
    max_per_sec_ = max_per_sec == 0 ? 1 : max_per_sec;
    window_count_ = 0;
    window_start_ = std::chrono::steady_clock::now();
  }
  // relaxed-ok: advisory arming flag + threshold; see armed()
  threshold_us_.store(threshold_us, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_relaxed);  // relaxed-ok: advisory flag
}

void FlightRecorder::Disarm() {
  // relaxed-ok: advisory arming flag; see armed()
  armed_.store(false, std::memory_order_relaxed);
}

bool FlightRecorder::MaybeCapture(FlightRecord record) {
  MutexLock lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  if (now - window_start_ >= std::chrono::seconds(1)) {
    window_start_ = now;
    window_count_ = 0;
  }
  if (window_count_ >= max_per_sec_) {
    ++dropped_;
    return false;
  }
  ++window_count_;
  record.id = ++next_id_;
  if (ring_.size() == capacity_) ring_.pop_front();
  ring_.push_back(std::move(record));
  return true;
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  MutexLock lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t FlightRecorder::captured() const {
  MutexLock lock(mu_);
  return next_id_;
}

std::uint64_t FlightRecorder::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

void FlightRecorder::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
}

std::string FlightRecorder::DumpJson() const {
  std::string out = "{\"schema_version\":1,\"report\":\"flight\"";
  out += ",\"armed\":" + std::to_string(armed() ? 1 : 0);
  out += ",\"threshold_us\":" + std::to_string(threshold_us());
  out += ",\"capacity\":" + std::to_string(capacity_);
  {
    MutexLock lock(mu_);
    out += ",\"captured\":" + std::to_string(next_id_);
    out += ",\"dropped\":" + std::to_string(dropped_);
    out += ",\"records\":[";
    bool first = true;
    for (const FlightRecord& r : ring_) {
      if (!first) out += ",";
      first = false;
      out += "\n{\"id\":" + std::to_string(r.id);
      out += ",\"kind\":\"";
      out += JsonEscape(r.kind);
      out += "\",\"outcome\":\"";
      out += JsonEscape(r.outcome);
      out += "\",\"latency_us\":" + std::to_string(r.latency_us);
      out += ",\"cost\":";
      AppendExplainCostJson(r.explain, &out);
      out += ",\"explain\":";
      if (r.has_explain) {
        AppendDocument(&out, RenderExplainJson(r.explain));
      } else {
        out += "null";
      }
      out += ",\"trace\":";
      if (!r.trace_json.empty()) {
        AppendDocument(&out, r.trace_json);
      } else {
        out += "null";
      }
      out += "}";
    }
    out += "]}\n";
  }
  return out;
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* const recorder = new FlightRecorder();
  return *recorder;
}

}  // namespace tsss::obs

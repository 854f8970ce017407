#include "tsss/obs/explain.h"

#include <cstdio>

#include "tsss/obs/json.h"
#include "tsss/obs/trace.h"

namespace tsss::obs {

namespace {

/// %-of-total with one decimal; "-" when the universe is empty.
std::string Pct(std::uint64_t part, std::uint64_t total) {
  char buf[32];
  if (total == 0) {
    std::snprintf(buf, sizeof(buf), "%7s", "-");
  } else {
    std::snprintf(buf, sizeof(buf), "%6.1f%%",
                  100.0 * static_cast<double>(part) /
                      static_cast<double>(total));
  }
  return buf;
}

void Row(std::string* out, const char* label, std::uint64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  %-26s %10llu\n", label,
                static_cast<unsigned long long>(value));
  *out += buf;
}

void RowPct(std::string* out, const char* label, std::uint64_t value,
            std::uint64_t total) {
  char buf[112];
  std::snprintf(buf, sizeof(buf), "  %-26s %10llu  %s\n", label,
                static_cast<unsigned long long>(value), Pct(value, total).c_str());
  *out += buf;
}

void AppendU64(std::string* out, const char* key, std::uint64_t v,
               bool* first) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", *first ? "" : ",", key,
                static_cast<unsigned long long>(v));
  *first = false;
  *out += buf;
}

}  // namespace

bool explain_accounted(const ExplainReport& r) {
  return r.entries_tested == r.ep_prunes + r.bs_prunes + r.exact_prunes +
                                 r.descents + r.accepted_leaf_entries;
}

ExplainReport MergeExplainReports(const std::vector<ExplainReport>& parts) {
  ExplainReport merged;
  if (parts.empty()) return merged;

  // Query identity: the fan-out issues the same logical query to every
  // partition, so the first part speaks for all of them.
  merged.kind = parts.front().kind;
  merged.eps = parts.front().eps;
  merged.k = parts.front().k;
  merged.prune_strategy = parts.front().prune_strategy;

  for (const ExplainReport& part : parts) {
    if (part.elapsed_us > merged.elapsed_us) merged.elapsed_us = part.elapsed_us;
    if (part.tree_height > merged.tree_height) {
      merged.tree_height = part.tree_height;
    }
    if (part.levels.size() > merged.levels.size()) {
      std::size_t old = merged.levels.size();
      merged.levels.resize(part.levels.size());
      for (std::size_t i = old; i < merged.levels.size(); ++i) {
        merged.levels[i].level = i;
      }
    }
    for (std::size_t i = 0; i < part.levels.size(); ++i) {
      merged.levels[i].visited += part.levels[i].visited;
      merged.levels[i].total += part.levels[i].total;
    }

    merged.tree_nodes += part.tree_nodes;
    merged.nodes_visited += part.nodes_visited;
    merged.entries_tested += part.entries_tested;
    merged.ep_prunes += part.ep_prunes;
    merged.bs_prunes += part.bs_prunes;
    merged.exact_prunes += part.exact_prunes;
    merged.descents += part.descents;
    merged.accepted_leaf_entries += part.accepted_leaf_entries;
    merged.mbr_distance_evals += part.mbr_distance_evals;

    merged.indexed_windows += part.indexed_windows;
    merged.leaf_candidates += part.leaf_candidates;
    merged.candidates += part.candidates;
    merged.postfiltered += part.postfiltered;
    merged.matches += part.matches;

    merged.index_page_reads += part.index_page_reads;
    merged.index_page_hits += part.index_page_hits;
    merged.index_page_misses += part.index_page_misses;
    merged.data_page_reads += part.data_page_reads;

    merged.seq_scan_pages += part.seq_scan_pages;

    // cpu_us is the total CPU burned across all partitions, which can
    // exceed elapsed_us (they ran concurrently).
    merged.cpu_us += part.cpu_us;
    merged.bytes_touched += part.bytes_touched;
  }
  return merged;
}

void FillExplainPhases(const QueryTrace& trace, ExplainReport* report) {
  report->phases.clear();
  report->phases.reserve(trace.events().size());
  for (const TraceEvent& event : trace.events()) {
    ExplainPhaseRow row;
    row.name = event.name;
    row.depth = event.depth;
    row.dur_us = event.dur_us;
    report->phases.push_back(std::move(row));
  }
}

std::string RenderExplainText(const ExplainReport& r) {
  std::string out;
  char buf[160];

  std::snprintf(buf, sizeof(buf), "EXPLAIN %s query (eps=%.4g", r.kind.c_str(),
                r.eps);
  out += buf;
  if (r.k > 0) {
    std::snprintf(buf, sizeof(buf), ", k=%llu",
                  static_cast<unsigned long long>(r.k));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), ", prune=%s)\nelapsed: %llu us\n\n",
                r.prune_strategy.c_str(),
                static_cast<unsigned long long>(r.elapsed_us));
  out += buf;

  std::snprintf(buf, sizeof(buf), "index walk %28s %9s\n", "visited", "total");
  out += buf;
  for (auto it = r.levels.rbegin(); it != r.levels.rend(); ++it) {
    const char* tag =
        it->level + 1 == r.tree_height ? " (root)"
        : it->level == 0               ? " (leaves)"
                                       : "";
    char label[48];
    std::snprintf(label, sizeof(label), "level %zu%s", it->level, tag);
    std::snprintf(buf, sizeof(buf), "  %-26s %10llu %9llu\n", label,
                  static_cast<unsigned long long>(it->visited),
                  static_cast<unsigned long long>(it->total));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  %-26s %10llu %9llu\n", "nodes",
                static_cast<unsigned long long>(r.nodes_visited),
                static_cast<unsigned long long>(r.tree_nodes));
  out += buf;

  out += "\nprune waterfall";
  std::snprintf(buf, sizeof(buf), " %23s %12s\n", "count", "of tested");
  out += buf;
  RowPct(&out, "entries tested", r.entries_tested, r.entries_tested);
  RowPct(&out, "EP pruned", r.ep_prunes, r.entries_tested);
  RowPct(&out, "BS pruned", r.bs_prunes, r.entries_tested);
  RowPct(&out, "exact pruned", r.exact_prunes, r.entries_tested);
  RowPct(&out, "descended (internal)", r.descents, r.entries_tested);
  RowPct(&out, "accepted (leaf entries)", r.accepted_leaf_entries,
         r.entries_tested);
  Row(&out, "MBR distance evals", r.mbr_distance_evals);

  out += "\ncandidate funnel\n";
  Row(&out, "indexed windows", r.indexed_windows);
  Row(&out, "index survivors", r.leaf_candidates);
  Row(&out, "candidates verified", r.candidates);
  Row(&out, "post-filtered", r.postfiltered);
  Row(&out, "matches", r.matches);

  out += "\nbuffer pool\n";
  std::snprintf(buf, sizeof(buf),
                "  %-26s %10llu  (hits %llu, misses %llu)\n",
                "index page reads",
                static_cast<unsigned long long>(r.index_page_reads),
                static_cast<unsigned long long>(r.index_page_hits),
                static_cast<unsigned long long>(r.index_page_misses));
  out += buf;
  Row(&out, "data page reads", r.data_page_reads);

  const std::uint64_t total_pages = r.index_page_reads + r.data_page_reads;
  out += "\nspeedup attribution\n";
  Row(&out, "sequential scan (pages)", r.seq_scan_pages);
  if (total_pages > 0) {
    std::snprintf(buf, sizeof(buf), "  %-26s %10llu  (%.2fx vs scan)\n",
                  "this query (pages)",
                  static_cast<unsigned long long>(total_pages),
                  static_cast<double>(r.seq_scan_pages) /
                      static_cast<double>(total_pages));
    out += buf;
  } else {
    Row(&out, "this query (pages)", total_pages);
  }

  out += "\ncost\n";
  Row(&out, "thread CPU (us)", r.cpu_us);
  std::snprintf(buf, sizeof(buf),
                "  %-26s %10llu  (hit %llu, miss %llu)\n", "index pages",
                static_cast<unsigned long long>(r.index_page_hits +
                                                r.index_page_misses),
                static_cast<unsigned long long>(r.index_page_hits),
                static_cast<unsigned long long>(r.index_page_misses));
  out += buf;
  Row(&out, "data pages", r.data_page_reads);
  Row(&out, "bytes touched", r.bytes_touched);
  Row(&out, "candidates verified", r.candidates);

  if (!r.phases.empty()) {
    out += "\nphases";
    std::snprintf(buf, sizeof(buf), " %32s\n", "dur_us");
    out += buf;
    for (const ExplainPhaseRow& phase : r.phases) {
      char label[64];
      std::snprintf(label, sizeof(label), "%*s%s", 2 * phase.depth, "",
                    phase.name.c_str());
      std::snprintf(buf, sizeof(buf), "  %-26s %10llu\n", label,
                    static_cast<unsigned long long>(phase.dur_us));
      out += buf;
    }
  }
  return out;
}

void AppendExplainCostJson(const ExplainReport& r, std::string* out) {
  *out += "{";
  bool first = true;
  AppendU64(out, "cpu_us", r.cpu_us, &first);
  AppendU64(out, "pages_hit", r.index_page_hits, &first);
  AppendU64(out, "pages_miss", r.index_page_misses, &first);
  AppendU64(out, "data_pages", r.data_page_reads, &first);
  AppendU64(out, "bytes_touched", r.bytes_touched, &first);
  AppendU64(out, "candidates_verified", r.candidates, &first);
  *out += "}";
}

std::string RenderExplainJson(const ExplainReport& r) {
  std::string out = "{\"schema_version\":1,\"report\":\"explain\",";
  char buf[160];

  std::snprintf(buf, sizeof(buf),
                "\"query\":{\"kind\":\"%s\",\"eps\":%.9g,\"k\":%llu,"
                "\"prune\":\"%s\",\"elapsed_us\":%llu},",
                JsonEscape(r.kind).c_str(), r.eps,
                static_cast<unsigned long long>(r.k),
                JsonEscape(r.prune_strategy).c_str(),
                static_cast<unsigned long long>(r.elapsed_us));
  out += buf;

  out += "\"totals\":{";
  bool first = true;
  AppendU64(&out, "tree_height", r.tree_height, &first);
  AppendU64(&out, "tree_nodes", r.tree_nodes, &first);
  AppendU64(&out, "nodes_visited", r.nodes_visited, &first);
  AppendU64(&out, "entries_tested", r.entries_tested, &first);
  AppendU64(&out, "ep_prunes", r.ep_prunes, &first);
  AppendU64(&out, "bs_prunes", r.bs_prunes, &first);
  AppendU64(&out, "exact_prunes", r.exact_prunes, &first);
  AppendU64(&out, "descents", r.descents, &first);
  AppendU64(&out, "accepted_leaf_entries", r.accepted_leaf_entries, &first);
  AppendU64(&out, "mbr_distance_evals", r.mbr_distance_evals, &first);
  AppendU64(&out, "indexed_windows", r.indexed_windows, &first);
  AppendU64(&out, "leaf_candidates", r.leaf_candidates, &first);
  AppendU64(&out, "candidates", r.candidates, &first);
  AppendU64(&out, "postfiltered", r.postfiltered, &first);
  AppendU64(&out, "matches", r.matches, &first);
  out += "},";

  out += "\"levels\":[";
  for (std::size_t i = 0; i < r.levels.size(); ++i) {
    if (i > 0) out += ",";
    std::snprintf(buf, sizeof(buf),
                  "{\"level\":%zu,\"visited\":%llu,\"total\":%llu}",
                  r.levels[i].level,
                  static_cast<unsigned long long>(r.levels[i].visited),
                  static_cast<unsigned long long>(r.levels[i].total));
    out += buf;
  }
  out += "],";

  out += "\"io\":{";
  first = true;
  AppendU64(&out, "index_page_reads", r.index_page_reads, &first);
  AppendU64(&out, "index_page_hits", r.index_page_hits, &first);
  AppendU64(&out, "index_page_misses", r.index_page_misses, &first);
  AppendU64(&out, "data_page_reads", r.data_page_reads, &first);
  out += "},";

  out += "\"baseline\":{";
  first = true;
  AppendU64(&out, "seq_scan_pages", r.seq_scan_pages, &first);
  AppendU64(&out, "query_pages", r.index_page_reads + r.data_page_reads,
            &first);
  out += "},";

  out += "\"cost\":";
  AppendExplainCostJson(r, &out);
  out += ",";

  out += "\"phases\":[";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    if (i > 0) out += ",";
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"depth\":%d,\"dur_us\":%llu}",
                  JsonEscape(r.phases[i].name).c_str(), r.phases[i].depth,
                  static_cast<unsigned long long>(r.phases[i].dur_us));
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace tsss::obs

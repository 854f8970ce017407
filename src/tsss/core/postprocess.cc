#include "tsss/core/postprocess.h"

#include <algorithm>

namespace tsss::core {
namespace {

void SortByRecord(std::vector<Match>& matches) {
  std::sort(matches.begin(), matches.end(),
            [](const Match& a, const Match& b) { return a.record < b.record; });
}

void SortByDistance(std::vector<Match>& matches) {
  std::sort(matches.begin(), matches.end(), CanonicalBefore);
}

}  // namespace

std::vector<Match> SuppressOverlaps(std::vector<Match> matches,
                                    std::uint32_t min_separation) {
  SortByRecord(matches);
  if (min_separation == 0 || matches.size() < 2) return matches;

  std::vector<Match> out;
  out.reserve(matches.size());
  // Walk runs: consecutive matches of the same series whose offsets are
  // within min_separation of the *previous* member chain into one run.
  std::size_t run_begin = 0;
  auto flush_run = [&](std::size_t end) {
    // Keep the best-distance member of [run_begin, end).
    std::size_t best = run_begin;
    for (std::size_t i = run_begin + 1; i < end; ++i) {
      if (matches[i].distance < matches[best].distance) best = i;
    }
    out.push_back(matches[best]);
    run_begin = end;
  };
  for (std::size_t i = 1; i < matches.size(); ++i) {
    const bool same_series = matches[i].series == matches[i - 1].series;
    const bool adjacent =
        same_series &&
        matches[i].offset - matches[i - 1].offset < min_separation;
    if (!adjacent) flush_run(i);
  }
  flush_run(matches.size());
  return out;
}

std::vector<Match> BestPerSeries(std::vector<Match> matches) {
  SortByRecord(matches);
  std::vector<Match> out;
  for (const Match& m : matches) {
    if (!out.empty() && out.back().series == m.series) {
      if (m.distance < out.back().distance) out.back() = m;
    } else {
      out.push_back(m);
    }
  }
  SortByDistance(out);
  return out;
}

std::vector<Match> TopK(std::vector<Match> matches, std::size_t k) {
  SortByDistance(matches);
  if (matches.size() > k) matches.resize(k);
  return matches;
}

}  // namespace tsss::core

// Ablation A7: micro-benchmarks (google-benchmark) of the geometric
// primitives that dominate the search inner loops: SE-transform, DFT
// reduction, PLD, LLD, closed-form alignment and its pre-check, and the
// three node-pruning tests on realistic long-thin boxes.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "tsss/common/rng.h"
#include "tsss/core/similarity.h"
#include "tsss/geom/line.h"
#include "tsss/geom/penetration.h"
#include "tsss/geom/scale_shift.h"
#include "tsss/geom/se_transform.h"
#include "tsss/reduce/dft.h"

namespace {

using tsss::Rng;
using tsss::geom::Line;
using tsss::geom::Mbr;
using tsss::geom::Vec;

Vec RandomVec(Rng& rng, std::size_t n, double lo = -10, double hi = 10) {
  Vec v(n);
  for (auto& x : v) x = rng.Uniform(lo, hi);
  return v;
}

/// A long-thin box like the R*-tree produces (paper, Section 7): one long
/// axis, the rest short.
Mbr LongThinBox(Rng& rng, std::size_t dim) {
  Vec lo(dim), hi(dim);
  const std::size_t long_axis =
      static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(dim) - 1));
  for (std::size_t d = 0; d < dim; ++d) {
    lo[d] = rng.Uniform(-5, 5);
    hi[d] = lo[d] + (d == long_axis ? rng.Uniform(5.0, 20.0)
                                    : rng.Uniform(0.01, 0.2));
  }
  return Mbr::FromCorners(std::move(lo), std::move(hi));
}

void BM_SeTransform(benchmark::State& state) {
  Rng rng(1);
  const Vec v = RandomVec(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsss::geom::SeTransform(v));
  }
}
BENCHMARK(BM_SeTransform)->Arg(32)->Arg(128)->Arg(512);

void BM_DftReduce(benchmark::State& state) {
  Rng rng(2);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const tsss::reduce::DftReducer reducer(n, 3, 1);
  const Vec v = RandomVec(rng, n);
  Vec out(6);
  for (auto _ : state) {
    reducer.Reduce(v, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DftReduce)->Arg(32)->Arg(128)->Arg(512);

void BM_Pld(benchmark::State& state) {
  Rng rng(3);
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const Line line{RandomVec(rng, dim), RandomVec(rng, dim, -1, 1)};
  const Vec q = RandomVec(rng, dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsss::geom::Pld(q, line));
  }
}
BENCHMARK(BM_Pld)->Arg(6)->Arg(16)->Arg(128);

void BM_Lld(benchmark::State& state) {
  Rng rng(4);
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const Line a = Line::ScalingLine(RandomVec(rng, dim));
  const Line b = Line::ShiftingLine(RandomVec(rng, dim));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsss::geom::Lld(a, b));
  }
}
BENCHMARK(BM_Lld)->Arg(6)->Arg(128);

void BM_AlignScaleShiftClosedForm(benchmark::State& state) {
  Rng rng(5);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const tsss::core::QueryContext ctx(RandomVec(rng, n));
  const Vec window = RandomVec(rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Align(window).distance);
  }
}
BENCHMARK(BM_AlignScaleShiftClosedForm)->Arg(32)->Arg(128)->Arg(512);

/// The one-pass pre-check in front of Align (the same cost whether it keeps
/// or rejects the window; here it rejects, as for most candidates).
void BM_VerifyPrecheck(benchmark::State& state) {
  Rng rng(5);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const tsss::core::QueryContext ctx(RandomVec(rng, n));
  const Vec window = RandomVec(rng, n);
  const double bound = 0.5 * ctx.Align(window).distance;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.MayBeWithin(window, bound));
  }
}
BENCHMARK(BM_VerifyPrecheck)->Arg(32)->Arg(128)->Arg(512);

template <tsss::geom::PruneStrategy kStrategy>
void BM_ShouldVisit(benchmark::State& state) {
  Rng rng(6);
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  std::vector<Mbr> boxes;
  for (int i = 0; i < 64; ++i) boxes.push_back(LongThinBox(rng, dim));
  const Line line{Vec(dim, 0.0), RandomVec(rng, dim, -1, 1)};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tsss::geom::ShouldVisit(line, boxes[i++ & 63], 0.5, kStrategy, nullptr));
  }
}
BENCHMARK(BM_ShouldVisit<tsss::geom::PruneStrategy::kEepOnly>)->Arg(6)->Arg(16);
BENCHMARK(BM_ShouldVisit<tsss::geom::PruneStrategy::kBoundingSpheres>)
    ->Arg(6)
    ->Arg(16);
BENCHMARK(BM_ShouldVisit<tsss::geom::PruneStrategy::kExactDistance>)
    ->Arg(6)
    ->Arg(16);

/// Console reporter that additionally collects every run into the BENCH JSON
/// report (one row per benchmark/arg combination).
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCollectingReporter(tsss::bench::JsonReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      report_->AddRow()
          .Set("name", run.benchmark_name())
          .Set("iterations", static_cast<std::uint64_t>(run.iterations))
          .Set("real_ns", run.GetAdjustedRealTime())
          .Set("cpu_ns", run.GetAdjustedCPUTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  tsss::bench::JsonReport* report_;
};

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): benchmark::Initialize() aborts on
// flags it does not know, so --json-out is extracted first.
int main(int argc, char** argv) {
  const std::string json_out = tsss::bench::JsonOutPath(argc, argv);
  std::vector<char*> kept;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      ++i;  // skip the flag's value too
      continue;
    }
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) continue;
    kept.push_back(argv[i]);
  }
  int kept_argc = static_cast<int>(kept.size());
  benchmark::Initialize(&kept_argc, kept.data());
  if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) return 1;

  tsss::bench::JsonReport report("geom_micro", tsss::bench::GetBenchEnv());
  JsonCollectingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_out.empty()) report.WriteOrDie(json_out);
  return 0;
}

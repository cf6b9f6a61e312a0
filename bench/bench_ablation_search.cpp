//===- bench_ablation_search.cpp - Solver strategy ablation ---*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Section 6.2: "In our implementation, we use an algorithm with a higher
// worst-case running time but better performance in practice. Rather than
// computing reachability for every location in the constraint graph, we
// do a backwards search from effects in constraints generated for
// confine?". This benchmark compares the full-propagation solver against
// the backwards-filtered solver on corpus modules and on the synthetic
// scaling family.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Session.h"

#include <benchmark/benchmark.h>

using namespace lna;

namespace {

void runModules(benchmark::State &State, bool Backwards) {
  const auto &Corpus = lna::bench::cachedCorpus();
  for (auto _ : State) {
    for (const ModuleSpec &M : Corpus) {
      PipelineOptions Opts;
      Opts.UseBackwardsSearch = Backwards;
      AnalysisSession S(Opts);
      S.run(M.Source);
      benchmark::DoNotOptimize(S.result().Inference.RestrictableBinds.size());
    }
  }
}

void BM_Corpus_FullPropagation(benchmark::State &State) {
  runModules(State, false);
}
BENCHMARK(BM_Corpus_FullPropagation)->Unit(benchmark::kMillisecond);

void BM_Corpus_BackwardsSearch(benchmark::State &State) {
  runModules(State, true);
}
BENCHMARK(BM_Corpus_BackwardsSearch)->Unit(benchmark::kMillisecond);

void runScaling(benchmark::State &State, bool Backwards) {
  unsigned N = static_cast<unsigned>(State.range(0));
  // Mostly-irrelevant program with a handful of explicit restricts: the
  // backwards search prunes the irrelevant part.
  std::string Src = lna::bench::scalingProgram(N, 4);
  for (auto _ : State) {
    PipelineOptions Opts;
    Opts.UseBackwardsSearch = Backwards;
    AnalysisSession S(Opts);
    S.run(Src);
    benchmark::DoNotOptimize(S.result().Inference.Violations.size());
  }
  State.SetComplexityN(N);
}

void BM_Scaling_FullPropagation(benchmark::State &State) {
  runScaling(State, false);
}
BENCHMARK(BM_Scaling_FullPropagation)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();

void BM_Scaling_BackwardsSearch(benchmark::State &State) {
  runScaling(State, true);
}
BENCHMARK(BM_Scaling_BackwardsSearch)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();

} // namespace

BENCHMARK_MAIN();

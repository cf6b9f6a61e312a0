//===- bench_obs_overhead.cpp - Observability layer overhead ---*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The observability layer promises to be free when nothing is installed:
// a Span or obsHistogram() with no thread-local sink is a load and a
// branch. This binary quantifies that promise on the real workload -- a
// corpus slice analyzed end to end -- in three configurations:
//
//   baseline   no TraceScope, no MetricsScope (the production default)
//   tracing    a TraceSink installed for the whole run
//   metrics    a MetricsRegistry installed for the whole run
//
// plus the worker flight recorder through the governed runner (the code
// path --worker processes execute):
//
//   governed   runModuleGoverned per module, recorder absent
//   flight     the same with a black-box file flushed at phase sites
//
// and a microbenchmark of the disabled Span plus a disabled cached-handle
// histogram sample, the pair the solver hot paths run. Results go to
// BENCH_obs_overhead.json next to the binary's working directory; the
// guardrails are baseline-vs-uninstrumented overhead below 2% and
// flight-recorder overhead below 5%. Unlike the other bench binaries
// this one is a plain main() rather than google-benchmark: the JSON
// file is the deliverable, and interleaving the configurations by hand
// keeps the comparison fair on a shared box.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "corpus/Corpus.h"
#include "corpus/Experiment.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace lna;

namespace {

enum class Config { Baseline, Tracing, Metrics };

double runSlice(const std::vector<ModuleSpec> &Corpus, Config C,
                TraceSink *Sink, MetricsRegistry *Reg) {
  std::optional<TraceScope> TS;
  std::optional<MetricsScope> MS;
  if (C == Config::Tracing)
    TS.emplace(*Sink);
  else if (C == Config::Metrics)
    MS.emplace(*Reg);
  Timer T;
  for (const ModuleSpec &M : Corpus) {
    AnalysisSession S(PipelineOptions{});
    (void)S.run(M.Source);
  }
  return T.seconds();
}

/// The governed runner end to end, with or without a flight recorder --
/// the exact instrumentation a --worker process carries.
double runGovernedSlice(const std::vector<ModuleSpec> &Corpus,
                        FlightRecorder *Rec) {
  ExperimentOptions Opts;
  Opts.Jobs = 1;
  Opts.Flight = Rec;
  Timer T;
  (void)runCorpusExperiment(Corpus, Opts);
  return T.seconds();
}

} // namespace

int main() {
  // The full generated corpus, not a prefix slice: the front of the
  // corpus is all sub-100us modules, whose fixed per-module costs
  // overstate the overhead a representative module-size mix pays.
  std::vector<ModuleSpec> Corpus = generateCorpus();

  // Warm-up pass so allocator and cache state is comparable.
  TraceSink Sink;
  MetricsRegistry Reg;
  (void)runSlice(Corpus, Config::Baseline, nullptr, nullptr);

  FlightRecorder Rec;
  const char *FlightPath = "BENCH_obs_overhead.blackbox";
  bool FlightOpen = Rec.open(FlightPath);
  if (!FlightOpen)
    std::fprintf(stderr, "bench_obs_overhead: warning: cannot open flight "
                         "file; flight configuration runs bare\n");

  constexpr int Reps = 31;
  std::vector<double> Base, Trace, Metrics, Governed, Flight;
  for (int R = 0; R < Reps; ++R) {
    Base.push_back(runSlice(Corpus, Config::Baseline, nullptr, nullptr));
    Trace.push_back(runSlice(Corpus, Config::Tracing, &Sink, nullptr));
    Metrics.push_back(runSlice(Corpus, Config::Metrics, nullptr, &Reg));
    // The governed pair runs back to back inside each rep, alternating
    // which goes first so neither always inherits the other's cache and
    // clock state.
    double G, F;
    if (R % 2 == 0) {
      G = runGovernedSlice(Corpus, nullptr);
      F = runGovernedSlice(Corpus, FlightOpen ? &Rec : nullptr);
    } else {
      F = runGovernedSlice(Corpus, FlightOpen ? &Rec : nullptr);
      G = runGovernedSlice(Corpus, nullptr);
    }
    Governed.push_back(G);
    Flight.push_back(F);
  }
  Rec.close();
  std::remove(FlightPath);
  // Each config reports its lower quartile over the reps. Medians carry
  // several percent of preemption and steal-time contamination on a
  // shared box -- enough to drown the single-digit effects the
  // guardrails bound -- so a low quantile gets closer to the intrinsic
  // cost; the absolute minimum overshoots, crediting whichever config
  // happened to catch the single fastest clock window of the session.
  auto loQuartile = [](std::vector<double> Xs) {
    std::sort(Xs.begin(), Xs.end());
    return Xs[Xs.size() / 4];
  };
  double BaseS = loQuartile(Base), TraceS = loQuartile(Trace),
         MetricsS = loQuartile(Metrics), GovernedS = loQuartile(Governed),
         FlightS = loQuartile(Flight);

  // Microbenchmark: the disabled Span plus a disabled cached-handle
  // histogram sample, the exact sequence the solver hot paths (CHECK-SAT
  // queries, unification) execute when nothing is installed.
  constexpr uint64_t Iters = 20'000'000;
  static const MetricId Noop = metricId("noop");
  Timer MT;
  for (uint64_t I = 0; I < Iters; ++I) {
    Span Sp("noop");
    obsHistogram(Noop, I);
  }
  double DisabledSpanNs = MT.seconds() / static_cast<double>(Iters) * 1e9;

  double TraceOverheadPct = (TraceS / BaseS - 1.0) * 100.0;
  double MetricsOverheadPct = (MetricsS / BaseS - 1.0) * 100.0;
  double FlightOverheadPct = (FlightS / GovernedS - 1.0) * 100.0;

  std::FILE *Out = std::fopen("BENCH_obs_overhead.json", "w");
  if (!Out) {
    std::fprintf(stderr, "bench_obs_overhead: cannot write output file\n");
    return 1;
  }
  std::fprintf(Out,
               "{\"modules\":%zu,\"reps\":%d,"
               "\"baseline_s\":%.6f,"
               "\"tracing_s\":%.6f,\"tracing_overhead_pct\":%.2f,"
               "\"metrics_s\":%.6f,\"metrics_overhead_pct\":%.2f,"
               "\"governed_s\":%.6f,"
               "\"flight_s\":%.6f,\"flight_overhead_pct\":%.2f,"
               "\"disabled_span_ns\":%.2f,"
               "\"guardrail_disabled_overhead_pct\":2.0,"
               "\"guardrail_flight_overhead_pct\":5.0}\n",
               Corpus.size(), Reps, BaseS, TraceS, TraceOverheadPct, MetricsS,
               MetricsOverheadPct, GovernedS, FlightS, FlightOverheadPct,
               DisabledSpanNs);
  std::fclose(Out);

  std::printf("baseline           %8.3f s\n", BaseS);
  std::printf("tracing installed  %8.3f s  (%+.2f%%)\n", TraceS,
              TraceOverheadPct);
  std::printf("metrics installed  %8.3f s  (%+.2f%%)\n", MetricsS,
              MetricsOverheadPct);
  std::printf("governed           %8.3f s\n", GovernedS);
  std::printf("flight recorder    %8.3f s  (%+.2f%%)\n", FlightS,
              FlightOverheadPct);
  std::printf("disabled span      %8.2f ns\n", DisabledSpanNs);
  return 0;
}

//===- Analysis.cpp - The corpus-s7 and solver-big workloads ----*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Both batch workloads run a set of modules through the Section 7
/// experiment driver (runCorpusExperiment, what lna-corpus runs): one
/// pass at Jobs=1, one at Jobs=<cores>, alternating until the run time
/// is used up. They differ only in the module set:
///
///  * corpus-s7: the 589 generated driver modules in a seeded order.
///    Tiny modules, so parse, per-session set-up, typing, lock analysis
///    and aggregation dominate.
///  * solver-big: a seeded set of large Hard/Clean/Recoverable modules
///    plus explicit-restrict programs, where conditional-constraint
///    inference and CHECK-SAT dominate.
///
/// A traced run rebuilds each module's analysis from the analyzer's
/// public calls (parse, placeConfines, TypeChecker::check,
/// EffectInference::run, checkRestricts / runInference, analyzeLocks)
/// with a span around each, and checks the rebuilt pipeline gives the
/// same per-module triple as analyzeModuleAllModes.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/ConfinePlacement.h"
#include "core/EffectInference.h"
#include "core/Inference.h"
#include "core/Pipeline.h"
#include "core/RestrictChecker.h"
#include "core/Session.h"
#include "corpus/Corpus.h"
#include "corpus/Experiment.h"
#include "lang/Parser.h"
#include "qual/LockAnalysis.h"
#include "support/Diagnostics.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

using namespace lna;

namespace perfbench {
namespace {

/// The modules of one batch workload and what each must produce.
struct ModuleSet {
  std::vector<ModuleSpec> Modules;
  /// The reference triple of each module: the generator's analytic
  /// expectation, never an analyzer output.
  std::vector<ModeCounts> Expected;
  /// Modules carrying explicit restricts that must check with 0
  /// violations.
  std::vector<size_t> RestrictPrograms;
  /// corpus-s7 only: the paper's headline must come out exactly.
  bool CheckHeadline = false;
};

/// The paper's Section 7 headline as the generator reproduces it.
constexpr uint64_t HeadlinePotential = 3277;
constexpr uint64_t HeadlineActual = 3116;

ModuleSet corpusSet(uint64_t Seed) {
  ModuleSet S;
  S.Modules = generateCorpus();
  // The seed fixes the order modules are analyzed and aggregated in; the
  // set itself is the paper's experiment.
  Rng R(Seed ^ 0xC0DE5EEDULL);
  for (size_t I = S.Modules.size(); I > 1; --I)
    std::swap(S.Modules[I - 1], S.Modules[R.below(I)]);
  S.CheckHeadline = true;
  return S;
}

/// An explicit-restrict checking program shaped like the solver scaling
/// benchmark: \p K valid restricts of one parameter and \p N - K plain
/// allocations in one function, in a seeded order.
std::string restrictProgram(unsigned N, unsigned K, Rng &R) {
  std::vector<std::string> Stmts;
  for (unsigned I = 0; I < K; ++I)
    Stmts.push_back("  restrict r" + std::to_string(I) + " = q in *r" +
                    std::to_string(I) + ";\n");
  for (unsigned I = K; I < N; ++I)
    Stmts.push_back("  let t" + std::to_string(I) + " = new " +
                    std::to_string(R.below(1000)) + " in *t" +
                    std::to_string(I) + ";\n");
  for (size_t I = Stmts.size(); I > 1; --I)
    std::swap(Stmts[I - 1], Stmts[R.below(I)]);
  std::string Src = "var g : lock;\nfun f(q : ptr int) : int {\n";
  for (const std::string &St : Stmts)
    Src += St;
  Src += "  0\n}\n";
  return Src;
}

/// The solver-bound set. Sizes are fixed so every seed carries the same
/// amount of work; the seed picks each module's contents.
ModuleSet solverSet(uint64_t Seed) {
  struct Shape {
    ModuleCategory Cat;
    uint32_t SizeHint;
  };
  static const Shape Shapes[] = {
      {ModuleCategory::Hard, 220},        {ModuleCategory::Hard, 240},
      {ModuleCategory::Hard, 260},        {ModuleCategory::Hard, 280},
      {ModuleCategory::Hard, 300},        {ModuleCategory::Hard, 320},
      {ModuleCategory::Clean, 400},       {ModuleCategory::Clean, 400},
      {ModuleCategory::Recoverable, 400}, {ModuleCategory::Recoverable, 400},
  };
  ModuleSet S;
  Rng R(Seed ^ 0x501DE5B16ULL);
  for (const Shape &Sh : Shapes) {
    ModuleSpec M = generateModule(Sh.Cat, R.next(), Sh.SizeHint);
    M.Name = std::string(moduleCategoryName(Sh.Cat)) + "-" +
             std::to_string(Sh.SizeHint) + "-" +
             std::to_string(S.Modules.size());
    S.Modules.push_back(std::move(M));
  }
  for (unsigned I = 0; I < 2; ++I) {
    ModuleSpec M;
    M.Name = "restrict-8192x512-" + std::to_string(I);
    // No lock is ever taken: error-free in every mode.
    M.Category = ModuleCategory::Clean;
    M.Source = restrictProgram(8192, 512, R);
    S.RestrictPrograms.push_back(S.Modules.size());
    S.Modules.push_back(std::move(M));
  }
  return S;
}

ModuleSet makeSet(const Config &C) {
  ModuleSet S = C.Workload == "corpus-s7" ? corpusSet(C.Seed)
                                          : solverSet(C.Seed);
  for (const ModuleSpec &M : S.Modules)
    S.Expected.push_back(M.Expected);
  if (C.PerturbExpected)
    ++S.Expected[S.Expected.size() / 2].ConfineInference;
  return S;
}

std::string tripleText(const ModeCounts &M) {
  return "(" + std::to_string(M.NoConfine) + "," +
         std::to_string(M.ConfineInference) + "," +
         std::to_string(M.AllStrong) + ")";
}

/// Checks one experiment pass against the references; every module is
/// one attempted operation.
void verifyPass(const ModuleSet &S, const CorpusSummary &Sum, Report &Rep) {
  Rep.Attempted += S.Modules.size();
  if (Sum.Modules.size() != S.Modules.size()) {
    Rep.fail("pass returned " + std::to_string(Sum.Modules.size()) +
             " rows for " + std::to_string(S.Modules.size()) + " modules");
    return;
  }
  for (size_t I = 0; I < S.Modules.size(); ++I) {
    const ModuleResult &Row = Sum.Modules[I];
    if (!Row.Ok || !(Row.Actual == S.Expected[I]))
      Rep.fail("module " + Row.Name + ": got " + tripleText(Row.Actual) +
               (Row.Ok ? "" : " (failed: " + Row.Error + ")") +
               ", expected " + tripleText(S.Expected[I]));
  }
  if (S.CheckHeadline &&
      (Sum.PotentialEliminations != HeadlinePotential ||
       Sum.ActualEliminations != HeadlineActual ||
       std::lround(Sum.eliminationRate() * 1000) != 951)) {
    Rep.Correct = false;
    Rep.Notes.push_back("headline " +
                        std::to_string(Sum.PotentialEliminations) + "/" +
                        std::to_string(Sum.ActualEliminations) +
                        " differs from 3277/3116/95.1%");
  }
}

//===----------------------------------------------------------------------===//
// The traced rebuild of analyzeModuleAllModes
//===----------------------------------------------------------------------===//

struct RebuiltModule {
  bool Ok = false;
  ModeCounts Counts;
  size_t CheckViolations = 0;
};

/// Parses and types one mode pipeline's program; returns false on a
/// parse or type error.
bool frontEnd(const std::string &Source, bool InferMode, ASTContext &Ctx,
              Diagnostics &Diags, PipelineResult &R, Ledger &L) {
  uint32_t NodesBefore = Ctx.numExprs();
  std::optional<Program> Parsed =
      L.span("lang.parse_s", [&] { return parse(Source, Ctx, Diags); });
  L.count("lang.ast_nodes", Ctx.numExprs() - NodesBefore);
  if (!Parsed)
    return false;
  if (InferMode) {
    PlacementResult Placed =
        L.span("core.place_s", [&] { return placeConfines(Ctx, *Parsed); });
    R.Analyzed = std::move(Placed.Rewritten);
    R.OptionalConfines = std::move(Placed.OptionalConfines);
    L.count("core.confines_placed", R.OptionalConfines.size());
  } else {
    R.Analyzed = std::move(*Parsed);
  }
  TypeCheckOptions TCO;
  TCO.SplitLetLocations = InferMode;
  TCO.OptionalConfines = &R.OptionalConfines;
  std::optional<AliasResult> Alias = L.span("alias.typing_s", [&] {
    TypeChecker TC(Ctx, R.State->Types, Diags);
    return TC.check(R.Analyzed, TCO);
  });
  L.count("alias.unifications", R.State->Locs.numClassesMerged());
  L.count("alias.locations", R.State->Locs.size());
  if (!Alias)
    return false;
  R.Alias = std::move(*Alias);
  L.count("qual.lock_sites", R.Alias.LockSites.size());

  EffectInferenceOptions EffOpts;
  // Inference decides against the liberal restrict effect; checking
  // uses the strict Figure 3 form (as the session's phases do).
  EffOpts.LiberalRestrictEffect = InferMode;
  L.span("core.effgen_s", [&] {
    EffectInference EI(Ctx, R.Analyzed, R.Alias, R.State->Types, R.State->CS,
                       EffOpts);
    R.Eff = EI.run();
  });
  const ConstraintSystem &CS = R.State->CS;
  L.count("effects.vars", CS.numVars());
  L.count("effects.constraints", uint64_t(CS.numEdges()) +
                                     CS.numIntersections() +
                                     CS.conditionals().size());
  return true;
}

uint32_t lockErrors(const ASTContext &Ctx, const PipelineResult &R,
                    bool AllStrong, Ledger &L) {
  LockAnalysisOptions LO;
  LO.AllStrong = AllStrong;
  uint32_t N = L.span("qual.locks_s",
                      [&] { return analyzeLocks(Ctx, R, LO).numErrors(); });
  L.count("qual.lock_errors", N);
  return N;
}

/// analyzeModuleAllModes, one public call at a time.
RebuiltModule rebuildAllModes(const std::string &Source, Ledger &L) {
  RebuiltModule Out;
  {
    ASTContext Ctx;
    Diagnostics Diags;
    PipelineResult R;
    R.State = std::make_unique<AnalysisState>();
    if (!frontEnd(Source, /*InferMode=*/false, Ctx, Diags, R, L))
      return Out;
    L.span("effects.checksat_s", [&] {
      R.Checks = checkRestricts(Ctx, R.Alias, R.Eff, R.State->CS,
                                R.State->Types, *R.State->AA);
    });
    L.count("effects.checksat_visits", R.State->CS.stats().CheckSatVisited);
    Out.CheckViolations = R.Checks.Violations.size();
    Out.Counts.NoConfine = lockErrors(Ctx, R, false, L);
    Out.Counts.AllStrong = lockErrors(Ctx, R, true, L);
  }
  {
    ASTContext Ctx;
    Diagnostics Diags;
    PipelineResult R;
    R.State = std::make_unique<AnalysisState>();
    if (!frontEnd(Source, /*InferMode=*/true, Ctx, Diags, R, L))
      return Out;
    L.span("core.infer_s", [&] {
      R.Inference = runInference(Ctx, R.Alias, R.Eff, R.State->CS,
                                 *R.State->AA);
    });
    const SolverStats &SS = R.State->CS.stats();
    L.count("effects.cond_firings", SS.CondFirings);
    L.count("effects.propagated_elems", SS.PropagatedElems);
    L.count("effects.solver_rounds", SS.Rounds);
    Out.Counts.ConfineInference = lockErrors(Ctx, R, false, L);
  }
  Out.Ok = true;
  return Out;
}

/// One rebuilt pass over the set, aggregated like the experiment driver
/// aggregates. Each module must reproduce \p Session, the triples
/// analyzeModuleAllModes gave it, or the ledger would be timing a
/// different program. Returns the pass's wall seconds.
double rebuiltPass(const ModuleSet &S, const std::vector<ModeCounts> &Session,
                   Ledger &L, Report &Rep) {
  Clock::time_point Start = Clock::now();
  std::vector<ModuleOutcome> Outs(S.Modules.size());
  for (size_t I = 0; I < S.Modules.size(); ++I) {
    RebuiltModule M = rebuildAllModes(S.Modules[I].Source, L);
    if (!(M.Counts == Session[I]))
      Rep.fail("module " + S.Modules[I].Name + ": rebuilt pipeline gives " +
               tripleText(M.Counts) + ", analyzeModuleAllModes " +
               tripleText(Session[I]));
    Outs[I].R.Ok = M.Ok;
    Outs[I].R.Counts = M.Counts;
    if (!M.Ok)
      Outs[I].R.Failure = FailureKind::TypeError;
    if (std::find(S.RestrictPrograms.begin(), S.RestrictPrograms.end(), I) !=
            S.RestrictPrograms.end() &&
        M.CheckViolations != 0)
      Rep.fail("restrict program " + S.Modules[I].Name + ": " +
               std::to_string(M.CheckViolations) + " violation(s)");
  }
  CorpusSummary Sum = L.span("corpus.aggregate_s", [&] {
    CorpusSummary Agg = aggregateModuleOutcomes(S.Modules, Outs,
                                                AliasBackendKind::Steensgaard);
    std::string Text = renderCorpusReport(Agg);
    if (Text.empty())
      Rep.fail("empty corpus report");
    return Agg;
  });
  double Seconds = secondsSince(Start);
  verifyPass(S, Sum, Rep);
  return Seconds;
}

/// One pass of the experiment driver at \p Jobs. Returns wall seconds
/// and, through \p BusyFrac, the share of the pool's thread time spent
/// inside analysis phases, and through \p Triples each module's result.
double driverPass(const ModuleSet &S, unsigned Jobs, Report &Rep,
                  double *BusyFrac = nullptr,
                  std::vector<ModeCounts> *Triples = nullptr) {
  ExperimentOptions Opts;
  Opts.Jobs = Jobs;
  Clock::time_point Start = Clock::now();
  CorpusSummary Sum = runCorpusExperiment(S.Modules, Opts);
  double Seconds = secondsSince(Start);
  if (BusyFrac)
    *BusyFrac = Sum.Stats.totalSeconds() / (Seconds * Jobs);
  if (Triples)
    for (const ModuleResult &Row : Sum.Modules)
      Triples->push_back(Row.Actual);
  verifyPass(S, Sum, Rep);
  return Seconds;
}

/// Checks the restrict programs once with a plain checking session.
void checkRestrictPrograms(const ModuleSet &S, Report &Rep) {
  for (size_t I : S.RestrictPrograms) {
    PipelineOptions Opts;
    Opts.Mode = PipelineMode::CheckAnnotations;
    AnalysisSession Session(Opts);
    ++Rep.Attempted;
    if (!Session.run(S.Modules[I].Source))
      Rep.fail("restrict program " + S.Modules[I].Name + " did not analyze");
    else if (!Session.result().Checks.Violations.empty())
      Rep.fail("restrict program " + S.Modules[I].Name + ": " +
               std::to_string(Session.result().Checks.Violations.size()) +
               " violation(s)");
  }
}

const char *const TimedLayers[] = {
    "lang.parse_s",  "core.place_s",       "alias.typing_s",
    "core.effgen_s", "effects.checksat_s", "core.infer_s",
    "qual.locks_s",  "corpus.aggregate_s",
};
const char *const CountedLayers[] = {
    "lang.ast_nodes",          "alias.unifications",
    "alias.locations",         "core.confines_placed",
    "effects.vars",            "effects.constraints",
    "effects.checksat_visits", "effects.cond_firings",
    "effects.propagated_elems", "effects.solver_rounds",
    "qual.lock_sites",         "qual.lock_errors",
};

} // namespace

Report runBatchWorkload(const Config &C) {
  Report Rep;
  const bool Corpus = C.Workload == "corpus-s7";

  // Set-up: generating the inputs, repeated so its median is steady.
  std::vector<double> SetupTimes, SetupNorm;
  ModuleSet S;
  for (unsigned I = 0; I < (Corpus ? 15u : 5u); ++I) {
    Clock::time_point T0 = Clock::now();
    S = makeSet(C);
    SetupTimes.push_back(secondsSince(T0));
    SetupNorm.push_back(SetupTimes.back() / hostProbe() * NominalProbeSeconds);
  }
  uint64_t Bytes = 0;
  for (const ModuleSpec &M : S.Modules)
    Bytes += M.Source.size();
  Rep.Notes.push_back(std::to_string(S.Modules.size()) + " modules, " +
                      std::to_string(Bytes / 1024) + " KiB of source");

  checkRestrictPrograms(S, Rep);
  // Warm-up pass: faults in code and allocator arenas; checked, untimed.
  std::vector<ModeCounts> Session;
  driverPass(S, 1, Rep, nullptr, &Session);

  std::vector<double> Serial, Parallel, Busy, Traced, Untraced, Probes, Norm;
  Ledger L;
  Rng Order(C.Seed);
  Clock::time_point Start = Clock::now();
  while (secondsSince(Start) < C.Seconds || Serial.size() < 3) {
    bool ParallelFirst = Order.below(2) != 0;
    if (ParallelFirst) {
      double B = 0;
      Parallel.push_back(driverPass(S, C.Threads, Rep, &B));
      Busy.push_back(B);
    }
    Probes.push_back(hostProbe());
    Serial.push_back(driverPass(S, 1, Rep));
    Norm.push_back(Serial.back() / Probes.back() * NominalProbeSeconds);
    if (!ParallelFirst) {
      double B = 0;
      Parallel.push_back(driverPass(S, C.Threads, Rep, &B));
      Busy.push_back(B);
    }
    if (C.Trace) {
      L.Enabled = true;
      Traced.push_back(rebuiltPass(S, Session, L, Rep));
      L.endPass();
      L.Enabled = false;
      Untraced.push_back(rebuiltPass(S, Session, L, Rep));
    }
  }

  const char *Unit = Corpus ? "corpus" : "solver";
  Rep.Readings.push_back({"setup_s", "s", median(SetupTimes),
                          SetupTimes.size()});
  Rep.Readings.push_back({std::string(Unit) + "_pass_s", "s", median(Serial),
                          Serial.size()});
  Rep.Readings.push_back({std::string(Unit) + "_pass_s_par", "s",
                          median(Parallel), Parallel.size()});
  Rep.Readings.push_back({"host_probe_ms", "ms", median(Probes) * 1000,
                          Probes.size()});
  Rep.Readings.push_back({"peak_rss_mb", "MiB", peakRssMb(), 1});

  if (!C.Trace) {
    Rep.Metrics.push_back({"setup_s", "s", median(SetupNorm),
                           SetupNorm.size()});
    Rep.Metrics.push_back({"norm_latency_ms", "ms", median(Norm) * 1000,
                           Norm.size()});
    Rep.Metrics.push_back({"peak_rss_mb", "MiB", peakRssMb(), 1});
    return Rep;
  }

  if (!L.countsRepeat())
    Rep.fail("per-layer counts differ between traced passes");
  uint64_t Passes = L.passes();
  for (const char *Layer : TimedLayers)
    Rep.Metrics.push_back({Layer, "s", L.layerSeconds(Layer), Passes});
  for (const char *Count : CountedLayers)
    Rep.Metrics.push_back({Count, "count", double(L.passCount(Count)), Passes});
  Rep.Metrics.push_back({"corpus.par_speedup", "x",
                         median(Serial) / median(Parallel), Parallel.size()});
  Rep.Metrics.push_back({"support.pool_busy_frac", "frac", median(Busy),
                         Busy.size()});
  Rep.Metrics.push_back({"core.session_overhead_s", "s",
                         median(Serial) - L.coveredSeconds(), Serial.size()});
  Rep.Metrics.push_back({"obs.trace_overhead_frac", "frac",
                         median(Traced) / median(Untraced) - 1,
                         Traced.size()});
  return Rep;
}

} // namespace perfbench

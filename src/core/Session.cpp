//===- Session.cpp - Phase-structured analysis driver ---------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"

#include "lang/Parser.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Timer.h"

#include <vector>

using namespace lna;

//===----------------------------------------------------------------------===//
// Core phases
//===----------------------------------------------------------------------===//

namespace {

/// Lex + parse. Holds the parsed program for the downstream phases.
class ParsePhase final : public Phase {
public:
  explicit ParsePhase(std::string_view Source) : Source(Source) {}
  const char *name() const override { return "parse"; }

  bool run(AnalysisSession &S) override {
    uint32_t NodesBefore = S.context().numExprs();
    Parsed = parse(Source, S.context(), S.diags());
    PhaseStats &PS = S.stats().phase(name());
    PS.add("ast-nodes", S.context().numExprs() - NodesBefore);
    if (!Parsed)
      return false;
    S.setInputProgram(*Parsed);
    return true;
  }

private:
  std::string_view Source;
  std::optional<Program> Parsed;
};

/// Bounded inlining of non-recursive calls (per-call-site location
/// polymorphism). Holds the rewritten program.
class InlinePhase final : public Phase {
public:
  const char *name() const override { return "inline"; }

  bool run(AnalysisSession &S) override {
    uint32_t NodesBefore = S.context().numExprs();
    Inlined = inlineCalls(S.context(), S.inputProgram(),
                          S.options().InlineDepth);
    S.stats().phase(name()).add("ast-nodes-added",
                                S.context().numExprs() - NodesBefore);
    S.setInputProgram(Inlined);
    return true;
  }

private:
  Program Inlined;
};

/// confine? candidate insertion (Infer mode). The rewritten program goes
/// straight into the result, which owns it from here on.
class PlaceConfinesPhase final : public Phase {
public:
  const char *name() const override { return "confine-placement"; }

  bool run(AnalysisSession &S) override {
    PlacementResult Placed = placeConfines(S.context(), S.inputProgram());
    PipelineResult &R = S.result();
    R.Analyzed = std::move(Placed.Rewritten);
    R.OptionalConfines = std::move(Placed.OptionalConfines);
    S.stats().phase(name()).add("confines-placed", R.OptionalConfines.size());
    S.setInputProgram(R.Analyzed);
    return true;
  }
};

/// Standard typing + unification-based may-alias analysis.
class TypingPhase final : public Phase {
public:
  const char *name() const override { return "typing"; }

  bool run(AnalysisSession &S) override {
    PipelineResult &R = S.result();
    // When placement did not run (it points Input at R.Analyzed), the
    // result still owns a copy of the input program: Analyzed is always
    // the program the analyses ran on.
    if (&S.inputProgram() != &R.Analyzed)
      R.Analyzed = S.inputProgram();

    TypeCheckOptions TCO;
    TCO.SplitLetLocations = S.options().Mode == PipelineMode::Infer;
    TCO.OptionalConfines = &R.OptionalConfines;
    TypeChecker TC(S.context(), R.State->Types, S.diags());
    std::optional<AliasResult> Alias = TC.check(R.Analyzed, TCO);

    PhaseStats &PS = S.stats().phase(name());
    PS.add("unifications", R.State->Locs.numClassesMerged());
    PS.add("locations", R.State->Locs.size());
    PS.add("type-nodes", R.State->Types.size());
    if (!Alias)
      return false;
    R.Alias = std::move(*Alias);
    PS.add("lock-sites", R.Alias.LockSites.size());
    return true;
  }
};

/// Inclusion-based constraint solving (Andersen backend only): replays
/// the typing phase's event log so solver time shows up as its own phase
/// instead of inside the first consumer query. Later queries re-solve
/// lazily as inference keeps merging.
class AliasSolvePhase final : public Phase {
public:
  const char *name() const override { return "alias-solve"; }

  bool run(AnalysisSession &S) override {
    PipelineResult &R = S.result();
    R.State->AA->prepare();
    PhaseStats &PS = S.stats().phase(name());
    PS.add("events", R.State->Locs.events().size());
    PS.add("nodes", R.State->Locs.size());
    if (R.State->AA->kind() == AliasBackendKind::Andersen)
      PS.add("components",
             static_cast<const AndersenBackend &>(*R.State->AA)
                 .numComponents());
    return true;
  }
};

/// Figure 3 effect constraint generation, emitted in the Figure 4b graph
/// form directly.
class EffectGenPhase final : public Phase {
public:
  const char *name() const override { return "effect-constraints"; }

  bool run(AnalysisSession &S) override {
    PipelineResult &R = S.result();
    EffectInferenceOptions EffOpts;
    EffOpts.ApplyDown = S.options().ApplyDown;
    // Inference always decides against the liberal (footnote 2) restrict
    // effect; with the strict form, an explicit restrict whose binder is
    // unused injects its location into every enclosing body effect and
    // let-candidates around it are spuriously rejected -- the inferred
    // set then re-checks fine but is not maximal (found by the
    // inference-maximality fuzz oracle).
    EffOpts.LiberalRestrictEffect = S.options().LiberalRestrictEffect ||
                                    S.options().Mode == PipelineMode::Infer;
    EffectInference EI(S.context(), R.Analyzed, R.Alias, R.State->Types,
                       R.State->CS, EffOpts);
    R.Eff = EI.run();

    const ConstraintSystem &CS = R.State->CS;
    PhaseStats &PS = S.stats().phase(name());
    PS.add("effect-vars", CS.numVars());
    PS.add("constraints-generated", uint64_t(CS.numEdges()) +
                                        CS.numIntersections() +
                                        CS.conditionals().size());
    PS.add("intersections", CS.numIntersections());
    PS.add("conditionals", CS.conditionals().size());
    CS.recordGraphMetrics();
    return true;
  }
};

/// Figure 5 CHECK-SAT queries verifying explicit annotations
/// (CheckAnnotations mode).
class CheckSatPhase final : public Phase {
public:
  const char *name() const override { return "check-sat"; }

  bool run(AnalysisSession &S) override {
    PipelineResult &R = S.result();
    R.Checks = checkRestricts(S.context(), R.Alias, R.Eff, R.State->CS,
                              R.State->Types, *R.State->AA);
    const SolverStats &SS = R.State->CS.stats();
    PhaseStats &PS = S.stats().phase(name());
    PS.add("checksat-queries", SS.CheckSatQueries);
    PS.add("checksat-visits", SS.CheckSatVisited);
    PS.add("violations", R.Checks.Violations.size());
    return true;
  }
};

/// Restrict + confine inference over the conditional constraint system
/// (Infer mode).
class InferencePhase final : public Phase {
public:
  const char *name() const override { return "inference"; }

  bool run(AnalysisSession &S) override {
    PipelineResult &R = S.result();
    InferenceOptions InfOpts;
    InfOpts.UseBackwardsSearch = S.options().UseBackwardsSearch;
    R.Inference = runInference(S.context(), R.Alias, R.Eff, R.State->CS,
                               *R.State->AA, InfOpts);

    uint64_t Candidates = 0;
    for (const BindInfo &B : R.Alias.Binds)
      if (B.IsPointer && !B.ExplicitRestrict)
        ++Candidates;
    const SolverStats &SS = R.State->CS.stats();
    PhaseStats &PS = S.stats().phase(name());
    PS.add("restricts-attempted", Candidates);
    PS.add("restricts-kept", R.Inference.RestrictableBinds.size());
    PS.add("confines-attempted", R.Alias.Confines.size());
    PS.add("confines-kept", R.Inference.SucceededConfines.size());
    PS.add("cond-firings", SS.CondFirings);
    PS.add("propagated-elems", SS.PropagatedElems);
    PS.add("solver-rounds", SS.Rounds);
    PS.add("violations", R.Inference.Violations.size());
    R.State->CS.recordSolutionMetrics();
    return true;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// AnalysisSession
//===----------------------------------------------------------------------===//

AnalysisSession::AnalysisSession(PipelineOptions Opts) : Opts(Opts) {
  Ctx.setMemoryLimit(Opts.Limits.MaxMemoryBytes);
}

bool AnalysisSession::runPhase(Phase &P) {
  Timer T;
  Span Sp(P.name());
  bool Ok = false;
  uint64_t ErrorsBefore = Diags.errorCount();
  try {
    // The phase runs under this session's budget and whatever fault hook
    // the caller installed; either may abort it mid-flight.
    BudgetScope Scope(Budget);
    faultPoint(P.name());
    Budget.checkNow();
    Ok = P.run(*this);
    if (!Ok && !Failure) {
      // The phase declined through diagnostics rather than by throwing:
      // categorize by where in the pipeline it sits.
      FailureKind K = std::string_view(P.name()) == "parse"
                          ? FailureKind::ParseError
                          : FailureKind::TypeError;
      uint64_t N = Diags.errorCount() - ErrorsBefore;
      Failure = PhaseFailure{P.name(), K,
                             std::to_string(N) + " error(s) reported"};
    }
  } catch (const AnalysisAbort &A) {
    Failure = PhaseFailure{P.name(), A.kind(), A.what()};
  } catch (const std::bad_alloc &) {
    Failure = PhaseFailure{P.name(), FailureKind::MemoryCap, "out of memory"};
  } catch (const std::exception &E) {
    Failure = PhaseFailure{P.name(), FailureKind::InternalError, E.what()};
  }
  // Accumulate (not overwrite): a phase may run repeatedly in one
  // session, e.g. lock analysis once per mode.
  Stats.phase(P.name()).Seconds += T.seconds();
  return Ok;
}

bool AnalysisSession::runPhases(std::string_view Source,
                                const Program *Parsed) {
  // Every run starts from fresh analysis state: the modes type the same
  // program differently, so only the context, the diagnostics and the
  // stats carry over from an earlier run.
  Result = PipelineResult{};
  Result.State = std::make_unique<AnalysisState>();
  Result.State->selectAliasBackend(Opts.AliasBackend);
  if (Opts.TrackProvenance)
    Result.State->CS.enableOriginTracking();
  Finished = false;
  Failure.reset();
  // Nodes already in the context were parsed for this run's program
  // (by the caller or an earlier run); they count against its node cap
  // just as a parse phase of its own would have charged them.
  Budget.arm(Opts.Limits, Ctx.numExprs());

  std::vector<std::unique_ptr<Phase>> Pipeline;
  Input = Parsed;
  if (!Parsed)
    Pipeline.push_back(std::make_unique<ParsePhase>(Source));
  if (Opts.InlineDepth > 0)
    Pipeline.push_back(std::make_unique<InlinePhase>());
  if (Opts.Mode == PipelineMode::Infer && Opts.PlaceConfines)
    Pipeline.push_back(std::make_unique<PlaceConfinesPhase>());
  Pipeline.push_back(std::make_unique<TypingPhase>());
  if (Opts.AliasBackend != AliasBackendKind::Steensgaard)
    Pipeline.push_back(std::make_unique<AliasSolvePhase>());
  for (std::unique_ptr<Phase> &P : Pipeline)
    if (!runPhase(*P))
      return false;

  // Checking queries CHECK-SAT per annotated scope, O(kn) for k scopes
  // (Section 4). At k = 0 nothing reads the effect constraints, so the
  // run ends after typing with Eff and Checks empty (Checks.ok()).
  const bool Check = Opts.Mode == PipelineMode::CheckAnnotations;
  if (Check && !hasScopesToCheck(Result.Alias)) {
    Finished = true;
    return true;
  }
  EffectGenPhase EffectGen;
  CheckSatPhase CheckSat;
  InferencePhase Inference;
  Phase &Solve = Check ? static_cast<Phase &>(CheckSat) : Inference;
  if (!runPhase(EffectGen) || !runPhase(Solve))
    return false;
  Finished = true;
  return true;
}

bool AnalysisSession::run(std::string_view Source) {
  return runPhases(Source, nullptr);
}

bool AnalysisSession::run(const Program &P) { return runPhases({}, &P); }

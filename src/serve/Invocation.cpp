//===- Invocation.cpp - One lna-analyze invocation as a library -----------===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "serve/Invocation.h"

#include "lang/AstPrinter.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "obs/Trace.h"
#include "qual/LockAnalysis.h"
#include "semantics/Interp.h"
#include "support/Hash.h"
#include "support/ParseArg.h"
#include "support/Version.h"

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <optional>

using namespace lna;

namespace {

/// Exit statuses (mirrors the table in tools/lna-analyze.cpp).
constexpr int ExitBadFlagValue = 5;
constexpr int ExitBudgetExhausted = 6;
constexpr int ExitInternalError = 7;

/// printf onto the end of a string: the sink-based replacement for the
/// CLI's direct std::printf/std::fprintf calls. The format strings are
/// carried over verbatim so every output byte matches the one-shot
/// tool's history.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string &S, const char *Fmt, ...) {
  va_list Ap, Ap2;
  va_start(Ap, Fmt);
  va_copy(Ap2, Ap);
  int N = std::vsnprintf(nullptr, 0, Fmt, Ap);
  va_end(Ap);
  if (N > 0) {
    size_t Old = S.size();
    S.resize(Old + static_cast<size_t>(N) + 1);
    std::vsnprintf(&S[Old], static_cast<size_t>(N) + 1, Fmt, Ap2);
    S.resize(Old + static_cast<size_t>(N));
  }
  va_end(Ap2);
}

} // namespace

int InvocationArgParser::parse(const std::string &Arg, std::string &Err) {
  InvocationOptions &O = Opts;
  if (Arg == "--check") {
    O.Mode = PipelineMode::CheckAnnotations;
  } else if (Arg == "--infer") {
    O.Mode = PipelineMode::Infer;
  } else if (Arg == "--all-strong") {
    O.AllStrong = true;
  } else if (Arg == "--print-annotated") {
    O.PrintAnnotated = true;
  } else if (Arg == "--no-locks") {
    O.RunLocks = false;
  } else if (Arg == "--no-down") {
    O.ApplyDown = false;
  } else if (Arg == "--backwards") {
    O.Backwards = true;
  } else if (Arg == "--stats") {
    O.PrintStats = true;
  } else if (Arg.rfind("--stats-json=", 0) == 0) {
    std::string Target = Arg.substr(13);
    if (Target.empty()) {
      Err = "error: --stats-json needs a file name ('-' for stdout)\n";
      return ExitBadFlagValue;
    }
    if (!AllowFileOutputs && Target != "-") {
      appendf(Err, "error: '%s' is not allowed in a serve request "
                   "(server-side file output; use --stats-json=-)\n",
              Arg.c_str());
      return 1;
    }
    if (SawStatsJson && Target != O.StatsJsonFile) {
      appendf(Err, "error: conflicting --stats-json targets '%s' and '%s'\n",
              O.StatsJsonFile.c_str(), Target.c_str());
      return ExitBadFlagValue;
    }
    SawStatsJson = true;
    O.StatsJsonFile = std::move(Target);
  } else if (Arg.rfind("--trace-out=", 0) == 0) {
    std::string Target = Arg.substr(12);
    // Traces can be large and the analysis output already owns stdout,
    // so '-' is deliberately not supported here.
    if (Target.empty() || Target == "-") {
      Err = "error: --trace-out needs a file name\n";
      return ExitBadFlagValue;
    }
    if (!AllowFileOutputs) {
      appendf(Err, "error: '%s' is not allowed in a serve request "
                   "(server-side file output)\n",
              Arg.c_str());
      return 1;
    }
    if (SawTraceOut && Target != O.TraceOutFile) {
      appendf(Err, "error: conflicting --trace-out targets '%s' and '%s'\n",
              O.TraceOutFile.c_str(), Target.c_str());
      return ExitBadFlagValue;
    }
    SawTraceOut = true;
    O.TraceOutFile = std::move(Target);
  } else if (Arg.rfind("--metrics-out=", 0) == 0) {
    std::string Target = Arg.substr(14);
    if (Target.empty()) {
      Err = "error: --metrics-out needs a file name ('-' for stdout)\n";
      return ExitBadFlagValue;
    }
    if (!AllowFileOutputs && Target != "-") {
      appendf(Err, "error: '%s' is not allowed in a serve request "
                   "(server-side file output; use --metrics-out=-)\n",
              Arg.c_str());
      return 1;
    }
    if (SawMetricsOut && Target != O.MetricsOutFile) {
      appendf(Err, "error: conflicting --metrics-out targets '%s' and '%s'\n",
              O.MetricsOutFile.c_str(), Target.c_str());
      return ExitBadFlagValue;
    }
    SawMetricsOut = true;
    O.MetricsOutFile = std::move(Target);
  } else if (Arg.rfind("--cache-dir=", 0) == 0) {
    if (!AllowFileOutputs) {
      // The daemon owns its cache directory; requests cannot redirect it.
      appendf(Err, "error: '%s' is not allowed in a serve request "
                   "(the server owns the cache directory)\n",
              Arg.c_str());
      return 1;
    }
    O.CacheDir = Arg.substr(12);
    if (O.CacheDir.empty()) {
      Err = "error: --cache-dir needs a directory\n";
      return ExitBadFlagValue;
    }
  } else if (Arg == "--explain") {
    O.Explain = true;
  } else if (Arg.rfind("--inline-depth=", 0) == 0) {
    uint64_t Depth = 0;
    // Deeper than 64 is never useful and only multiplies the AST.
    if (!parseUnsignedArg(Arg.substr(15), Depth, 64)) {
      appendf(Err, "error: invalid value in '%s' (expected an integer "
                   "in [0, 64])\n",
              Arg.c_str());
      return ExitBadFlagValue;
    }
    O.InlineDepth = static_cast<unsigned>(Depth);
  } else if (Arg.rfind("--timeout-ms=", 0) == 0) {
    if (!parseUnsignedArg(Arg.substr(13), O.Limits.TimeoutMillis,
                          UINT64_MAX) ||
        O.Limits.TimeoutMillis == 0) {
      appendf(Err, "error: invalid value in '%s' (expected a positive "
                   "millisecond count)\n",
              Arg.c_str());
      return ExitBadFlagValue;
    }
  } else if (Arg.rfind("--max-memory-mb=", 0) == 0) {
    uint64_t Mb = 0;
    if (!parseUnsignedArg(Arg.substr(16), Mb, UINT64_MAX / (1024 * 1024)) ||
        Mb == 0) {
      appendf(Err, "error: invalid value in '%s' (expected a positive "
                   "megabyte count)\n",
              Arg.c_str());
      return ExitBadFlagValue;
    }
    O.Limits.MaxMemoryBytes = Mb * 1024 * 1024;
  } else if (Arg.rfind("--max-steps=", 0) == 0) {
    if (!parseUnsignedArg(Arg.substr(12), O.Limits.MaxSteps, UINT64_MAX) ||
        O.Limits.MaxSteps == 0) {
      appendf(Err, "error: invalid value in '%s' (expected a positive "
                   "step count)\n",
              Arg.c_str());
      return ExitBadFlagValue;
    }
  } else if (Arg.rfind("--alias=", 0) == 0) {
    std::optional<AliasBackendKind> K = aliasBackendFromName(Arg.substr(8));
    if (!K) {
      appendf(Err, "error: invalid value in '%s' (expected "
                   "'steensgaard' or 'andersen')\n",
              Arg.c_str());
      return ExitBadFlagValue;
    }
    O.AliasBackend = *K;
  } else if (Arg == "--run") {
    O.RunProgramToo = true;
  } else if (Arg.rfind("--run=", 0) == 0) {
    uint64_t Seed = 0;
    if (!parseUnsignedArg(Arg.substr(6), Seed)) {
      appendf(Err, "error: invalid value in '%s' (expected a "
                   "non-negative integer seed)\n",
              Arg.c_str());
      return ExitBadFlagValue;
    }
    O.RunProgramToo = true;
    O.RunSeed = Seed;
  } else if (!Arg.empty() && Arg[0] == '-') {
    appendf(Err, "unknown option '%s'\n", Arg.c_str());
    return 1;
  } else if (!AllowPositional) {
    appendf(Err, "error: unexpected positional argument '%s' (source is "
                 "passed in-band)\n",
            Arg.c_str());
    return 1;
  } else if (File.empty()) {
    File = Arg;
  } else {
    Err = "multiple input files\n";
    return 1;
  }
  return 0;
}

int InvocationArgParser::parseAll(const std::vector<std::string> &Args,
                                  std::string &Err) {
  for (const std::string &Arg : Args)
    if (int Status = parse(Arg, Err))
      return Status;
  return 0;
}

PipelineOptions lna::invocationPipelineOptions(const InvocationOptions &Cli) {
  PipelineOptions Opts;
  Opts.Mode = Cli.Mode;
  Opts.InlineDepth = Cli.InlineDepth;
  Opts.ApplyDown = Cli.ApplyDown;
  Opts.UseBackwardsSearch = Cli.Backwards;
  Opts.TrackProvenance = Cli.Explain;
  Opts.AliasBackend = Cli.AliasBackend;
  Opts.Limits = Cli.Limits;
  return Opts;
}

std::string lna::invocationKey(const InvocationOptions &Cli,
                               const std::string &Source) {
  std::string Flags;
  Flags += "all-strong=";
  Flags += Cli.AllStrong ? "1;" : "_;";
  Flags += "locks=";
  Flags += Cli.RunLocks ? "1;" : "_;";
  Flags += "print-annotated=";
  Flags += Cli.PrintAnnotated ? "1;" : "_;";
  Flags += "explain=";
  Flags += Cli.Explain ? "1;" : "_;";
  Flags += "run=";
  Flags += Cli.RunProgramToo ? "1;" : "_;";
  Flags += "run-seed=" + std::to_string(Cli.RunSeed) + ";";
  ContentDigest D;
  D.update(AnalyzerVersion);
  D.update(canonicalOptionsFingerprint(invocationPipelineOptions(Cli)));
  D.update(Flags);
  D.update(Source);
  return "a-" + D.hex();
}

bool lna::bypassesResultCache(const InvocationOptions &Cli) {
  // Timing/trace/metrics output is observational, not part of the
  // deterministic result: replaying a recorded run would fabricate it.
  return Cli.PrintStats || !Cli.StatsJsonFile.empty() ||
         !Cli.TraceOutFile.empty() || !Cli.MetricsOutFile.empty();
}

std::string lna::resultCacheBypassNote() {
  return "lna-analyze: note: result cache bypassed "
         "(--stats/--stats-json/--trace-out/--metrics-out "
         "request live observability output)\n";
}

bool lna::invocationCacheable(int Exit) { return Exit >= 0 && Exit <= 3; }

// Cache entry: "analyze 1 <exit> <out-len> <err-len>\n" followed by the
// recorded stdout then stderr bytes.
std::string lna::encodeInvocation(const InvocationResult &R) {
  std::string E = "analyze 1 ";
  E += std::to_string(R.Exit);
  E += ' ';
  E += std::to_string(R.Out.size());
  E += ' ';
  E += std::to_string(R.Err.size());
  E += '\n';
  E += R.Out;
  E += R.Err;
  return E;
}

bool lna::decodeInvocation(const std::string &E, InvocationResult &R) {
  unsigned long long Ver = 0, Code = 0, OutLen = 0, ErrLen = 0;
  int Used = 0;
  if (std::sscanf(E.c_str(), "analyze %llu %llu %llu %llu\n%n", &Ver, &Code,
                  &OutLen, &ErrLen, &Used) != 4 ||
      Ver != 1 || Code > 3 || Used <= 0)
    return false;
  size_t Pos = static_cast<size_t>(Used);
  if (OutLen > E.size() - Pos || ErrLen != E.size() - Pos - OutLen)
    return false;
  R.Exit = static_cast<int>(Code);
  R.Out = E.substr(Pos, OutLen);
  R.Err = E.substr(Pos + OutLen, ErrLen);
  return true;
}

namespace {

/// Maps a session failure onto the exit-status table: budget exhaustion
/// -> 6, internal errors -> 7, anything else (parse/type errors, which
/// already wrote diagnostics) -> \p Fallback. Reports abort failures to
/// the error sink, since they carry no diagnostics.
int budgetFailureExit(const AnalysisSession &Session, int Fallback,
                      std::string &Err) {
  if (!Session.failure())
    return Fallback;
  const PhaseFailure &F = *Session.failure();
  switch (F.Kind) {
  case FailureKind::Timeout:
  case FailureKind::MemoryCap:
  case FailureKind::StepCap:
    appendf(Err, "lna-analyze: error: analysis aborted in phase "
                 "'%s': %s\n",
            F.Phase.c_str(), F.Message.c_str());
    return ExitBudgetExhausted;
  case FailureKind::InternalError:
    appendf(Err, "lna-analyze: error: internal error in phase "
                 "'%s': %s\n",
            F.Phase.c_str(), F.Message.c_str());
    return ExitInternalError;
  case FailureKind::None:
  case FailureKind::ParseError:
  case FailureKind::TypeError:
  case FailureKind::Crashed: // supervisor-assigned; never raised in process
    break;
  }
  return Fallback;
}

/// Emits the trace and metrics output per --trace-out/--metrics-out.
/// Returns false if a file could not be written.
bool emitObs(const InvocationOptions &Cli, const TraceSink *Trace,
             const MetricsRegistry &Metrics, InvocationResult &R) {
  bool Ok = true;
  if (Trace && !Cli.TraceOutFile.empty()) {
    std::ofstream Out(Cli.TraceOutFile);
    if (Out)
      Out << Trace->renderChromeJSON();
    if (!Out) {
      appendf(R.Err, "error: cannot write '%s'\n", Cli.TraceOutFile.c_str());
      Ok = false;
    }
  }
  if (!Cli.MetricsOutFile.empty()) {
    std::string Json = Metrics.renderJSON();
    if (Cli.MetricsOutFile == "-") {
      R.Out += Json;
    } else {
      std::ofstream Out(Cli.MetricsOutFile);
      if (Out)
        Out << Json;
      if (!Out) {
        appendf(R.Err, "error: cannot write '%s'\n",
                Cli.MetricsOutFile.c_str());
        Ok = false;
      }
    }
  }
  return Ok;
}

/// Emits the collected per-phase stats per --stats/--stats-json.
/// Returns false if the JSON file could not be written.
bool emitStats(const InvocationOptions &Cli, const SessionStats &Stats,
               InvocationResult &R) {
  if (Cli.PrintStats)
    appendf(R.Out, "per-phase stats:\n%s", Stats.renderText().c_str());
  if (Cli.StatsJsonFile.empty())
    return true;
  std::string Json = Stats.renderJSON();
  if (Cli.StatsJsonFile == "-") {
    appendf(R.Out, "%s\n", Json.c_str());
    return true;
  }
  std::ofstream Out(Cli.StatsJsonFile);
  if (!Out) {
    appendf(R.Err, "error: cannot write '%s'\n", Cli.StatsJsonFile.c_str());
    return false;
  }
  Out << Json << '\n';
  return true;
}

/// Prints the constraint derivation path behind one violation
/// (--explain). The path walks the effect constraint graph from the
/// annotation's scope effect back to the access that seeded the
/// conflicting location into it.
void printExplanation(AnalysisSession &Session, const PipelineResult &R,
                      const RestrictViolation &V, std::string &Out) {
  if (V.ExplainRho == InvalidLocId || V.ExplainTarget == InvalidEffVar) {
    Out += "  (no constraint path: the violation is not established "
           "by a single reachability query)\n";
    return;
  }
  std::vector<ExplainStep> Path =
      R.State->CS.explainReachAnyKind(V.ExplainRho, V.ExplainTarget);
  if (Path.empty()) {
    Out += "  (no constraint path found)\n";
    return;
  }
  if (V.Node != InvalidExprId) {
    SourceLoc Loc = Session.context().expr(V.Node)->loc();
    appendf(Out, "  constraint path (annotation at %s):\n",
            toString(Loc).c_str());
  } else {
    appendf(Out, "  constraint path (restrict parameter %u of function "
                 "%u):\n",
            V.ParamIndex, V.FunIndex);
  }
  Out += renderConstraintPath(Path, "    ");
}

} // namespace

InvocationResult lna::runInvocation(const InvocationOptions &Cli,
                                    std::string_view Source, std::nullptr_t) {
  InvocationResult R;
  PipelineOptions Opts = invocationPipelineOptions(Cli);

  // Install the observability sinks before the session so every phase,
  // the lock analysis, and --run evaluation all land in them. The
  // scopes are strictly request-local: they save and restore the
  // thread's previous sinks, so a pooled daemon thread leaves each
  // request exactly as isolated as a fresh process.
  std::optional<TraceSink> Trace;
  std::optional<TraceScope> TraceInstall;
  if (!Cli.TraceOutFile.empty()) {
    Trace.emplace();
    TraceInstall.emplace(*Trace);
  }
  MetricsRegistry Metrics;
  std::optional<MetricsScope> MetricsInstall;
  if (!Cli.MetricsOutFile.empty())
    MetricsInstall.emplace(Metrics);

  AnalysisSession Session(Opts);
  bool Analyzed = Session.run(Source);
  if (Session.diags().hasErrors()) {
    R.Err += Session.diags().render();
    appendf(R.Err, "%u error(s)\n", Session.diags().errorCount());
  }
  if (!Analyzed) {
    emitStats(Cli, Session.stats(), R);
    emitObs(Cli, Trace ? &*Trace : nullptr, Metrics, R);
    R.Exit = budgetFailureExit(Session, 1, R.Err);
    return R;
  }
  PipelineResult &Res = Session.result();

  int Exit = 0;

  if (Cli.Mode == PipelineMode::CheckAnnotations) {
    if (Res.Checks.ok()) {
      R.Out += "annotations: all restrict/confine annotations "
               "verified\n";
    } else {
      for (const RestrictViolation &V : Res.Checks.Violations) {
        appendf(R.Out, "violation: %s\n", V.Message.c_str());
        if (Cli.Explain)
          printExplanation(Session, Res, V, R.Out);
      }
      Exit = 2;
    }
  } else {
    appendf(R.Out, "inference: %zu let binding(s) restrictable, %zu confine "
                   "scope(s) verified (%zu candidate(s))\n",
            Res.Inference.RestrictableBinds.size(),
            Res.Inference.SucceededConfines.size(),
            Res.OptionalConfines.size());
    if (!Res.Inference.Violations.empty()) {
      for (const RestrictViolation &V : Res.Inference.Violations) {
        appendf(R.Out, "violation: %s\n", V.Message.c_str());
        if (Cli.Explain)
          printExplanation(Session, Res, V, R.Out);
      }
      Exit = 2;
    }
  }

  if (Cli.RunLocks) {
    LockAnalysisOptions LockOpts;
    LockOpts.AllStrong = Cli.AllStrong;
    LockAnalysisResult Locks = analyzeLocks(Session, LockOpts);
    // The lock phase runs through runPhase, so budget exhaustion inside
    // it surfaces as a session failure rather than an exception.
    if (Session.failure()) {
      emitStats(Cli, Session.stats(), R);
      emitObs(Cli, Trace ? &*Trace : nullptr, Metrics, R);
      R.Exit = budgetFailureExit(Session, 1, R.Err);
      return R;
    }
    appendf(R.Out, "lock analysis%s: %u unverifiable site(s)\n",
            Cli.AllStrong ? " (all updates strong)" : "", Locks.numErrors());
    for (const LockError &E : Locks.Errors)
      appendf(R.Out, "  line %u: %s cannot be verified (state '%s')\n",
              E.Loc.Line, E.IsAcquire ? "spin_lock" : "spin_unlock",
              lockStateName(E.Pre));
    if (Locks.numErrors() && Exit == 0)
      Exit = 3;
  }

  if (Cli.PrintAnnotated) {
    PrintOverlay Overlay;
    Overlay.BindAsRestrict = Res.Inference.RestrictableBinds;
    for (ExprId Id : Res.OptionalConfines)
      if (!Res.Inference.confineSucceeded(Id))
        Overlay.DropConfines.insert(Id);
    R.Out += AstPrinter(Session.context(), &Overlay).print(Res.Analyzed);
  }

  if (Cli.RunProgramToo) {
    InterpOptions IO;
    IO.NondetSeed = Cli.RunSeed;
    // Evaluation is not a session phase; run it under the session's
    // budget (sharing the deadline and step count) and contain aborts
    // here.
    RunResult Run;
    try {
      BudgetScope Scope(Session.budget());
      Run = runProgram(Session.context(), Res.Analyzed, IO);
    } catch (const AnalysisAbort &A) {
      appendf(R.Err, "lna-analyze: error: evaluation aborted: %s\n", A.what());
      emitStats(Cli, Session.stats(), R);
      emitObs(Cli, Trace ? &*Trace : nullptr, Metrics, R);
      R.Exit = A.kind() == FailureKind::InternalError ? ExitInternalError
                                                      : ExitBudgetExhausted;
      return R;
    }
    const char *Status = "value";
    switch (Run.Status) {
    case RunStatus::Value:
      Status = "value";
      break;
    case RunStatus::Err:
      Status = "err (restrict violation witnessed)";
      break;
    case RunStatus::OutOfFuel:
      Status = "out of fuel";
      break;
    case RunStatus::Stuck:
      Status = "stuck";
      break;
    }
    appendf(R.Out, "evaluation (seed %llu): %s",
            static_cast<unsigned long long>(Cli.RunSeed), Status);
    if (Run.Status == RunStatus::Value)
      appendf(R.Out, " %lld", static_cast<long long>(Run.Value));
    if (!Run.Note.empty())
      appendf(R.Out, " [%s]", Run.Note.c_str());
    R.Out += '\n';
  }

  if (!emitStats(Cli, Session.stats(), R) && Exit == 0)
    Exit = 1;
  if (!emitObs(Cli, Trace ? &*Trace : nullptr, Metrics, R) && Exit == 0)
    Exit = 1;

  R.Exit = Exit;
  return R;
}

InvocationResult lna::runInvocationWithStore(const InvocationOptions &Cli,
                                             const std::string &Source,
                                             CacheStore &Store) {
  if (bypassesResultCache(Cli)) {
    InvocationResult R = runInvocation(Cli, Source);
    R.Err.insert(0, resultCacheBypassNote());
    return R;
  }
  std::string Key = invocationKey(Cli, Source);
  if (std::optional<std::string> Entry = Store.load(Key)) {
    InvocationResult R;
    if (decodeInvocation(*Entry, R))
      return R;
    // A well-formed envelope with an undecodable payload: semantically
    // stale, re-run and overwrite.
    Store.noteSemanticStale();
  }
  InvocationResult R = runInvocation(Cli, Source);
  if (invocationCacheable(R.Exit))
    Store.store(Key, encodeInvocation(R));
  return R;
}

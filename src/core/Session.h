//===- Session.h - Phase-structured analysis driver -----------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver layer of the analyzer. An AnalysisSession owns everything
/// one end-to-end analysis needs -- the ASTContext, the Diagnostics sink,
/// and the PipelineOptions -- and runs the stages of the paper's
/// algorithm as explicit named phases behind the small Phase interface:
///
/// \code
///   parse              lex + parse (only when the session parses source)
///   inline             bounded call inlining   (when InlineDepth > 0)
///   confine-placement  confine? candidate insertion  (Infer mode)
///   typing             standard typing + may-alias unification
///   effect-constraints Figure 3 constraint generation
///   check-sat          Figure 5 per-restrict queries  (CheckAnnotations)
///   inference          restrict + confine inference   (Infer mode)
///   lock-analysis      flow-sensitive lock states (registered from qual)
/// \endcode
///
/// A CheckAnnotations run over a program with no scope to check (no
/// explicit restrict, restrict parameter or confine; hasScopesToCheck)
/// ends after typing: checking costs O(kn) for k scopes (Section 4), and
/// at k = 0 nothing reads the effect constraints.
///
/// Each phase is timed, and phases publish counters (unifications,
/// constraints generated, CHECK-SAT visits, restricts kept, ...) into the
/// session's SessionStats (support/Stats.h). Layers above core -- the
/// qual lock analysis -- instrument their own work through runPhase(),
/// keeping the library dependency order intact.
///
/// Sessions are single-threaded and self-contained. Every run() starts
/// from fresh analysis state over the session's one ASTContext, so the
/// corpus experiment (src/corpus/Experiment.cpp) parses each module once
/// and runs the checking and inference modes as two runs of one session.
///
/// The session is the one entry point into the analysis. Typical use:
///
/// \code
///   lna::AnalysisSession S(Opts);
///   if (!S.run(Source)) { ... S.diags().render() ... }
///   else {
///     ... S.result().Inference.RestrictableBinds ...
///     std::puts(S.stats().renderText().c_str());
///   }
/// \endcode
///
/// A caller that needs the parsed Program itself (to evaluate it, or to
/// time only the analysis) parses into the session's context and hands
/// the program to run():
///
/// \code
///   lna::AnalysisSession S(Opts);
///   auto P = lna::parse(Source, S.context(), S.diags());
///   if (P && S.run(*P)) { ... }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef LNA_CORE_SESSION_H
#define LNA_CORE_SESSION_H

#include "core/Pipeline.h"
#include "support/Budget.h"
#include "support/Stats.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace lna {

class AnalysisSession;

/// How a session run failed, structurally: the phase that aborted or
/// reported errors, a FailureKind categorizing why, and a deterministic
/// human-readable message. Stats accumulated up to the failing phase are
/// preserved in the session.
struct PhaseFailure {
  std::string Phase;
  FailureKind Kind = FailureKind::None;
  std::string Message;
};

/// One named stage of the analysis. Concrete phases live next to the
/// code they drive (Session.cpp for the core stages, qual/LockAnalysis
/// for the lock phase).
class Phase {
public:
  virtual ~Phase() = default;
  /// The stable name the phase's timings and counters appear under.
  virtual const char *name() const = 0;
  /// Runs the phase against the session. Returning false stops the
  /// pipeline (the phase has already explained why through diags()).
  virtual bool run(AnalysisSession &S) = 0;
};

/// Owns the state of one end-to-end analysis and drives its phases.
class AnalysisSession {
public:
  /// A self-contained session owning its ASTContext and Diagnostics.
  explicit AnalysisSession(PipelineOptions Opts = {});

  AnalysisSession(const AnalysisSession &) = delete;
  AnalysisSession &operator=(const AnalysisSession &) = delete;

  ASTContext &context() { return Ctx; }
  Diagnostics &diags() { return Diags; }
  const Diagnostics &diags() const { return Diags; }
  const PipelineOptions &options() const { return Opts; }

  SessionStats &stats() { return Stats; }
  const SessionStats &stats() const { return Stats; }

  /// Parses \p Source and runs the analysis phases. Returns false on
  /// parse or standard type errors (reported through diags()).
  bool run(std::string_view Source);
  /// Runs the analysis phases over a program already parsed into
  /// context(); no parse phase is recorded, but the context's nodes count
  /// against the run's AST-node cap as if this run had parsed them.
  bool run(const Program &P);
  /// Selects the mode of the following runs (a run's stats accumulate;
  /// its analysis state, result and budget start afresh).
  void setMode(PipelineMode M) { Opts.Mode = M; }

  /// Runs one caller-supplied phase with session timing and counter
  /// instrumentation. This is how layers above core (e.g. the qual lock
  /// analysis) join the phase-structured pipeline. Resource-budget
  /// exhaustion and exceptions escaping the phase are contained here and
  /// recorded as the session's failure(); they never propagate out.
  bool runPhase(Phase &P);

  /// Why the last run failed, or nullopt if it succeeded or never ran.
  const std::optional<PhaseFailure> &failure() const { return Failure; }

  /// The budget governing the phases, re-armed at the start of each run.
  ResourceBudget &budget() { return Budget; }

  /// True after a successful run().
  bool hasResult() const { return Finished; }
  /// The analysis products; valid only when hasResult().
  PipelineResult &result() { return Result; }
  const PipelineResult &result() const { return Result; }

  // Phase-facing state: pipeline internals, exposed for the phases and
  // for tests that inspect intermediate state.

  /// The program the next phase should analyze. The parse, inline, and
  /// confine-placement phases advance it; the pointee lives in the
  /// producing phase object (or the caller, for run(P)) until the run
  /// completes and Result.Analyzed owns the final program.
  const Program &inputProgram() const { return *Input; }
  void setInputProgram(const Program &P) { Input = &P; }

private:
  bool runPhases(std::string_view Source, const Program *Parsed);

  ASTContext Ctx;
  Diagnostics Diags;
  PipelineOptions Opts;
  SessionStats Stats;
  ResourceBudget Budget;
  std::optional<PhaseFailure> Failure;

  PipelineResult Result;
  const Program *Input = nullptr;
  bool Finished = false;
};

} // namespace lna

#endif // LNA_CORE_SESSION_H

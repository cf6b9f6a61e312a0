//===- Oracles.cpp - Differential-testing oracles -------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracles.h"

#include "cache/CacheStore.h"
#include "core/Session.h"
#include "corpus/Experiment.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "semantics/Interp.h"

#include <atomic>
#include <cstring>
#include <filesystem>

#include <unistd.h>

using namespace lna;

const char *lna::oracleName(OracleKind K) {
  switch (K) {
  case OracleKind::Soundness:
    return "soundness";
  case OracleKind::SolverAgreement:
    return "solver-agreement";
  case OracleKind::InferenceMaximality:
    return "inference-maximality";
  case OracleKind::PrintParseRoundTrip:
    return "round-trip";
  case OracleKind::CacheIdentity:
    return "cache-identity";
  case OracleKind::PrecisionDifferential:
    return "precision-differential";
  }
  return "?";
}

std::optional<OracleKind> lna::oracleFromName(std::string_view Name) {
  for (unsigned I = 0; I < NumOracleKinds; ++I) {
    OracleKind K = static_cast<OracleKind>(I);
    if (Name == oracleName(K))
      return K;
  }
  return std::nullopt;
}

namespace {

//===----------------------------------------------------------------------===//
// Cross-context structural equality
//===----------------------------------------------------------------------===//

// The two programs live in different ASTContexts, so Symbols must be
// compared by text, never by id.

bool typesEqual(const ASTContext &CA, const TypeExpr *A, const ASTContext &CB,
                const TypeExpr *B) {
  if (A == nullptr || B == nullptr)
    return A == B;
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case TypeExpr::Kind::Int:
  case TypeExpr::Kind::Lock:
    return true;
  case TypeExpr::Kind::Ptr:
  case TypeExpr::Kind::Array:
    return typesEqual(CA, A->element(), CB, B->element());
  case TypeExpr::Kind::Named:
    return CA.text(A->name()) == CB.text(B->name());
  }
  return false;
}

bool exprsEqual(const ASTContext &CA, const Expr *A, const ASTContext &CB,
                const Expr *B) {
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case Expr::Kind::IntLit:
    return cast<IntLitExpr>(A)->value() == cast<IntLitExpr>(B)->value();
  case Expr::Kind::VarRef:
    return CA.text(cast<VarRefExpr>(A)->name()) ==
           CB.text(cast<VarRefExpr>(B)->name());
  case Expr::Kind::BinOp: {
    const auto *X = cast<BinOpExpr>(A), *Y = cast<BinOpExpr>(B);
    return X->op() == Y->op() && exprsEqual(CA, X->lhs(), CB, Y->lhs()) &&
           exprsEqual(CA, X->rhs(), CB, Y->rhs());
  }
  case Expr::Kind::New:
    return exprsEqual(CA, cast<NewExpr>(A)->init(), CB,
                      cast<NewExpr>(B)->init());
  case Expr::Kind::NewArray:
    return exprsEqual(CA, cast<NewArrayExpr>(A)->init(), CB,
                      cast<NewArrayExpr>(B)->init());
  case Expr::Kind::Deref:
    return exprsEqual(CA, cast<DerefExpr>(A)->pointer(), CB,
                      cast<DerefExpr>(B)->pointer());
  case Expr::Kind::Assign: {
    const auto *X = cast<AssignExpr>(A), *Y = cast<AssignExpr>(B);
    return exprsEqual(CA, X->target(), CB, Y->target()) &&
           exprsEqual(CA, X->value(), CB, Y->value());
  }
  case Expr::Kind::Index: {
    const auto *X = cast<IndexExpr>(A), *Y = cast<IndexExpr>(B);
    return exprsEqual(CA, X->array(), CB, Y->array()) &&
           exprsEqual(CA, X->index(), CB, Y->index());
  }
  case Expr::Kind::FieldAddr: {
    const auto *X = cast<FieldAddrExpr>(A), *Y = cast<FieldAddrExpr>(B);
    return CA.text(X->field()) == CB.text(Y->field()) &&
           exprsEqual(CA, X->base(), CB, Y->base());
  }
  case Expr::Kind::Call: {
    const auto *X = cast<CallExpr>(A), *Y = cast<CallExpr>(B);
    if (CA.text(X->callee()) != CB.text(Y->callee()) ||
        X->args().size() != Y->args().size())
      return false;
    for (size_t I = 0; I < X->args().size(); ++I)
      if (!exprsEqual(CA, X->args()[I], CB, Y->args()[I]))
        return false;
    return true;
  }
  case Expr::Kind::Block: {
    const auto *X = cast<BlockExpr>(A), *Y = cast<BlockExpr>(B);
    if (X->stmts().size() != Y->stmts().size())
      return false;
    for (size_t I = 0; I < X->stmts().size(); ++I)
      if (!exprsEqual(CA, X->stmts()[I], CB, Y->stmts()[I]))
        return false;
    return true;
  }
  case Expr::Kind::Bind: {
    const auto *X = cast<BindExpr>(A), *Y = cast<BindExpr>(B);
    return X->bindKind() == Y->bindKind() &&
           CA.text(X->name()) == CB.text(Y->name()) &&
           exprsEqual(CA, X->init(), CB, Y->init()) &&
           exprsEqual(CA, X->body(), CB, Y->body());
  }
  case Expr::Kind::Confine: {
    const auto *X = cast<ConfineExpr>(A), *Y = cast<ConfineExpr>(B);
    return exprsEqual(CA, X->subject(), CB, Y->subject()) &&
           exprsEqual(CA, X->body(), CB, Y->body());
  }
  case Expr::Kind::If: {
    const auto *X = cast<IfExpr>(A), *Y = cast<IfExpr>(B);
    return exprsEqual(CA, X->cond(), CB, Y->cond()) &&
           exprsEqual(CA, X->thenExpr(), CB, Y->thenExpr()) &&
           exprsEqual(CA, X->elseExpr(), CB, Y->elseExpr());
  }
  case Expr::Kind::While: {
    const auto *X = cast<WhileExpr>(A), *Y = cast<WhileExpr>(B);
    return exprsEqual(CA, X->cond(), CB, Y->cond()) &&
           exprsEqual(CA, X->body(), CB, Y->body());
  }
  case Expr::Kind::Cast: {
    const auto *X = cast<CastExpr>(A), *Y = cast<CastExpr>(B);
    return typesEqual(CA, X->targetType(), CB, Y->targetType()) &&
           exprsEqual(CA, X->operand(), CB, Y->operand());
  }
  }
  return false;
}

bool programsEqual(const ASTContext &CA, const Program &A,
                   const ASTContext &CB, const Program &B,
                   std::string &Where) {
  if (A.Structs.size() != B.Structs.size() ||
      A.Globals.size() != B.Globals.size() || A.Funs.size() != B.Funs.size()) {
    Where = "declaration counts differ";
    return false;
  }
  for (size_t I = 0; I < A.Structs.size(); ++I) {
    const StructDef &X = A.Structs[I], &Y = B.Structs[I];
    bool Ok = CA.text(X.Name) == CB.text(Y.Name) &&
              X.Fields.size() == Y.Fields.size();
    for (size_t F = 0; Ok && F < X.Fields.size(); ++F)
      Ok = CA.text(X.Fields[F].first) == CB.text(Y.Fields[F].first) &&
           typesEqual(CA, X.Fields[F].second, CB, Y.Fields[F].second);
    if (!Ok) {
      Where = "struct '" + CA.text(X.Name) + "'";
      return false;
    }
  }
  for (size_t I = 0; I < A.Globals.size(); ++I) {
    const GlobalDecl &X = A.Globals[I], &Y = B.Globals[I];
    if (CA.text(X.Name) != CB.text(Y.Name) ||
        !typesEqual(CA, X.DeclType, CB, Y.DeclType)) {
      Where = "global '" + CA.text(X.Name) + "'";
      return false;
    }
  }
  for (size_t I = 0; I < A.Funs.size(); ++I) {
    const FunDef &X = A.Funs[I], &Y = B.Funs[I];
    bool Ok = CA.text(X.Name) == CB.text(Y.Name) &&
              X.Params.size() == Y.Params.size() &&
              X.ParamRestrict == Y.ParamRestrict &&
              typesEqual(CA, X.ReturnType, CB, Y.ReturnType);
    for (size_t P = 0; Ok && P < X.Params.size(); ++P)
      Ok = CA.text(X.Params[P].first) == CB.text(Y.Params[P].first) &&
           typesEqual(CA, X.Params[P].second, CB, Y.Params[P].second);
    if (Ok)
      Ok = exprsEqual(CA, X.Body, CB, Y.Body);
    if (!Ok) {
      Where = "function '" + CA.text(X.Name) + "'";
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Oracle 1: soundness (Theorem 1)
//===----------------------------------------------------------------------===//

OracleOutcome checkSoundness(std::string_view Source,
                             AliasBackendKind Backend) {
  OracleOutcome Out;
  PipelineOptions Opts;
  Opts.AliasBackend = Backend;
  // The strict Figure 2/3 semantics: the restrict effect is emitted
  // unconditionally, which is the checker Theorem 1 is stated for. (The
  // liberal footnote-2 checker accepts scopes whose restricted pointer is
  // unused while its aliases are not -- programs that *do* fault under
  // the copying semantics -- so it must not be paired with this oracle.)
  Opts.Mode = PipelineMode::CheckAnnotations;
  AnalysisSession S(Opts);
  if (!S.run(Source) || !S.result().Checks.ok())
    return Out;
  Out.Applicable = true;

  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    InterpOptions IO;
    IO.NondetSeed = Seed;
    RunResult RR = runProgram(S.context(), S.result().Analyzed, IO);
    if (RR.Status == RunStatus::Err || RR.Status == RunStatus::Stuck) {
      Out.Failed = true;
      Out.Message = std::string("checker accepted the program but the "
                                "interpreter reported ") +
                    (RR.Status == RunStatus::Err ? "err" : "stuck") +
                    " (nondet seed " + std::to_string(Seed) +
                    "): " + RR.Note;
      return Out;
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Oracle 2: solver agreement (least solution vs CHECK-SAT vs raw graph)
//===----------------------------------------------------------------------===//

/// explainReach allocates per call (visited/parent/side-mask arrays over
/// the whole raw graph), so only every ExplainStride-th query is also
/// checked against it.
constexpr size_t ExplainStride = 31;

/// The checker's escape verdict for one scope against the uncollapsed
/// reference: the Escapes violation (if any) reported for the scope
/// \p Matches must name the first of \p EscapeVars that explainReach
/// reaches from \p RhoPrime. Returns a description of a mismatch, or "".
template <typename MatchFn>
std::string escapeDisagreement(const PipelineResult &R, LocId RhoPrime,
                               const std::vector<EffVar> &EscapeVars,
                               MatchFn Matches, const std::string &Scope) {
  EffVar Expected = InvalidEffVar;
  for (EffVar V : EscapeVars)
    if (!R.State->CS.explainReachAnyKind(RhoPrime, V).empty()) {
      Expected = V;
      break;
    }
  EffVar Reported = InvalidEffVar;
  for (const RestrictViolation &V : R.Checks.Violations)
    if (V.K == RestrictViolation::Kind::Escapes && Matches(V))
      Reported = V.ExplainTarget;
  if (Reported == Expected)
    return "";
  auto Name = [](EffVar V) {
    return V == InvalidEffVar ? std::string("none") : "var " + std::to_string(V);
  };
  return "the checker's escape verdict for " + Scope + " names " +
         Name(Reported) + " but the uncollapsed explain traversal reaches " +
         Name(Expected) + " first";
}

/// Compares the three answers for one solved session's final graph;
/// returns a description of the first disagreement, or "". For a checking
/// session (\p Checked) the checker's escape verdicts are compared too.
std::string solverDisagreement(const PipelineResult &R, bool Checked) {
  ConstraintSystem &CS = R.State->CS;
  // Query sample: every (loc, var) pair the checker itself queries, plus
  // a strided sweep over the whole (loc, var, kind) space.
  struct Query {
    EffectKind K;
    LocId Rho;
    EffVar V;
  };
  std::vector<Query> Queries;
  auto AddAllKinds = [&](LocId Rho, EffVar V) {
    if (Rho == InvalidLocId || V == InvalidEffVar)
      return;
    for (unsigned K = 0; K < 3; ++K)
      Queries.push_back({static_cast<EffectKind>(K), Rho, V});
  };
  for (const BindConstraintVars &BV : R.Eff.Binds) {
    const BindInfo &BI = R.Alias.Binds[BV.BindIdx];
    AddAllKinds(BI.Rho, BV.BodyEff);
    for (EffVar V : BV.EscapeVars)
      AddAllKinds(BI.RhoPrime, V);
  }
  for (const ParamConstraintVars &PV : R.Eff.ParamRestricts) {
    const ParamRestrictInfo &PR = R.Alias.ParamRestricts[PV.ParamRestrictIdx];
    AddAllKinds(PR.Rho, PV.BodyEff);
    for (EffVar V : PV.EscapeVars)
      AddAllKinds(PR.RhoPrime, V);
  }
  uint32_t NumVars = CS.numVars();
  uint32_t NumLocs = CS.locs().size();
  uint32_t VarStride = NumVars > 48 ? NumVars / 48 : 1;
  uint32_t LocStride = NumLocs > 24 ? NumLocs / 24 : 1;
  for (uint32_t V = 0; V < NumVars; V += VarStride)
    for (uint32_t L = 0; L < NumLocs; L += LocStride)
      for (unsigned K = 0; K < 3; ++K)
        Queries.push_back({static_cast<EffectKind>(K), L, V});

  auto Says = [](bool B, const char *Yes, const char *No) {
    return std::string(B ? Yes : No);
  };
  for (size_t I = 0; I < Queries.size(); ++I) {
    const Query &Q = Queries[I];
    bool Member = CS.member(Q.K, Q.Rho, Q.V);
    bool Reaches = CS.reaches(Q.K, Q.Rho, Q.V);
    std::string Diff;
    if (Member != Reaches)
      Diff = "CHECK-SAT says " + Says(Reaches, "reachable", "unreachable") +
             " but the least solution says " +
             Says(Member, "member", "non-member");
    else if (I % ExplainStride == 0 &&
             CS.explainReach(Q.K, Q.Rho, Q.V).empty() == Reaches)
      Diff = "CHECK-SAT and the least solution say " +
             Says(Reaches, "reachable", "unreachable") +
             " but the uncollapsed explain traversal says " +
             Says(!Reaches, "reachable", "unreachable");
    if (!Diff.empty())
      return Diff + " for kind " +
             std::to_string(static_cast<unsigned>(Q.K)) + ", loc " +
             std::to_string(Q.Rho) + ", var " + std::to_string(Q.V);
  }
  if (!Checked)
    return "";

  // The escape condition is answered by one multi-target search per kind;
  // hold its verdict against one uncollapsed traversal per escape
  // variable. Untrackable scopes get no escape check.
  const AliasAnalysis &AA = *R.State->AA;
  auto Untrackable = [&AA](LocId Rho, LocId RhoPrime) {
    return AA.isUntrackable(Rho) || AA.isUntrackable(RhoPrime);
  };
  for (const BindConstraintVars &BV : R.Eff.Binds) {
    const BindInfo &BI = R.Alias.Binds[BV.BindIdx];
    if (!BI.ExplicitRestrict || !BI.IsPointer ||
        Untrackable(BI.Rho, BI.RhoPrime))
      continue;
    std::string Diff = escapeDisagreement(
        R, BI.RhoPrime, BV.EscapeVars,
        [&](const RestrictViolation &V) { return V.Node == BI.Id; },
        "bind " + std::to_string(BI.Id));
    if (!Diff.empty())
      return Diff;
  }
  for (const ParamConstraintVars &PV : R.Eff.ParamRestricts) {
    const ParamRestrictInfo &PR = R.Alias.ParamRestricts[PV.ParamRestrictIdx];
    if (Untrackable(PR.Rho, PR.RhoPrime))
      continue;
    std::string Diff = escapeDisagreement(
        R, PR.RhoPrime, PV.EscapeVars,
        [&](const RestrictViolation &V) {
          return V.Node == InvalidExprId && V.FunIndex == PR.FunIndex &&
                 V.ParamIndex == PR.ParamIndex;
        },
        "restrict parameter " + std::to_string(PR.ParamIndex) +
            " of function " + std::to_string(PR.FunIndex));
    if (!Diff.empty())
      return Diff;
  }
  return "";
}

OracleOutcome checkSolverAgreement(std::string_view Source,
                                   AliasBackendKind Backend) {
  OracleOutcome Out;
  for (PipelineMode Mode :
       {PipelineMode::CheckAnnotations, PipelineMode::Infer}) {
    PipelineOptions Opts;
    Opts.Mode = Mode;
    Opts.AliasBackend = Backend;
    AnalysisSession S(Opts);
    if (!S.run(Source))
      continue;
    const bool Infer = Mode == PipelineMode::Infer;
    // A checking run with no scope to check ends after typing and builds
    // no graph; count it apart, so check.checked still says how many
    // check-mode graphs were compared.
    if (!Infer && !hasScopesToCheck(S.result().Alias)) {
      Out.Counters.push_back("check.unscoped");
      continue;
    }
    // Checking answers restricts with CHECK-SAT and solves only when
    // conditionals or explicit confines need it (solving again at a
    // fixpoint changes nothing); inference has already solved, firing
    // conditionals, so its final graph is compared as the session left
    // it.
    if (!Infer)
      S.result().State->CS.solve();
    Out.Applicable = true;
    Out.Counters.push_back(Infer ? "infer.checked" : "check.checked");
    std::string Diff = solverDisagreement(S.result(), !Infer);
    if (!Diff.empty()) {
      Out.Failed = true;
      Out.Message = (Infer ? "[infer] " : "[check] ") + Diff;
      return Out;
    }
    // Say when escape verdicts were among what agreed.
    if (!Infer)
      for (const RestrictViolation &V : S.result().Checks.Violations)
        if (V.K == RestrictViolation::Kind::Escapes) {
          Out.Counters.push_back("check.escapes");
          break;
        }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Oracle 3: inference maximality (Section 5 optimality)
//===----------------------------------------------------------------------===//

/// Prints \p Analyzed with the inferred restricts plus \p Extra
/// materialized, reparses, and runs the annotation checker under the
/// liberal effect semantics (the semantics inference decides against).
/// Returns nullopt when the materialized program fails to reparse or
/// retype (reported as a failure by the caller), else Checks.ok().
std::optional<bool> materializedChecks(const ASTContext &Ctx,
                                       const PipelineResult &R, ExprId Extra,
                                       AliasBackendKind Backend,
                                       std::string &Error) {
  PrintOverlay Overlay;
  Overlay.BindAsRestrict = R.Inference.RestrictableBinds;
  if (Extra != InvalidExprId)
    Overlay.BindAsRestrict.insert(Extra);
  std::string Materialized = AstPrinter(Ctx, &Overlay).print(R.Analyzed);

  PipelineOptions CheckOpts;
  CheckOpts.Mode = PipelineMode::CheckAnnotations;
  CheckOpts.LiberalRestrictEffect = true;
  CheckOpts.AliasBackend = Backend;
  AnalysisSession S(CheckOpts);
  if (!S.run(Materialized)) {
    Error = S.failure()->Kind == FailureKind::ParseError
                ? "materialized program does not reparse: "
                : "materialized program does not retype: ";
    Error += S.diags().render();
    return std::nullopt;
  }
  return S.result().Checks.ok();
}

OracleOutcome checkInferenceMaximality(std::string_view Source,
                                       AliasBackendKind Backend) {
  OracleOutcome Out;
  PipelineOptions Opts;
  Opts.Mode = PipelineMode::Infer;
  Opts.PlaceConfines = false;
  Opts.AliasBackend = Backend;
  AnalysisSession S(Opts);
  // Explicit-annotation violations would make the re-check fail for
  // reasons unrelated to inference: vacuous.
  if (!S.run(Source) || !S.result().Inference.Violations.empty())
    return Out;
  Out.Applicable = true;
  const ASTContext &Ctx = S.context();
  const PipelineResult &R = S.result();

  std::string Error;
  std::optional<bool> Ok =
      materializedChecks(Ctx, R, InvalidExprId, Backend, Error);
  if (!Ok) {
    Out.Failed = true;
    Out.Message = Error;
    return Out;
  }
  if (!*Ok) {
    Out.Failed = true;
    Out.Message = "the inferred restrict set fails re-checking";
    return Out;
  }

  // Maximality: flipping any rejected pointer let back must fail. Bound
  // the flips so adversarial inputs cannot make one run quadratic.
  unsigned Flips = 0;
  for (const BindInfo &BI : R.Alias.Binds) {
    if (!BI.IsPointer || BI.ExplicitRestrict ||
        R.Inference.RestrictableBinds.count(BI.Id))
      continue;
    if (++Flips > 8)
      break;
    Ok = materializedChecks(Ctx, R, BI.Id, Backend, Error);
    if (!Ok) {
      Out.Failed = true;
      Out.Message = Error;
      return Out;
    }
    if (*Ok) {
      Out.Failed = true;
      Out.Message = "bind " + std::to_string(BI.Id) +
                    " was rejected by inference but passes the checker "
                    "(inferred set is not maximal)";
      return Out;
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Oracle 4: print/parse round trip
//===----------------------------------------------------------------------===//

OracleOutcome checkRoundTrip(std::string_view Source) {
  OracleOutcome Out;
  ASTContext Ctx;
  Diagnostics Diags;
  auto P = parse(Source, Ctx, Diags);
  if (!P)
    return Out;
  Out.Applicable = true;

  std::string Printed = AstPrinter(Ctx).print(*P);
  ASTContext Ctx2;
  Diagnostics Diags2;
  auto P2 = parse(Printed, Ctx2, Diags2);
  if (!P2) {
    Out.Failed = true;
    Out.Message = "printed program does not reparse: " + Diags2.render();
    return Out;
  }
  std::string Where;
  if (!programsEqual(Ctx, *P, Ctx2, *P2, Where)) {
    Out.Failed = true;
    Out.Message = "printed program reparses to a different AST (" + Where +
                  ")";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Oracle 5: cache identity (cold vs. warm result-cache runs)
//===----------------------------------------------------------------------===//

OracleOutcome checkCacheIdentity(std::string_view Source,
                                 AliasBackendKind Backend) {
  OracleOutcome Out;
  {
    // Unparseable programs still analyze deterministically, but their
    // single diagnostic dominates every comparison surface: vacuous.
    ASTContext Ctx;
    Diagnostics Diags;
    if (!parse(Source, Ctx, Diags))
      return Out;
  }

  std::vector<ModuleSpec> Corpus(1);
  Corpus[0].Name = "fuzz-module";
  Corpus[0].Category = ModuleCategory::External;
  Corpus[0].Source = std::string(Source);

  // A private cache directory per oracle invocation: the comparison is
  // cold-vs-warm, so a shared directory would make the "cold" run warm.
  static std::atomic<uint64_t> Seq{0};
  std::string Dir =
      (std::filesystem::temp_directory_path() /
       ("lna-fuzz-cache-" + std::to_string(static_cast<uint64_t>(getpid())) +
        "-" + std::to_string(Seq.fetch_add(1))))
          .string();
  CacheStore Store(Dir);
  if (!Store.ok())
    return Out; // environment problem, not a divergence: vacuous

  Out.Applicable = true;
  ExperimentOptions Opts;
  Opts.AliasBackend = Backend;
  Opts.CollectMetrics = true;
  Opts.Cache = &Store;
  CorpusSummary Cold = runCorpusExperiment(Corpus, Opts);
  CorpusSummary Warm = runCorpusExperiment(Corpus, Opts);
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);

  if (Store.hits() == 0) {
    Out.Failed = true;
    Out.Message = "warm run did not hit the cache entry the cold run "
                  "should have stored";
  } else if (renderCorpusReport(Cold) != renderCorpusReport(Warm)) {
    Out.Failed = true;
    Out.Message = "cold and warm corpus reports differ";
  } else if (corpusReportJSON(Cold, false) != corpusReportJSON(Warm, false)) {
    Out.Failed = true;
    Out.Message = "cold and warm JSON reports differ";
  } else if (Cold.Metrics.renderJSON() != Warm.Metrics.renderJSON()) {
    Out.Failed = true;
    Out.Message = "cold and warm merged metrics differ";
  } else if (Cold.Modules[0].Error != Warm.Modules[0].Error) {
    Out.Failed = true;
    Out.Message = "cold and warm module diagnostics differ";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Oracle 6: precision differential (Andersen refines Steensgaard)
//===----------------------------------------------------------------------===//

/// The options of one backend's run. Parsing and typing are
/// deterministic, so the ExprIds and raw LocIds of two backends' runs
/// over one source correspond one-to-one.
PipelineOptions backendOptions(PipelineMode Mode, AliasBackendKind Backend) {
  PipelineOptions Opts;
  Opts.Mode = Mode;
  Opts.AliasBackend = Backend;
  return Opts;
}

OracleOutcome checkPrecisionDifferential(std::string_view Source) {
  OracleOutcome Out;
  auto Fail = [&Out](std::string Message) {
    Out.Failed = true;
    Out.Message = std::move(Message);
    return Out;
  };

  // Inference under both backends: every Steensgaard success must
  // survive the refinement.
  AnalysisSession SS(
      backendOptions(PipelineMode::Infer, AliasBackendKind::Steensgaard));
  AnalysisSession SA(
      backendOptions(PipelineMode::Infer, AliasBackendKind::Andersen));
  bool OkS = SS.run(Source), OkA = SA.run(Source);
  if (!OkS || !OkA) {
    if (OkS != OkA)
      return Fail("one backend type-checked the program and the other "
                  "did not");
    return Out; // does not parse/type under either: vacuous
  }
  Out.Applicable = true;
  const PipelineResult &RS = SS.result(), &RA = SA.result();

  for (ExprId Id : RS.Inference.RestrictableBinds)
    if (!RA.Inference.RestrictableBinds.count(Id))
      return Fail("bind " + std::to_string(Id) +
                  " is restrictable under steensgaard but not under "
                  "andersen");
  for (ExprId Id : RS.Inference.SucceededConfines)
    if (!RA.Inference.SucceededConfines.count(Id))
      return Fail("confine " + std::to_string(Id) +
                  " succeeds under steensgaard but not under andersen");

  // Per-location refinement of the final inference states. The raw id
  // spaces coincide (same typing run); inference only merges classes.
  const AliasAnalysis &AAS = *RS.State->AA;
  const AliasAnalysis &AAA = *RA.State->AA;
  uint32_t NumLocs = std::min(RS.State->Locs.size(), RA.State->Locs.size());
  for (LocId L = 0; L < NumLocs; ++L)
    if (AAA.isUntrackable(L) && !AAS.isUntrackable(L))
      return Fail("location " + std::to_string(L) +
                  " is untrackable under andersen but not under "
                  "steensgaard");

  // Pairwise may-alias subset over the locations the analyses actually
  // reason about (bind rho/rho' pairs), padded with a strided sweep.
  std::vector<LocId> Sample;
  for (const BindInfo &BI : RS.Alias.Binds) {
    if (!BI.IsPointer)
      continue;
    if (BI.Rho != InvalidLocId)
      Sample.push_back(BI.Rho);
    if (BI.RhoPrime != InvalidLocId)
      Sample.push_back(BI.RhoPrime);
  }
  uint32_t Stride = NumLocs > 32 ? NumLocs / 32 : 1;
  for (LocId L = 0; L < NumLocs; L += Stride)
    Sample.push_back(L);
  for (LocId A : Sample)
    for (LocId B : Sample)
      if (AAA.mayAlias(A, B) && !AAS.mayAlias(A, B))
        return Fail("locations " + std::to_string(A) + " and " +
                    std::to_string(B) +
                    " may-alias under andersen but not under steensgaard");

  // Checking mode: a program that is clean under Steensgaard must stay
  // clean under the refinement.
  AnalysisSession CS(backendOptions(PipelineMode::CheckAnnotations,
                                    AliasBackendKind::Steensgaard));
  AnalysisSession CA(backendOptions(PipelineMode::CheckAnnotations,
                                    AliasBackendKind::Andersen));
  bool OkCS = CS.run(Source), OkCA = CA.run(Source);
  if (OkCS != OkCA)
    return Fail("one backend type-checked the program in checking mode "
                "and the other did not");
  if (OkCS && CS.result().Checks.ok() && !CA.result().Checks.ok())
    return Fail("annotations check cleanly under steensgaard but not "
                "under andersen");
  return Out;
}

} // namespace

OracleOutcome lna::runOracle(OracleKind K, std::string_view Source,
                             AliasBackendKind Backend) {
  switch (K) {
  case OracleKind::Soundness:
    return checkSoundness(Source, Backend);
  case OracleKind::SolverAgreement:
    return checkSolverAgreement(Source, Backend);
  case OracleKind::InferenceMaximality:
    return checkInferenceMaximality(Source, Backend);
  case OracleKind::PrintParseRoundTrip:
    return checkRoundTrip(Source);
  case OracleKind::CacheIdentity:
    return checkCacheIdentity(Source, Backend);
  case OracleKind::PrecisionDifferential:
    return checkPrecisionDifferential(Source);
  }
  return {};
}

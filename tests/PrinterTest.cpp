//===- PrinterTest.cpp - Pretty printer and overlay tests -----*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "qual/LockAnalysis.h"

#include <gtest/gtest.h>

using namespace lna;

namespace {

TEST(Printer, RendersDeclarations) {
  ASTContext Ctx;
  Diagnostics Diags;
  auto P = parse("struct D { lck : lock; n : int; }\n"
                 "var d : D;\nvar a : array lock;\n"
                 "fun f(restrict l : ptr lock, i : int) : int { 0 }",
                 Ctx, Diags);
  ASSERT_TRUE(P.has_value());
  std::string Out = AstPrinter(Ctx).print(*P);
  EXPECT_NE(Out.find("struct D {"), std::string::npos);
  EXPECT_NE(Out.find("lck : lock;"), std::string::npos);
  EXPECT_NE(Out.find("var a : array lock;"), std::string::npos);
  EXPECT_NE(Out.find("restrict l : ptr lock"), std::string::npos);
}

TEST(Printer, RendersExpressionsCompactly) {
  ASTContext Ctx;
  Diagnostics Diags;
  auto P = parse("fun f(p : ptr int, i : int) : int {\n"
                 "  *p;\n"
                 "  p := i + 1;\n"
                 "  cast<ptr int>(p);\n"
                 "  if i == 0 then 1 else 2\n}",
                 Ctx, Diags);
  ASSERT_TRUE(P.has_value());
  std::string Out = AstPrinter(Ctx).print(*P);
  EXPECT_NE(Out.find("*p;"), std::string::npos);
  EXPECT_NE(Out.find("p := (i + 1);"), std::string::npos);
  EXPECT_NE(Out.find("cast<ptr int>(p);"), std::string::npos);
  EXPECT_NE(Out.find("if (i == 0) then 1 else 2;"), std::string::npos);
}

TEST(Printer, OverlayTurnsLetIntoRestrict) {
  ASTContext Ctx;
  Diagnostics Diags;
  auto P = parse("fun f(q : ptr int) : int { let p = q in *p }", Ctx, Diags);
  ASSERT_TRUE(P.has_value());
  const auto *Body = cast<BlockExpr>(P->Funs[0].Body);
  const auto *Bind = cast<BindExpr>(Body->stmts()[0]);
  PrintOverlay Overlay;
  Overlay.BindAsRestrict.insert(Bind->id());
  std::string Out = AstPrinter(Ctx, &Overlay).print(*P);
  EXPECT_NE(Out.find("restrict p = q in"), std::string::npos);
  EXPECT_EQ(Out.find("let p"), std::string::npos);
}

TEST(Printer, OverlayDropsFailedConfines) {
  ASTContext Ctx;
  Diagnostics Diags;
  auto P = parse("var a : array lock;\n"
                 "fun f(i : int) : int {\n"
                 "  confine a[i] in { spin_lock(a[i]) } }",
                 Ctx, Diags);
  ASSERT_TRUE(P.has_value());
  const auto *Body = cast<BlockExpr>(P->Funs[0].Body);
  const auto *Conf = cast<ConfineExpr>(Body->stmts()[0]);
  PrintOverlay Overlay;
  Overlay.DropConfines.insert(Conf->id());
  std::string Out = AstPrinter(Ctx, &Overlay).print(*P);
  EXPECT_EQ(Out.find("confine"), std::string::npos);
  EXPECT_NE(Out.find("spin_lock(a[i])"), std::string::npos);
}

TEST(Printer, InferredAnnotationsRoundTripThroughTheParser) {
  const char *Src = "var locks : array lock;\n"
                    "fun f(i : int) : int {\n"
                    "  spin_lock(locks[i]); work(); spin_unlock(locks[i]) }";
  PipelineOptions Opts;
  AnalysisSession S(Opts);
  ASSERT_TRUE(S.run(Src)) << S.diags().render();
  ASTContext &Ctx = S.context();
  PipelineResult &R = S.result();
  PrintOverlay Overlay;
  Overlay.BindAsRestrict = R.Inference.RestrictableBinds;
  for (ExprId Id : R.OptionalConfines)
    if (!R.Inference.confineSucceeded(Id))
      Overlay.DropConfines.insert(Id);
  std::string Annotated = AstPrinter(Ctx, &Overlay).print(R.Analyzed);
  EXPECT_NE(Annotated.find("confine locks[i] in"), std::string::npos);

  // The printed program parses and, with the explicit annotations now in
  // the source, yields a clean lock analysis without any inference.
  PipelineOptions CheckOpts;
  CheckOpts.Mode = PipelineMode::CheckAnnotations;
  AnalysisSession S2(CheckOpts);
  ASSERT_TRUE(S2.run(Annotated)) << S2.diags().render() << "\n" << Annotated;
  EXPECT_TRUE(S2.result().Checks.ok());
  EXPECT_EQ(analyzeLocks(S2.context(), S2.result(), {}).numErrors(), 0u);
}

//===----------------------------------------------------------------------===//
// Regression tests for bugs found by the random-program sweep.
//===----------------------------------------------------------------------===//

TEST(QualRegression, RecursionHavocReachesUnmaterializedLocations) {
  // g is only touched *after* the recursive havoc; its state must be top
  // regardless of whether any earlier protocol materialized its entry.
  const char *Src = "var g : lock;\n"
                    "fun r(n : int) : int {\n"
                    "  if n == 0 then 0 else r(n - 1) }\n"
                    "fun f() : int {\n"
                    "  r(2);\n"
                    "  spin_lock(g);\n"
                    "  spin_unlock(g)\n}";
  for (PipelineMode Mode :
       {PipelineMode::CheckAnnotations, PipelineMode::Infer}) {
    PipelineOptions Opts;
    Opts.Mode = Mode;
    AnalysisSession S(Opts);
    ASSERT_TRUE(S.run(Src)) << S.diags().render();
    ASTContext &Ctx = S.context();
    PipelineResult &R = S.result();
    // The acquire after the havoc cannot be verified in either mode --
    // and crucially the two modes agree.
    EXPECT_EQ(analyzeLocks(Ctx, R, {}).numErrors(), 1u);
  }
}

TEST(QualRegression, LinearScopeExitIsACopyNotAJoin) {
  // The lock is acquired through a restrictable binder and released
  // through the original name after the scope. For a singleton (linear)
  // location, the scope exit is the paper's exact S[l -> S(l')]: the
  // held state transfers, and the release verifies.
  const char *Src = "var g : lock;\n"
                    "fun f() : int {\n"
                    "  let p = g in { spin_lock(p) };\n"
                    "  spin_unlock(g)\n}";
  PipelineOptions Opts; // inference mode: p becomes restrict
  AnalysisSession S(Opts);
  ASSERT_TRUE(S.run(Src)) << S.diags().render();
  ASTContext &Ctx = S.context();
  PipelineResult &R = S.result();
  EXPECT_EQ(R.Inference.RestrictableBinds.size(), 1u);
  EXPECT_EQ(analyzeLocks(Ctx, R, {}).numErrors(), 0u);
}

TEST(QualRegression, NonlinearScopeExitStillJoins) {
  // Same shape over an array element: the element location stands for
  // many cells, so the exit must join and the release stays unverifiable.
  const char *Src = "var a : array lock;\n"
                    "fun f(i : int) : int {\n"
                    "  let p = a[i] in { spin_lock(p) };\n"
                    "  spin_unlock(a[i])\n}";
  PipelineOptions Opts;
  AnalysisSession S(Opts);
  ASSERT_TRUE(S.run(Src)) << S.diags().render();
  ASTContext &Ctx = S.context();
  PipelineResult &R = S.result();
  EXPECT_EQ(analyzeLocks(Ctx, R, {}).numErrors(), 1u);
}

TEST(QualRegression, StrictAndLiberalRestrictEffectSemantics) {
  // A recursive function re-restricting a location whose binder is never
  // used: rejected under the strict Figure 2/3 semantics (restricting is
  // an effect), accepted under the liberal Section 5 footnote-2 semantics
  // that inference decides against.
  const char *Src = "var cell : ptr int;\n"
                    "fun r(n : int) : int {\n"
                    "  restrict q = *cell in {\n"
                    "    if n == 0 then 0 else r(n - 1)\n  }\n}";
  for (bool Liberal : {false, true}) {
    PipelineOptions Opts;
    Opts.Mode = PipelineMode::CheckAnnotations;
    Opts.LiberalRestrictEffect = Liberal;
    AnalysisSession S(Opts);
    ASSERT_TRUE(S.run(Src)) << S.diags().render();
    PipelineResult &R = S.result();
    EXPECT_EQ(R.Checks.ok(), Liberal);
  }
}

TEST(Printer, CompoundOperandsKeepParentheses) {
  // Statement-like forms in operand positions must re-parse to the same
  // tree; found by the round-trip fuzz oracle.
  ASTContext Ctx;
  Diagnostics Diags;
  auto P = parse("fun f(x : ptr int) : int {\n"
                 "  new ((x := 1) + (if nondet() then 1 else 2));\n"
                 "  *((let t = x in t)) }",
                 Ctx, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.render();
  std::string Out = AstPrinter(Ctx).print(*P);
  EXPECT_NE(Out.find("new ((x := 1) + (if nondet() then 1 else 2))"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("*(let t = x in t)"), std::string::npos) << Out;
}

TEST(Printer, DeepProgrammaticTreeTruncatesInsteadOfOverflowing) {
  // The parser's nesting guard keeps parsed ASTs under MaxAstDepth, so
  // only programmatically built trees can trip the printer's guard.
  ASTContext Ctx;
  const Expr *E = Ctx.varRef(SourceLoc(), Ctx.intern("x"));
  for (unsigned I = 0; I < MaxAstDepth + 50; ++I)
    E = Ctx.deref(SourceLoc(), E);
  AstPrinter Printer(Ctx);
  std::string Out = Printer.print(E);
  EXPECT_TRUE(Printer.truncated());
  EXPECT_NE(Out.find("0"), std::string::npos); // placeholder leaf
  // A tree inside the bound prints fully and does not set the flag.
  const Expr *Shallow = Ctx.deref(
      SourceLoc(), Ctx.varRef(SourceLoc(), Ctx.intern("y")));
  EXPECT_EQ(Printer.print(Shallow), "*y");
  EXPECT_FALSE(Printer.truncated());
}

TEST(QualRegression, StrictSemanticsStillRejectsUsedDoubleRestrict) {
  // When the binder *is* used, both semantics agree: double restrict is
  // illegal.
  const char *Src = "fun f(x : ptr int) : int {\n"
                    "  restrict y = x in restrict z = x in *z }";
  for (bool Liberal : {false, true}) {
    PipelineOptions Opts;
    Opts.Mode = PipelineMode::CheckAnnotations;
    Opts.LiberalRestrictEffect = Liberal;
    AnalysisSession S(Opts);
    ASSERT_TRUE(S.run(Src)) << S.diags().render();
    PipelineResult &R = S.result();
    EXPECT_FALSE(R.Checks.ok());
  }
}

} // namespace

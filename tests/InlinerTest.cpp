//===- InlinerTest.cpp - Bounded inlining tests ---------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "core/Inliner.h"
#include "core/Session.h"
#include "lang/AstPrinter.h"
#include "lang/ExprUtils.h"
#include "lang/Parser.h"
#include "qual/LockAnalysis.h"
#include "semantics/Interp.h"

#include <gtest/gtest.h>

using namespace lna;

namespace {

struct Inlined {
  ASTContext Ctx;
  Diagnostics Diags;
  std::optional<Program> Prog;
  Program Out;

  void run(std::string_view Src, unsigned Depth) {
    Prog = parse(Src, Ctx, Diags);
    ASSERT_TRUE(Prog.has_value()) << Diags.render();
    Out = inlineCalls(Ctx, *Prog, Depth);
  }

  bool bodyContainsCallTo(const char *Fun, const char *Callee) {
    const FunDef *F = Out.findFun(Ctx.intern(Fun));
    EXPECT_NE(F, nullptr);
    return F && containsCallTo(F->Body, Ctx.intern(Callee));
  }
};

TEST(Inliner, DepthZeroIsIdentity) {
  Inlined I;
  I.run("fun g() : int { 1 }\nfun f() : int { g() }", 0);
  EXPECT_TRUE(I.bodyContainsCallTo("f", "g"));
}

TEST(Inliner, SimpleCallIsInlined) {
  Inlined I;
  I.run("fun g(x : int) : int { x + 1 }\nfun f() : int { g(41) }", 1);
  EXPECT_FALSE(I.bodyContainsCallTo("f", "g"));
  // The call became a let binding a fresh name.
  const FunDef *F = I.Out.findFun(I.Ctx.intern("f"));
  const auto *B = cast<BlockExpr>(F->Body);
  EXPECT_TRUE(isa<BindExpr>(B->stmts()[0]));
}

TEST(Inliner, RecursiveCallsAreNotInlined) {
  Inlined I;
  I.run("fun r(n : int) : int { if n == 0 then 0 else r(n - 1) }\n"
        "fun f() : int { r(3) }",
        3);
  // The call to r survives somewhere (inside the inlined copy or as-is).
  EXPECT_TRUE(I.bodyContainsCallTo("f", "r"));
}

TEST(Inliner, MutualRecursionIsNotInlined) {
  Inlined I;
  I.run("fun a(n : int) : int { if n == 0 then 0 else b(n - 1) }\n"
        "fun b(n : int) : int { a(n) }\n"
        "fun f() : int { a(3) }",
        2);
  const FunDef *F = I.Out.findFun(I.Ctx.intern("f"));
  // a can reach itself via b: never inlined.
  EXPECT_TRUE(containsCallTo(F->Body, I.Ctx.intern("a")));
}

TEST(Inliner, DepthBoundsNestedInlining) {
  Inlined I;
  I.run("fun h() : int { 7 }\n"
        "fun g() : int { h() }\n"
        "fun f() : int { g() }",
        1);
  // Depth 1: g inlined into f, but h's call inside the copy survives.
  EXPECT_FALSE(I.bodyContainsCallTo("f", "g"));
  EXPECT_TRUE(I.bodyContainsCallTo("f", "h"));
}

TEST(Inliner, DepthTwoInlinesTransitively) {
  Inlined I;
  I.run("fun h() : int { 7 }\n"
        "fun g() : int { h() }\n"
        "fun f() : int { g() }",
        2);
  EXPECT_FALSE(I.bodyContainsCallTo("f", "g"));
  EXPECT_FALSE(I.bodyContainsCallTo("f", "h"));
}

TEST(Inliner, NoCaptureOfCallerVariables) {
  // g's first parameter is named q; the second argument mentions the
  // *caller's* q. Fresh naming must keep them apart; evaluation proves it.
  const char *Src = "fun g(q : int, r : int) : int { q - r }\n"
                    "fun main() : int {\n"
                    "  let q = 10 in g(1, q) }"; // 1 - 10 = -9
  for (unsigned Depth : {0u, 1u}) {
    ASTContext Ctx;
    Diagnostics Diags;
    auto P = parse(Src, Ctx, Diags);
    ASSERT_TRUE(P.has_value());
    Program Out = inlineCalls(Ctx, *P, Depth);
    RunResult R = runProgram(Ctx, Out, {});
    EXPECT_EQ(R.Status, RunStatus::Value);
    EXPECT_EQ(R.Value, -9) << "depth " << Depth;
  }
}

TEST(Inliner, RestrictParamsBecomeRestrictBindings) {
  Inlined I;
  I.run("fun g(restrict l : ptr lock) : int { spin_lock(l);"
        " spin_unlock(l) }\n"
        "var gl : lock;\n"
        "fun f() : int { g(gl) }",
        1);
  const FunDef *F = I.Out.findFun(I.Ctx.intern("f"));
  // Find a restrict bind in the inlined body.
  bool FoundRestrict = false;
  std::vector<const Expr *> Stack = {F->Body};
  while (!Stack.empty()) {
    const Expr *E = Stack.back();
    Stack.pop_back();
    if (const auto *B = dyn_cast<BindExpr>(E))
      FoundRestrict |= B->isRestrict();
    forEachChild(E, [&Stack](const Expr *C) { Stack.push_back(C); });
  }
  EXPECT_TRUE(FoundRestrict);
}

TEST(Inliner, EvaluationIsPreserved) {
  const char *Src = "fun add(a : int, b : int) : int { a + b }\n"
                    "fun twice(x : int) : int { add(x, x) }\n"
                    "fun main() : int { twice(21) }";
  for (unsigned Depth : {0u, 1u, 2u, 3u}) {
    ASTContext Ctx;
    Diagnostics Diags;
    auto P = parse(Src, Ctx, Diags);
    ASSERT_TRUE(P.has_value());
    Program Out = inlineCalls(Ctx, *P, Depth);
    RunResult R = runProgram(Ctx, Out, {});
    EXPECT_EQ(R.Status, RunStatus::Value);
    EXPECT_EQ(R.Value, 42) << "depth " << Depth;
  }
}

TEST(Inliner, InlinedProgramStillTypeChecks) {
  const char *Src = "var locks : array lock;\n"
                    "fun dwl(l : ptr lock) : int {\n"
                    "  spin_lock(l); work(); spin_unlock(l) }\n"
                    "fun f(i : int) : int { dwl(locks[i]) }";
  PipelineOptions Opts;
  Opts.InlineDepth = 1;
  AnalysisSession S(Opts);
  EXPECT_TRUE(S.run(Src)) << S.diags().render();
}

//===----------------------------------------------------------------------===//
// The location-polymorphism effect (the paper's Section 7 remark): a
// helper locking two different singleton globals is weak monomorphically
// (the parameter merges the two cells) but strong with per-call-site
// locations.
//===----------------------------------------------------------------------===//

uint32_t lockErrors(const char *Src, unsigned InlineDepth) {
  PipelineOptions Opts;
  Opts.Mode = PipelineMode::CheckAnnotations; // plain analysis, no confine
  Opts.InlineDepth = InlineDepth;
  AnalysisSession S(Opts);
  EXPECT_TRUE(S.run(Src)) << S.diags().render();
  ASTContext &Ctx = S.context();
  PipelineResult &R = S.result();
  return analyzeLocks(Ctx, R, {}).numErrors();
}

TEST(Inliner, PolymorphismRecoversStrongUpdatesOnSingletons) {
  const char *Src = "var g1 : lock;\nvar g2 : lock;\n"
                    "fun with(l : ptr lock) : int {\n"
                    "  spin_lock(l); work(); spin_unlock(l) }\n"
                    "fun e1() : int { with(g1) }\n"
                    "fun e2() : int { with(g2) }";
  // Monomorphic: the parameter merges g1 and g2 (nonlinear): weak
  // updates, unverifiable unlock.
  EXPECT_GT(lockErrors(Src, 0), 0u);
  // Per-call-site locations: each copy touches one linear cell.
  EXPECT_EQ(lockErrors(Src, 1), 0u);
}

TEST(Inliner, PolymorphismDoesNotHelpArrays) {
  // Array elements stay nonlinear regardless of context sensitivity;
  // only restrict/confine help (the paper's core point).
  const char *Src = "var a : array lock;\n"
                    "fun with(l : ptr lock) : int {\n"
                    "  spin_lock(l); work(); spin_unlock(l) }\n"
                    "fun e(i : int) : int { with(a[i]) }";
  EXPECT_GT(lockErrors(Src, 0), 0u);
  EXPECT_GT(lockErrors(Src, 1), 0u);
}

} // namespace

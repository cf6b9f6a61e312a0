//===- SemanticsTest.cpp - Operational semantics tests --------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Tests for the Section 3.2 big-step semantics, including executable
// soundness (Theorem 1): programs accepted by the restrict checker never
// evaluate to err, and the checker's rejections correspond to real
// dynamic witnesses for the paper's canonical violation examples.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "corpus/Corpus.h"
#include "lang/Parser.h"
#include "semantics/Interp.h"

#include <gtest/gtest.h>

using namespace lna;

namespace {

struct Ran {
  ASTContext Ctx;
  Diagnostics Diags;
  std::optional<Program> Prog;

  RunResult run(std::string_view Src, uint64_t Seed = 1) {
    Prog = parse(Src, Ctx, Diags);
    EXPECT_TRUE(Prog.has_value()) << Diags.render();
    if (!Prog) {
      RunResult R;
      R.Status = RunStatus::Stuck;
      R.Note = "parse error";
      return R;
    }
    InterpOptions Opts;
    Opts.NondetSeed = Seed;
    return runProgram(Ctx, *Prog, Opts);
  }
};

//===----------------------------------------------------------------------===//
// Basic evaluation
//===----------------------------------------------------------------------===//

TEST(Interp, Arithmetic) {
  Ran R;
  RunResult Res = R.run("fun main() : int { 1 + 2 - (4 - 3) }");
  EXPECT_EQ(Res.Status, RunStatus::Value);
  EXPECT_EQ(Res.Value, 2);
}

TEST(Interp, LetBindingAndDeref) {
  Ran R;
  RunResult Res = R.run("fun main() : int { let p = new 41 in *p + 1 }");
  EXPECT_EQ(Res.Status, RunStatus::Value);
  EXPECT_EQ(Res.Value, 42);
}

TEST(Interp, AssignmentThroughPointer) {
  Ran R;
  RunResult Res =
      R.run("fun main() : int { let p = new 0 in { p := 7; *p } }");
  EXPECT_EQ(Res.Status, RunStatus::Value);
  EXPECT_EQ(Res.Value, 7);
}

TEST(Interp, ArrayCellsAreDistinct) {
  Ran R;
  RunResult Res = R.run("fun main() : int {\n"
                        "  let a = newarray 0 in {\n"
                        "    a[0] := 5; a[1] := 9; *a[0] + *a[1] } }");
  EXPECT_EQ(Res.Status, RunStatus::Value);
  EXPECT_EQ(Res.Value, 14);
}

TEST(Interp, IndexWrapsIntoBounds) {
  Ran R;
  RunResult Res = R.run("fun main() : int {\n"
                        "  let a = newarray 3 in *a[17] }");
  EXPECT_EQ(Res.Status, RunStatus::Value);
  EXPECT_EQ(Res.Value, 3);
}

TEST(Interp, StructFieldsAreAddressable) {
  Ran R;
  RunResult Res = R.run("struct D { x : int; y : int; }\nvar d : D;\n"
                        "fun main() : int {\n"
                        "  d->x := 4; d->y := 38; *d->x + *d->y }");
  EXPECT_EQ(Res.Status, RunStatus::Value);
  EXPECT_EQ(Res.Value, 42);
}

TEST(Interp, RecursiveStructTiesTheKnot) {
  Ran R;
  RunResult Res = R.run("struct N { next : ptr N; v : int; }\nvar head : N;\n"
                        "fun main() : int {\n"
                        "  head->v := 11;\n"
                        "  *(*head->next)->v }");
  // next points back at the same instance, so the value reads back.
  EXPECT_EQ(Res.Status, RunStatus::Value);
  EXPECT_EQ(Res.Value, 11);
}

TEST(Interp, FunctionCallsAndRecursion) {
  Ran R;
  RunResult Res = R.run("fun fib(n : int) : int {\n"
                        "  if n < 2 then n else fib(n - 1) + fib(n - 2) }\n"
                        "fun main() : int { fib(10) }");
  EXPECT_EQ(Res.Status, RunStatus::Value);
  EXPECT_EQ(Res.Value, 55);
}

TEST(Interp, WhileLoopTerminates) {
  Ran R;
  RunResult Res = R.run("fun main() : int {\n"
                        "  let c = new 0 in {\n"
                        "    while *c < 10 do c := *c + 1;\n"
                        "    *c } }");
  EXPECT_EQ(Res.Status, RunStatus::Value);
  EXPECT_EQ(Res.Value, 10);
}

TEST(Interp, DivergenceRunsOutOfFuel) {
  Ran R;
  RunResult Res = R.run("fun main() : int { while 1 do work() }");
  EXPECT_EQ(Res.Status, RunStatus::OutOfFuel);
}

TEST(Interp, NondetIsDeterministicPerSeed) {
  const char *Src = "fun main() : int { nondet() + nondet() + nondet() }";
  Ran A, B;
  RunResult RA = A.run(Src, 7);
  RunResult RB = B.run(Src, 7);
  EXPECT_EQ(RA.Value, RB.Value);
}

TEST(Interp, LockPrimitivesTouchTheCell) {
  Ran R;
  RunResult Res = R.run("var g : lock;\n"
                        "fun main() : int { spin_lock(g);"
                        " spin_unlock(g); 0 }");
  EXPECT_EQ(Res.Status, RunStatus::Value);
}

//===----------------------------------------------------------------------===//
// The restrict semantics (Section 3.2)
//===----------------------------------------------------------------------===//

TEST(Interp, RestrictAllowsAccessThroughTheName) {
  Ran R;
  RunResult Res = R.run("fun main() : int {\n"
                        "  let q = new 5 in restrict p = q in *p }");
  EXPECT_EQ(Res.Status, RunStatus::Value);
  EXPECT_EQ(Res.Value, 5);
}

TEST(Interp, RestrictRevokesTheOriginalName) {
  // The paper's canonical violation: *q inside the scope reduces to err.
  Ran R;
  RunResult Res = R.run("fun main() : int {\n"
                        "  let q = new 5 in restrict p = q in { *p; *q } }");
  EXPECT_EQ(Res.Status, RunStatus::Err);
}

TEST(Interp, OriginalNameIsRestoredAfterTheScope) {
  Ran R;
  RunResult Res = R.run("fun main() : int {\n"
                        "  let q = new 5 in {\n"
                        "    restrict p = q in (p := 9);\n"
                        "    *q } }");
  EXPECT_EQ(Res.Status, RunStatus::Value);
  // The write through p is copied back at scope exit.
  EXPECT_EQ(Res.Value, 9);
}

TEST(Interp, EscapedCopyIsRevokedAfterTheScope) {
  // The copy escapes; using it after the scope witnesses the violation
  // (the semantics revokes l' on exit).
  Ran R;
  RunResult Res = R.run("var x : ptr int;\n"
                        "fun main() : int {\n"
                        "  let q = new 5 in {\n"
                        "    restrict p = q in { x := p; 0 };\n"
                        "    **x } }");
  EXPECT_EQ(Res.Status, RunStatus::Err);
}

TEST(Interp, DoubleRestrictBothUsedIsErr) {
  Ran R;
  RunResult Res = R.run("fun main() : int {\n"
                        "  let x = new 1 in\n"
                        "  restrict y = x in\n"
                        "  restrict z = x in { *y; *z } }");
  EXPECT_EQ(Res.Status, RunStatus::Err);
}

TEST(Interp, SequentialRestrictsAreFine) {
  Ran R;
  RunResult Res = R.run("fun main() : int {\n"
                        "  let x = new 1 in {\n"
                        "    restrict y = x in *y;\n"
                        "    restrict z = x in *z } }");
  EXPECT_EQ(Res.Status, RunStatus::Value);
}

TEST(Interp, RestrictParameterRevokesCallerAliases) {
  Ran R;
  RunResult Res = R.run("var g : lock;\n"
                        "fun f(restrict l : ptr lock) : int {\n"
                        "  spin_lock(g); 0 }\n"
                        "fun main() : int { f(g) }");
  // f touches the lock through the global alias while it is restricted.
  EXPECT_EQ(Res.Status, RunStatus::Err);
}

TEST(Interp, ConfineOccurrencesDenoteTheFreshCell) {
  Ran R;
  RunResult Res = R.run("var a : array lock;\n"
                        "fun main(i : int) : int {\n"
                        "  confine a[i] in {\n"
                        "    spin_lock(a[i]);\n"
                        "    spin_unlock(a[i])\n  } }");
  EXPECT_EQ(Res.Status, RunStatus::Value);
}

TEST(Interp, ConfineRevokesOtherAccessPaths) {
  // Accessing the same element through a different syntactic expression
  // (which evaluates to the revoked original) is err.
  Ran R;
  RunResult Res = R.run("var a : array lock;\n"
                        "fun main() : int {\n"
                        "  confine a[0] in {\n"
                        "    spin_lock(a[0]);\n"
                        "    spin_unlock(a[0 + 0])\n  } }");
  EXPECT_EQ(Res.Status, RunStatus::Err);
}

TEST(Interp, ShadowedConfineOccurrenceUsesTheBinding) {
  Ran R;
  RunResult Res = R.run("var g1 : lock;\nvar g2 : lock;\n"
                        "fun main(p : ptr lock) : int {\n"
                        "  confine p in {\n"
                        "    spin_lock(p);\n"
                        "    let p = g2 in spin_lock(p);\n"
                        "    spin_unlock(p)\n  } }");
  // The inner spin_lock(p) uses the let-bound g2 pointer, not the
  // revoked confined original; no err.
  EXPECT_EQ(Res.Status, RunStatus::Value);
}

TEST(Interp, FaultMessagesNameTheViolatedScope) {
  Ran R;
  RunResult Res = R.run("var g : ptr int;\n"
                        "fun main() : int {\n"
                        "  restrict r = g in g := 1 }");
  ASSERT_EQ(Res.Status, RunStatus::Err);
  EXPECT_NE(Res.Note.find("restrict binding"), std::string::npos) << Res.Note;
  EXPECT_NE(Res.Note.find("line 3"), std::string::npos) << Res.Note;
}

TEST(Interp, ConfineFaultMessagesNameTheScope) {
  Ran R;
  RunResult Res = R.run("var a : array lock;\n"
                        "fun main() : int {\n"
                        "  confine a[0] in spin_lock(a[0 + 0]) }");
  ASSERT_EQ(Res.Status, RunStatus::Err);
  EXPECT_NE(Res.Note.find("confine scope"), std::string::npos) << Res.Note;
  EXPECT_NE(Res.Note.find("line 3"), std::string::npos) << Res.Note;
}

TEST(Interp, RestrictParamFaultMessagesNameTheFunction) {
  Ran R;
  RunResult Res = R.run("var g : lock;\n"
                        "fun f(restrict l : ptr lock) : int {\n"
                        "  spin_lock(g); 0 }\n"
                        "fun main() : int { f(g) }");
  ASSERT_EQ(Res.Status, RunStatus::Err);
  EXPECT_NE(Res.Note.find("restrict parameter"), std::string::npos)
      << Res.Note;
  EXPECT_NE(Res.Note.find("line 2"), std::string::npos) << Res.Note;
}

//===----------------------------------------------------------------------===//
// Executable Theorem 1: checker-accepted programs never evaluate to err.
//===----------------------------------------------------------------------===//

const char *CheckedPrograms[] = {
    // The valid examples of Sections 1-2 and 6.
    "fun f(q : ptr int) : int { restrict p = q in *p }",
    "fun f(q : ptr int) : int { restrict p = q in let r = p in *r }",
    "fun f(q : ptr int) : int {\n"
    "  restrict p = q in { restrict r = p in *r; *p } }",
    "var locks : array lock;\n"
    "fun do_with_lock(restrict l : ptr lock) : int {\n"
    "  spin_lock(l); work(); spin_unlock(l) }\n"
    "fun foo(i : int) : int { do_with_lock(locks[i]) }",
    "var locks : array lock;\n"
    "fun f(i : int) : int {\n"
    "  confine locks[i] in {\n"
    "    spin_lock(locks[i]); work(); spin_unlock(locks[i]) } }",
    "struct D { lck : lock; }\nvar devs : array D;\n"
    "fun f(i : int) : int {\n"
    "  confine devs[i]->lck in {\n"
    "    spin_lock(devs[i]->lck); spin_unlock(devs[i]->lck) } }",
    "fun f(q : ptr int, b : ptr int) : int {\n"
    "  restrict p = q in { *p; *b } }",
};

struct Theorem1 : ::testing::TestWithParam<const char *> {};

TEST_P(Theorem1, AcceptedProgramsNeverEvaluateToErr) {
  // 1. The checker accepts.
  PipelineOptions Opts;
  Opts.Mode = PipelineMode::CheckAnnotations;
  AnalysisSession S(Opts);
  ASTContext &Ctx = S.context();
  auto P = parse(GetParam(), Ctx, S.diags());
  ASSERT_TRUE(P.has_value()) << S.diags().render();
  ASSERT_TRUE(S.run(*P)) << S.diags().render();
  PipelineResult &R = S.result();
  ASSERT_TRUE(R.Checks.ok());

  // 2. No evaluation (across nondet seeds) reduces to err.
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    InterpOptions IO;
    IO.NondetSeed = Seed;
    RunResult Res = runProgram(Ctx, *P, IO);
    EXPECT_NE(Res.Status, RunStatus::Err) << "seed " << Seed << ": "
                                          << Res.Note;
    EXPECT_NE(Res.Status, RunStatus::Stuck) << Res.Note;
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, Theorem1,
                         ::testing::ValuesIn(CheckedPrograms));

//===----------------------------------------------------------------------===//
// Theorem 1 over the corpus: every generated module is accepted by the
// checker (no explicit annotations to violate) and must never err.
//===----------------------------------------------------------------------===//

struct CorpusSoundness
    : ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(CorpusSoundness, ModulesNeverEvaluateToErr) {
  auto [CatIdx, Seed] = GetParam();
  ModuleSpec M = generateModule(static_cast<ModuleCategory>(CatIdx),
                                Seed + 21, 4);
  ASTContext Ctx;
  Diagnostics Diags;
  auto P = parse(M.Source, Ctx, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.render();
  for (uint64_t S = 1; S <= 4; ++S) {
    InterpOptions IO;
    IO.NondetSeed = S;
    RunResult Res = runProgram(Ctx, *P, IO);
    EXPECT_NE(Res.Status, RunStatus::Err) << M.Name << ": " << Res.Note;
    EXPECT_NE(Res.Status, RunStatus::Stuck) << M.Name << ": " << Res.Note;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CorpusSoundness,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u),
                       ::testing::Range(0u, 6u)));

//===----------------------------------------------------------------------===//
// Inference soundness at runtime: materialize the inferred restricts and
// run -- still no err (the dynamic face of the Section 5 optimality
// tests).
//===----------------------------------------------------------------------===//

TEST(Theorem1Inference, InferredRestrictsAreDynamicallySafe) {
  const char *Src = "var locks : array lock;\n"
                    "fun f(i : int) : int {\n"
                    "  let p = locks[i] in {\n"
                    "    spin_lock(p); work(); spin_unlock(p) } }";
  PipelineOptions Opts;
  Opts.PlaceConfines = false;
  AnalysisSession S(Opts);
  ASSERT_TRUE(S.run(Src)) << S.diags().render();
  PipelineResult &R = S.result();
  ASSERT_EQ(R.Inference.RestrictableBinds.size(), 1u);

  // Re-parse with the restrict materialized and run.
  std::string Materialized = Src;
  size_t Pos = Materialized.find("let p");
  Materialized.replace(Pos, 5, "restrict p");
  ASTContext Ctx2;
  Diagnostics Diags2;
  auto P2 = parse(Materialized, Ctx2, Diags2);
  ASSERT_TRUE(P2.has_value()) << Diags2.render();
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    InterpOptions IO;
    IO.NondetSeed = Seed;
    RunResult Res = runProgram(Ctx2, *P2, IO);
    EXPECT_NE(Res.Status, RunStatus::Err) << Res.Note;
  }
}

} // namespace

//===- RandomProgramTest.cpp - Fuzz-style cross-checks --------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Generates random well-typed programs (locks, arrays, pointer lets,
// helpers, branches, loops) and cross-checks the toolchain on each:
//
//  * the pipeline runs and the program type checks (by construction);
//  * materializing the inferred restricts yields a program the
//    annotation checker accepts (Section 5 soundness, on arbitrary
//    programs rather than hand-picked ones);
//  * lock-analysis modes are monotone (all-strong <= confine <= none);
//  * the backwards-search solver agrees with full propagation;
//  * dynamic soundness: both the original and the inference-annotated
//    program never evaluate to err (Theorem 1).
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "qual/LockAnalysis.h"
#include "semantics/Interp.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace lna;

namespace {

/// A small generator of random well-typed programs.
class ProgramGen {
public:
  explicit ProgramGen(uint64_t Seed) : R(Seed) {}

  std::string generate() {
    Src.clear();
    NumLockGlobals = 1 + static_cast<unsigned>(R.below(3));
    NumArrays = 1 + static_cast<unsigned>(R.below(2));
    NumCells = 1 + static_cast<unsigned>(R.below(2));
    for (unsigned I = 0; I < NumLockGlobals; ++I)
      Src += "var g" + std::to_string(I) + " : lock;\n";
    for (unsigned I = 0; I < NumArrays; ++I)
      Src += "var a" + std::to_string(I) + " : array lock;\n";
    for (unsigned I = 0; I < NumCells; ++I)
      Src += "var cell" + std::to_string(I) + " : ptr int;\n";

    // A couple of helpers taking a lock pointer.
    NumHelpers = 1 + static_cast<unsigned>(R.below(2));
    for (unsigned I = 0; I < NumHelpers; ++I) {
      Scope S;
      S.PtrLocks.push_back("hl");
      Src += "fun helper" + std::to_string(I) + "(hl : ptr lock) : int " +
             block(S, 2) + "\n";
    }

    unsigned NumEntries = 1 + static_cast<unsigned>(R.below(3));
    for (unsigned I = 0; I < NumEntries; ++I) {
      Scope S;
      S.Ints.push_back("i");
      Src += "fun entry" + std::to_string(I) + "(i : int) : int " +
             block(S, 3) + "\n";
    }
    return Src;
  }

private:
  struct Scope {
    std::vector<std::string> Ints;
    std::vector<std::string> PtrInts;
    std::vector<std::string> PtrLocks;
  };

  std::string pick(const std::vector<std::string> &Xs) {
    return Xs[R.below(Xs.size())];
  }

  std::string intExpr(Scope &S, int Depth) {
    switch (R.below(Depth > 0 ? 5 : 3)) {
    case 0:
      return std::to_string(R.below(10));
    case 1:
      return S.Ints.empty() ? "nondet()" : pick(S.Ints);
    case 2:
      return "nondet()";
    case 3:
      return "(" + intExpr(S, Depth - 1) + " + " + intExpr(S, Depth - 1) +
             ")";
    default:
      return S.PtrInts.empty() ? std::to_string(R.below(5))
                               : "*" + pick(S.PtrInts);
    }
  }

  std::string ptrIntExpr(Scope &S, int Depth) {
    switch (R.below(3)) {
    case 0:
      if (!S.PtrInts.empty())
        return pick(S.PtrInts);
      [[fallthrough]];
    case 1:
      return "new " + intExpr(S, Depth - 1);
    default:
      return "*cell" + std::to_string(R.below(NumCells));
    }
  }

  std::string ptrLockExpr(Scope &S) {
    switch (R.below(3)) {
    case 0:
      if (!S.PtrLocks.empty())
        return pick(S.PtrLocks);
      [[fallthrough]];
    case 1:
      return "g" + std::to_string(R.below(NumLockGlobals));
    default:
      return "a" + std::to_string(R.below(NumArrays)) + "[" +
             intExpr(S, 1) + "]";
    }
  }

  std::string stmt(Scope &S, int Depth) {
    switch (R.below(Depth > 0 ? 10 : 6)) {
    case 0:
      return "work()";
    case 1:
      return "spin_lock(" + ptrLockExpr(S) + ")";
    case 2:
      return "spin_unlock(" + ptrLockExpr(S) + ")";
    case 3:
      return "helper" + std::to_string(R.below(NumHelpers)) + "(" +
             ptrLockExpr(S) + ")";
    case 4: {
      std::string Target = ptrIntExpr(S, 1);
      return Target + " := " + intExpr(S, 1);
    }
    case 5:
      return intExpr(S, 1);
    case 6: {
      // let over a lock pointer, body uses it.
      std::string Name = fresh("p");
      Scope Inner = S;
      Inner.PtrLocks.push_back(Name);
      return "let " + Name + " = " + ptrLockExpr(S) + " in " +
             block(Inner, Depth - 1);
    }
    case 7: {
      std::string Name = fresh("q");
      Scope Inner = S;
      Inner.PtrInts.push_back(Name);
      return "let " + Name + " = " + ptrIntExpr(S, 1) + " in " +
             block(Inner, Depth - 1);
    }
    case 8:
      return "if " + intExpr(S, 1) + " then " + block(S, Depth - 1) +
             " else " + block(S, Depth - 1);
    default:
      return "while nondet() do " + block(S, Depth - 1);
    }
  }

  std::string block(Scope &S, int Depth) {
    unsigned N = 1 + static_cast<unsigned>(R.below(4));
    std::string Out = "{\n";
    Scope Local = S;
    for (unsigned I = 0; I < N; ++I)
      Out += "  " + stmt(Local, Depth) + ";\n";
    Out += "  0\n}";
    return Out;
  }

  std::string fresh(const char *Prefix) {
    return std::string(Prefix) + std::to_string(NextId++);
  }

  Rng R;
  std::string Src;
  unsigned NumLockGlobals = 1, NumArrays = 1, NumCells = 1, NumHelpers = 1;
  unsigned NextId = 0;
};

struct RandomSweep : ::testing::TestWithParam<uint32_t> {};

TEST_P(RandomSweep, ToolchainInvariantsHold) {
  ProgramGen Gen(GetParam() * 0x9e3779b97f4a7c15ULL + 17);
  std::string Source = Gen.generate();

  // 1. Parses and type checks.
  PipelineOptions InferOpts;
  AnalysisSession SInfer(InferOpts);
  ASTContext &Ctx = SInfer.context();
  auto P = parse(Source, Ctx, SInfer.diags());
  ASSERT_TRUE(P.has_value()) << SInfer.diags().render() << "\n" << Source;
  ASSERT_TRUE(SInfer.run(*P)) << SInfer.diags().render() << "\n" << Source;
  PipelineResult &Infer = SInfer.result();
  EXPECT_TRUE(Infer.Inference.Violations.empty()) << Source;

  // 2. Backwards search agrees.
  {
    PipelineOptions BackOpts;
    BackOpts.UseBackwardsSearch = true;
    AnalysisSession Back(BackOpts);
    ASSERT_TRUE(Back.run(Source)) << Back.diags().render();
    EXPECT_EQ(Infer.Inference.RestrictableBinds,
              Back.result().Inference.RestrictableBinds)
        << Source;
    EXPECT_EQ(Infer.Inference.SucceededConfines,
              Back.result().Inference.SucceededConfines)
        << Source;
  }

  // 3. Mode monotonicity.
  uint32_t ConfineErrors = analyzeLocks(Ctx, Infer, {}).numErrors();
  uint32_t NoConfineErrors, StrongErrors;
  {
    PipelineOptions CheckOpts;
    CheckOpts.Mode = PipelineMode::CheckAnnotations;
    AnalysisSession Check(CheckOpts);
    ASSERT_TRUE(Check.run(Source)) << Check.diags().render();
    EXPECT_TRUE(Check.result().Checks.ok());
    NoConfineErrors =
        analyzeLocks(Check.context(), Check.result(), {}).numErrors();
    LockAnalysisOptions Strong;
    Strong.AllStrong = true;
    StrongErrors =
        analyzeLocks(Check.context(), Check.result(), Strong).numErrors();
  }
  EXPECT_LE(StrongErrors, NoConfineErrors) << Source;
  EXPECT_LE(ConfineErrors, NoConfineErrors) << Source;

  // 4. Materialized inferred restricts pass the annotation checker.
  {
    PrintOverlay Overlay;
    Overlay.BindAsRestrict = Infer.Inference.RestrictableBinds;
    for (ExprId Id : Infer.OptionalConfines)
      if (!Infer.Inference.confineSucceeded(Id))
        Overlay.DropConfines.insert(Id);
    std::string Materialized =
        AstPrinter(Ctx, &Overlay).print(Infer.Analyzed);
    PipelineOptions CheckOpts;
    CheckOpts.Mode = PipelineMode::CheckAnnotations;
    // Inference decides against the liberal restrict-effect semantics
    // (Section 5, footnote 2), so round-tripping must check under it.
    CheckOpts.LiberalRestrictEffect = true;
    AnalysisSession Check(CheckOpts);
    ASTContext &Ctx4 = Check.context();
    auto P4 = parse(Materialized, Ctx4, Check.diags());
    ASSERT_TRUE(P4.has_value())
        << Check.diags().render() << "\n" << Materialized;
    ASSERT_TRUE(Check.run(*P4))
        << Check.diags().render() << "\n" << Materialized;
    EXPECT_TRUE(Check.result().Checks.ok()) << Materialized;

    // 5. Dynamic soundness of the annotated program (Theorem 1).
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      InterpOptions IO;
      IO.NondetSeed = Seed;
      RunResult Run = runProgram(Ctx4, *P4, IO);
      EXPECT_NE(Run.Status, RunStatus::Err)
          << Run.Note << "\n" << Materialized;
      EXPECT_NE(Run.Status, RunStatus::Stuck)
          << Run.Note << "\n" << Materialized;
    }
  }

  // 6. Dynamic soundness of the original program.
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    InterpOptions IO;
    IO.NondetSeed = Seed;
    RunResult Run = runProgram(Ctx, *P, IO);
    EXPECT_NE(Run.Status, RunStatus::Err) << Run.Note << "\n" << Source;
    EXPECT_NE(Run.Status, RunStatus::Stuck) << Run.Note << "\n" << Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSweep, ::testing::Range(0u, 40u));

} // namespace

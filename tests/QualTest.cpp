//===- QualTest.cpp - Flow-sensitive lock analysis tests ------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "qual/LockAnalysis.h"

#include <gtest/gtest.h>

using namespace lna;

namespace {

struct Modes {
  uint32_t NoConfine = 0;
  uint32_t Confine = 0;
  uint32_t AllStrong = 0;
};

Modes analyze(const std::string &Src) {
  Modes Out;
  {
    PipelineOptions Opts;
    Opts.Mode = PipelineMode::CheckAnnotations;
    AnalysisSession S(Opts);
    EXPECT_TRUE(S.run(Src)) << S.diags().render();
    ASTContext &Ctx = S.context();
    PipelineResult &R = S.result();
    Out.NoConfine = analyzeLocks(Ctx, R, {}).numErrors();
    LockAnalysisOptions Strong;
    Strong.AllStrong = true;
    Out.AllStrong = analyzeLocks(Ctx, R, Strong).numErrors();
  }
  {
    PipelineOptions Opts;
    AnalysisSession S(Opts);
    EXPECT_TRUE(S.run(Src)) << S.diags().render();
    ASTContext &Ctx = S.context();
    PipelineResult &R = S.result();
    Out.Confine = analyzeLocks(Ctx, R, {}).numErrors();
  }
  return Out;
}

TEST(Qual, JoinLattice) {
  EXPECT_EQ(joinState(LockState::Unlocked, LockState::Unlocked),
            LockState::Unlocked);
  EXPECT_EQ(joinState(LockState::Locked, LockState::Unlocked),
            LockState::Top);
  EXPECT_EQ(joinState(LockState::Bottom, LockState::Locked),
            LockState::Locked);
  EXPECT_EQ(joinState(LockState::Top, LockState::Unlocked), LockState::Top);
  EXPECT_STREQ(lockStateName(LockState::Locked), "locked");
}

TEST(Qual, BalancedSingletonIsClean) {
  Modes M = analyze("var g : lock;\n"
                    "fun f() : int { spin_lock(g); work(); spin_unlock(g) }");
  EXPECT_EQ(M.NoConfine, 0u);
  EXPECT_EQ(M.Confine, 0u);
  EXPECT_EQ(M.AllStrong, 0u);
}

TEST(Qual, DoubleLockErrorsEverywhere) {
  Modes M = analyze("var g : lock;\n"
                    "fun f() : int { spin_lock(g); spin_lock(g) }");
  EXPECT_EQ(M.NoConfine, 1u);
  EXPECT_EQ(M.Confine, 1u);
  EXPECT_EQ(M.AllStrong, 1u);
}

TEST(Qual, UnlockOfUnheldLockErrors) {
  Modes M = analyze("var g : lock;\nfun f() : int { spin_unlock(g) }");
  EXPECT_EQ(M.NoConfine, 1u);
  EXPECT_EQ(M.AllStrong, 1u);
}

TEST(Qual, ArrayPairIsWeakWithoutConfine) {
  Modes M = analyze(
      "var a : array lock;\n"
      "fun f(i : int) : int { spin_lock(a[i]); work(); spin_unlock(a[i]) }");
  EXPECT_EQ(M.NoConfine, 1u); // the unlock
  EXPECT_EQ(M.Confine, 0u);
  EXPECT_EQ(M.AllStrong, 0u);
}

TEST(Qual, RepeatedPairsCompoundWithoutConfine) {
  std::string Body;
  for (int I = 0; I < 3; ++I)
    Body += "  spin_lock(a[i]); work(); spin_unlock(a[i]);\n";
  Modes M = analyze("var a : array lock;\nfun f(i : int) : int {\n" + Body +
                    "  0\n}");
  EXPECT_EQ(M.NoConfine, 5u); // 2k-1
  EXPECT_EQ(M.Confine, 0u);
  EXPECT_EQ(M.AllStrong, 0u);
}

TEST(Qual, BranchesJoin) {
  // Lock held on one path only: join is top; the unlock errors in every
  // mode (a path-sensitivity limit the paper also hits).
  Modes M = analyze("var g : lock;\n"
                    "fun f() : int {\n"
                    "  if nondet() then { spin_lock(g) } else { work() };\n"
                    "  spin_unlock(g)\n}");
  EXPECT_EQ(M.NoConfine, 1u);
  EXPECT_EQ(M.Confine, 1u);
  EXPECT_EQ(M.AllStrong, 1u);
}

TEST(Qual, BothBranchesLockIsFine) {
  Modes M = analyze("var g : lock;\n"
                    "fun f() : int {\n"
                    "  if nondet() then { spin_lock(g) }"
                    " else { spin_lock(g) };\n"
                    "  spin_unlock(g)\n}");
  EXPECT_EQ(M.NoConfine, 0u);
  EXPECT_EQ(M.AllStrong, 0u);
}

TEST(Qual, LoopFixpointOnSingleton) {
  Modes M = analyze("var g : lock;\n"
                    "fun f() : int {\n"
                    "  while nondet() do {\n"
                    "    spin_lock(g); work(); spin_unlock(g) }\n}");
  EXPECT_EQ(M.NoConfine, 0u);
}

TEST(Qual, LoopWithHeldLockAcrossBackEdgeErrors) {
  // The lock is left held at the loop back-edge: re-locking errors.
  Modes M = analyze("var g : lock;\n"
                    "fun f() : int {\n"
                    "  while nondet() do { spin_lock(g) }\n}");
  EXPECT_EQ(M.NoConfine, 1u);
  EXPECT_EQ(M.AllStrong, 1u);
}

TEST(Qual, InterproceduralFlowThroughHelper) {
  Modes M = analyze("var g : lock;\n"
                    "fun lockit() : int { spin_lock(g) }\n"
                    "fun f() : int { lockit(); spin_unlock(g) }");
  EXPECT_EQ(M.NoConfine, 0u);
}

TEST(Qual, HelperDoubleLockAcrossCallsErrors) {
  Modes M = analyze("var g : lock;\n"
                    "fun lockit() : int { spin_lock(g) }\n"
                    "fun f() : int { lockit(); lockit() }");
  EXPECT_EQ(M.NoConfine, 1u); // the site inside lockit, counted once
}

TEST(Qual, EntryPointsAreAnalyzedIndependently) {
  // Two entries locking the same singleton: fresh store per entry, no
  // cross-contamination.
  Modes M = analyze("var g : lock;\n"
                    "fun e1() : int { spin_lock(g); spin_unlock(g) }\n"
                    "fun e2() : int { spin_lock(g); spin_unlock(g) }");
  EXPECT_EQ(M.NoConfine, 0u);
}

TEST(Qual, RecursionHavocsConservatively) {
  // Recursive helper: the analysis loses lock-state knowledge, so the
  // following unlock cannot be verified. Conservative, not unsound.
  Modes M = analyze("var g : lock;\n"
                    "fun r(n : int) : int {\n"
                    "  if n == 0 then 0 else r(n - 1) }\n"
                    "fun f() : int { spin_lock(g); r(3); spin_unlock(g) }");
  EXPECT_EQ(M.NoConfine, 1u);
}

TEST(Qual, StructArrayFieldNeedsConfine) {
  Modes M = analyze("struct D { lck : lock; }\nvar devs : array D;\n"
                    "fun f(i : int) : int {\n"
                    "  spin_lock(devs[i]->lck); work();"
                    " spin_unlock(devs[i]->lck) }");
  EXPECT_EQ(M.NoConfine, 1u);
  EXPECT_EQ(M.Confine, 0u);
}

TEST(Qual, SingletonStructFieldIsStrong) {
  Modes M = analyze("struct D { lck : lock; }\nvar d : D;\n"
                    "fun f() : int {\n"
                    "  spin_lock(d->lck); work(); spin_unlock(d->lck) }");
  EXPECT_EQ(M.NoConfine, 0u);
}

TEST(Qual, ExplicitRestrictParamRecoversStrongUpdate) {
  // No inference at all: the C99-style annotation alone recovers the
  // strong update in checking mode.
  Modes M = analyze("var a : array lock;\n"
                    "fun dwl(restrict l : ptr lock) : int {\n"
                    "  spin_lock(l); work(); spin_unlock(l) }\n"
                    "fun f(i : int) : int { dwl(a[i]) }");
  EXPECT_EQ(M.NoConfine, 0u);
}

TEST(Qual, ExplicitConfineRecoversStrongUpdate) {
  Modes M = analyze("var a : array lock;\n"
                    "fun f(i : int) : int {\n"
                    "  confine a[i] in {\n"
                    "    spin_lock(a[i]); work(); spin_unlock(a[i]) } }");
  EXPECT_EQ(M.NoConfine, 0u);
}

TEST(Qual, ConfineScopeExitJoinsStateBack) {
  // The lock is left HELD inside the confine; after the scope the
  // collection's state must reflect it (join), so a later unlock through
  // the array cannot be verified -- and neither can it be declared safe.
  Modes M = analyze("var a : array lock;\n"
                    "fun f(i : int) : int {\n"
                    "  confine a[i] in { spin_lock(a[i]) };\n"
                    "  spin_unlock(a[i])\n}");
  EXPECT_EQ(M.NoConfine, 1u);
}

TEST(Qual, SequencedAliasedLocksMatchPaperLimitation) {
  // lock a[i]; unlock a[j]: weak updates cannot verify the unlock; strong
  // updates can (i and j share the abstract location).
  Modes M = analyze("var a : array lock;\n"
                    "fun f(i : int, j : int) : int {\n"
                    "  spin_lock(a[i]); work(); spin_unlock(a[j]) }");
  EXPECT_EQ(M.NoConfine, 1u);
  EXPECT_EQ(M.Confine, 1u);
  EXPECT_EQ(M.AllStrong, 0u);
}

TEST(Qual, LockValueAssignmentLosesPrecisionWeakly) {
  // Overwriting a lock cell through a pointer with an unknown lock value.
  Modes M = analyze("var g : lock;\nvar h : lock;\n"
                    "fun f() : int {\n"
                    "  spin_lock(g);\n"
                    "  g := *h;\n"
                    "  spin_unlock(g)\n}");
  // g's state after the copy is h's (unlocked): the unlock errors.
  EXPECT_EQ(M.NoConfine, 1u);
}

TEST(Qual, ErrorRecordsCarrySiteInfo) {
  PipelineOptions Opts;
  Opts.Mode = PipelineMode::CheckAnnotations;
  AnalysisSession S(Opts);
  ASSERT_TRUE(S.run("var g : lock;\nfun f() : int { spin_unlock(g) }"))
      << S.diags().render();
  LockAnalysisResult Res = analyzeLocks(S.context(), S.result(), {});
  ASSERT_EQ(Res.numErrors(), 1u);
  EXPECT_FALSE(Res.Errors[0].IsAcquire);
  EXPECT_EQ(Res.Errors[0].Pre, LockState::Unlocked);
  EXPECT_TRUE(Res.Errors[0].Loc.isValid());
}

} // namespace

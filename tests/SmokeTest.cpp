//===- SmokeTest.cpp - End-to-end pipeline smoke tests --------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Drives the full pipeline over the paper's running example (Figure 1):
// an array of locks indexed by a runtime value, locked and unlocked around
// a call to work(). Weak updates make the unlock unverifiable; confine
// inference recovers the strong update and eliminates the error.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "lang/AstPrinter.h"
#include "qual/LockAnalysis.h"

#include <gtest/gtest.h>

using namespace lna;

namespace {

// The Figure 1 program: do_with_lock(&locks[i]).
const char *Figure1 = R"(
var locks : array lock;

fun do_with_lock(l : ptr lock) : int {
  spin_lock(l);
  work();
  spin_unlock(l)
}

fun foo(i : int) : int {
  do_with_lock(locks[i])
}
)";

struct ModeErrors {
  uint32_t NoConfine;
  uint32_t ConfineInference;
  uint32_t AllStrong;
};

ModeErrors analyzeAllModes(const char *Source) {
  ModeErrors Out{};
  {
    // No confine inference (and all-strong, which shares the pipeline).
    PipelineOptions Opts;
    Opts.Mode = PipelineMode::CheckAnnotations;
    AnalysisSession S(Opts);
    EXPECT_TRUE(S.run(Source)) << S.diags().render();
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
    EXPECT_TRUE(S.run(Source)) << S.diags().render();
    ASTContext &Ctx = S.context();
    PipelineResult &R = S.result();
    Out.ConfineInference = analyzeLocks(Ctx, R, {}).numErrors();
  }
  return Out;
}

TEST(Smoke, Figure1WeakUpdatesWithoutConfine) {
  ModeErrors E = analyzeAllModes(Figure1);
  // Weak updates: the unlock cannot be verified.
  EXPECT_GT(E.NoConfine, 0u);
  // Confine inference recovers the strong updates...
  EXPECT_EQ(E.ConfineInference, 0u);
  // ...matching the all-updates-strong upper bound.
  EXPECT_EQ(E.AllStrong, 0u);
}

TEST(Smoke, SingletonGlobalLockNeedsNoConfine) {
  const char *Source = R"(
var g : lock;
fun f() : int {
  spin_lock(g);
  work();
  spin_unlock(g)
}
)";
  ModeErrors E = analyzeAllModes(Source);
  // A singleton global lock is linear: strong updates without confine.
  EXPECT_EQ(E.NoConfine, 0u);
  EXPECT_EQ(E.ConfineInference, 0u);
  EXPECT_EQ(E.AllStrong, 0u);
}

TEST(Smoke, DoubleAcquireIsAGenuineBug) {
  const char *Source = R"(
var g : lock;
fun f() : int {
  spin_lock(g);
  spin_lock(g);
  spin_unlock(g)
}
)";
  ModeErrors E = analyzeAllModes(Source);
  // The second acquire errors in every mode: no amount of strong updates
  // helps (the 85-module category of Section 7).
  EXPECT_EQ(E.NoConfine, 1u);
  EXPECT_EQ(E.ConfineInference, 1u);
  EXPECT_EQ(E.AllStrong, 1u);
}

} // namespace

//===- SessionTest.cpp - AnalysisSession driver tests ---------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Exercises the phase-structured driver layer: phase ordering per mode,
// the checking run that stops after typing when there is no scope, early
// exit on parse/type errors, stats counters being populated for a
// known fixture, JSON dump shape, running over a program parsed into
// the session's context, and repeated runs on one session.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"

#include "lang/Parser.h"
#include "qual/LockAnalysis.h"

#include <gtest/gtest.h>

using namespace lna;

namespace {

// A small program with aliasing, a lock array, a confine-friendly
// lock/unlock pair, and an if-join that forces a location-class merge:
// every phase has work to do and every counter ticks.
const char *Fixture = R"(
var locks : array lock;
var g : ptr int;
fun f(i : int) : int {
  spin_lock(locks[i]);
  work();
  spin_unlock(locks[i]);
  let p = new 1 in *p;
  let q = g in *q;
  let a = new 2 in
  let b = new 3 in
  let m = if i then a else b in *m
}
)";

std::vector<std::string> phaseNames(const SessionStats &Stats) {
  std::vector<std::string> Names;
  for (const PhaseStats &P : Stats.phases())
    Names.push_back(P.Name);
  return Names;
}

TEST(Session, InferModePhaseOrdering) {
  AnalysisSession S;
  ASSERT_TRUE(S.run(Fixture)) << S.diags().render();
  EXPECT_EQ(phaseNames(S.stats()),
            (std::vector<std::string>{"parse", "confine-placement", "typing",
                                      "effect-constraints", "inference"}));
}

// Fixture has no scope to check; this one has one explicit restrict.
const char *ScopedFixture = R"(
fun f(q : ptr int) : int {
  restrict r = q in *r;
  0
}
)";

PipelineOptions checkMode() {
  PipelineOptions Opts;
  Opts.Mode = PipelineMode::CheckAnnotations;
  return Opts;
}

TEST(Session, CheckModePhaseOrdering) {
  AnalysisSession S(checkMode());
  ASSERT_TRUE(S.run(ScopedFixture)) << S.diags().render();
  EXPECT_EQ(phaseNames(S.stats()),
            (std::vector<std::string>{"parse", "typing", "effect-constraints",
                                      "check-sat"}));
}

// Checking costs O(kn) for k scopes (Section 4): at k = 0 the run ends
// after typing, builds no constraint graph, and accepts the program.
TEST(Session, CheckModeWithoutScopesStopsAfterTyping) {
  AnalysisSession S(checkMode());
  ASSERT_TRUE(S.run(Fixture)) << S.diags().render();
  EXPECT_EQ(phaseNames(S.stats()),
            (std::vector<std::string>{"parse", "typing"}));
  ASSERT_TRUE(S.hasResult());
  EXPECT_FALSE(S.failure().has_value());
  EXPECT_FALSE(hasScopesToCheck(S.result().Alias));
  EXPECT_TRUE(S.result().Checks.ok());
  EXPECT_TRUE(S.result().Eff.Binds.empty());
  EXPECT_EQ(S.result().State->CS.numVars(), 0u);
  // The lock analysis reads only the typing results.
  analyzeLocks(S, {});
  EXPECT_GT(S.stats().counter("lock-analysis", "lock-sites"), 0u);
}

// Each scope kind keeps the checking run going through CHECK-SAT, and
// the seeded violation in each is still reported.
void expectCheckedWithViolation(const char *Source,
                                RestrictViolation::Kind Expected) {
  AnalysisSession S(checkMode());
  ASSERT_TRUE(S.run(Source)) << S.diags().render();
  EXPECT_TRUE(hasScopesToCheck(S.result().Alias));
  EXPECT_EQ(phaseNames(S.stats()),
            (std::vector<std::string>{"parse", "typing", "effect-constraints",
                                      "check-sat"}));
  bool Found = false;
  for (const RestrictViolation &V : S.result().Checks.Violations)
    Found |= V.K == Expected;
  EXPECT_TRUE(Found) << Source;
}

TEST(Session, CheckModeRunsCheckSatForAPointerRestrict) {
  expectCheckedWithViolation(R"(
fun f(q : ptr int) : int {
  restrict p = q in { *p; *q }
}
)",
                             RestrictViolation::Kind::AccessedInScope);
}

TEST(Session, CheckModeRunsCheckSatForARestrictParameter) {
  expectCheckedWithViolation(R"(
var saved : ptr lock;
fun keep(restrict l : ptr lock) : int {
  saved := l; 0
}
)",
                             RestrictViolation::Kind::Escapes);
}

TEST(Session, CheckModeRunsCheckSatForAnExplicitConfine) {
  expectCheckedWithViolation(R"(
var locks : array lock;
fun f(i : int, j : int) : int {
  confine locks[i] in {
    spin_lock(locks[i]);
    spin_unlock(locks[j]);
    0
  }
}
)",
                             RestrictViolation::Kind::AccessedInScope);
}

TEST(Session, InlinePhaseRunsWhenRequested) {
  PipelineOptions Opts;
  Opts.InlineDepth = 2;
  AnalysisSession S(Opts);
  ASSERT_TRUE(S.run(Fixture)) << S.diags().render();
  std::vector<std::string> Names = phaseNames(S.stats());
  ASSERT_GE(Names.size(), 2u);
  EXPECT_EQ(Names[0], "parse");
  EXPECT_EQ(Names[1], "inline");
}

TEST(Session, EarlyExitOnParseError) {
  AnalysisSession S;
  EXPECT_FALSE(S.run("fun ("));
  EXPECT_TRUE(S.diags().hasErrors());
  EXPECT_FALSE(S.hasResult());
  // Only the parse phase ran; nothing downstream was attempted.
  EXPECT_EQ(phaseNames(S.stats()), std::vector<std::string>{"parse"});
}

TEST(Session, EarlyExitOnTypeError) {
  AnalysisSession S;
  EXPECT_FALSE(S.run("fun f() : int { *1 }"));
  EXPECT_TRUE(S.diags().hasErrors());
  EXPECT_FALSE(S.hasResult());
  std::vector<std::string> Names = phaseNames(S.stats());
  ASSERT_FALSE(Names.empty());
  EXPECT_EQ(Names.back(), "typing");
  for (const std::string &N : Names)
    EXPECT_NE(N, "effect-constraints");
}

TEST(Session, CountersAreNonzeroOnFixture) {
  AnalysisSession S;
  ASSERT_TRUE(S.run(Fixture)) << S.diags().render();
  const SessionStats &St = S.stats();
  EXPECT_GT(St.counter("parse", "ast-nodes"), 0u);
  EXPECT_GT(St.counter("confine-placement", "confines-placed"), 0u);
  EXPECT_GT(St.counter("typing", "unifications"), 0u);
  EXPECT_GT(St.counter("typing", "locations"), 0u);
  EXPECT_GT(St.counter("typing", "lock-sites"), 0u);
  EXPECT_GT(St.counter("effect-constraints", "effect-vars"), 0u);
  EXPECT_GT(St.counter("effect-constraints", "constraints-generated"), 0u);
  EXPECT_GT(St.counter("inference", "restricts-attempted"), 0u);
  EXPECT_GT(St.counter("inference", "restricts-kept"), 0u);
  EXPECT_GT(St.counter("inference", "confines-kept"), 0u);
}

TEST(Session, CheckSatCountersPopulate) {
  AnalysisSession S(checkMode());
  ASSERT_TRUE(S.run(ScopedFixture)) << S.diags().render();
  EXPECT_GT(S.stats().counter("check-sat", "checksat-queries"), 0u);
  EXPECT_GT(S.stats().counter("check-sat", "checksat-visits"), 0u);
}

TEST(Session, LockAnalysisJoinsThePhasePipeline) {
  AnalysisSession S;
  ASSERT_TRUE(S.run(Fixture)) << S.diags().render();
  LockAnalysisResult First = analyzeLocks(S, {});
  EXPECT_EQ(First.numErrors(), 0u) << "confine should recover the array";
  LockAnalysisOptions Strong;
  Strong.AllStrong = true;
  analyzeLocks(S, Strong);
  const PhaseStats *P = S.stats().findPhase("lock-analysis");
  ASSERT_NE(P, nullptr);
  // Both runs accumulate into the one phase entry.
  EXPECT_EQ(P->counter("lock-sites"),
            2 * S.stats().counter("typing", "lock-sites"));
}

TEST(Session, PhaseTimingsAreRecorded) {
  AnalysisSession S;
  ASSERT_TRUE(S.run(Fixture)) << S.diags().render();
  for (const PhaseStats &P : S.stats().phases())
    EXPECT_GE(P.Seconds, 0.0) << P.Name;
  EXPECT_GT(S.stats().totalSeconds(), 0.0);
}

TEST(Session, StatsRenderTextMentionsEveryPhase) {
  AnalysisSession S;
  ASSERT_TRUE(S.run(Fixture)) << S.diags().render();
  std::string Text = S.stats().renderText();
  for (const PhaseStats &P : S.stats().phases())
    EXPECT_NE(Text.find(P.Name), std::string::npos) << P.Name;
  EXPECT_NE(Text.find("total"), std::string::npos);
}

TEST(Session, StatsJSONHasExpectedShape) {
  AnalysisSession S;
  ASSERT_TRUE(S.run(Fixture)) << S.diags().render();
  std::string Json = S.stats().renderJSON();
  EXPECT_EQ(Json.front(), '{');
  EXPECT_EQ(Json.back(), '}');
  EXPECT_NE(Json.find("\"phases\":["), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"typing\""), std::string::npos);
  EXPECT_NE(Json.find("\"seconds\":"), std::string::npos);
  EXPECT_NE(Json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(Json.find("\"total_seconds\":"), std::string::npos);
  // Braces and brackets balance (a cheap well-formedness proxy).
  int Depth = 0;
  for (char C : Json) {
    if (C == '{' || C == '[')
      ++Depth;
    if (C == '}' || C == ']')
      --Depth;
    EXPECT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
}

TEST(Session, StatsMergeSumsByPhaseAndCounter) {
  SessionStats A;
  A.phase("typing").Seconds = 1.0;
  A.phase("typing").add("unifications", 3);
  SessionStats B;
  B.phase("typing").Seconds = 0.5;
  B.phase("typing").add("unifications", 4);
  B.phase("inference").add("restricts-kept", 1);
  A.merge(B);
  EXPECT_DOUBLE_EQ(A.findPhase("typing")->Seconds, 1.5);
  EXPECT_EQ(A.counter("typing", "unifications"), 7u);
  EXPECT_EQ(A.counter("inference", "restricts-kept"), 1u);
}

TEST(Session, RunPipelineWrapperStaysSourceCompatible) {
  // A caller that holds a Program parses it into the session's own
  // context and hands it to run(P); confines are placed and verified.
  AnalysisSession S;
  std::optional<Program> P = parse(Fixture, S.context(), S.diags());
  ASSERT_TRUE(P.has_value()) << S.diags().render();
  ASSERT_TRUE(S.run(*P)) << S.diags().render();
  EXPECT_FALSE(S.result().OptionalConfines.empty());
  EXPECT_FALSE(S.result().Inference.SucceededConfines.empty());
}

TEST(Session, BorrowedContextSessionMatchesOwning) {
  // A program parsed into the session's context and run through run(P)
  // gives the same answers as run(Source), but records no parse phase.
  AnalysisSession Parsed;
  std::optional<Program> P =
      parse(Fixture, Parsed.context(), Parsed.diags());
  ASSERT_TRUE(P.has_value()) << Parsed.diags().render();
  ASSERT_TRUE(Parsed.run(*P)) << Parsed.diags().render();
  AnalysisSession FromSource;
  ASSERT_TRUE(FromSource.run(Fixture)) << FromSource.diags().render();

  const PipelineResult &A = Parsed.result(), &B = FromSource.result();
  EXPECT_EQ(A.Inference.RestrictableBinds, B.Inference.RestrictableBinds);
  EXPECT_EQ(A.OptionalConfines, B.OptionalConfines);
  EXPECT_EQ(Parsed.stats().findPhase("parse"), nullptr);
  EXPECT_NE(FromSource.stats().findPhase("parse"), nullptr);
}

TEST(Session, SecondRunMatchesAFreshSession) {
  // Every run starts from fresh analysis state: running the same source
  // twice on one session gives a fresh session's answers, and the second
  // run adds exactly a fresh session's counters to the accumulated stats.
  for (PipelineMode Mode :
       {PipelineMode::CheckAnnotations, PipelineMode::Infer}) {
    PipelineOptions Opts;
    Opts.Mode = Mode;
    AnalysisSession Fresh(Opts);
    ASSERT_TRUE(Fresh.run(Fixture)) << Fresh.diags().render();
    unsigned FreshLockErrors = analyzeLocks(Fresh, {}).numErrors();

    AnalysisSession Twice(Opts);
    ASSERT_TRUE(Twice.run(Fixture)) << Twice.diags().render();
    analyzeLocks(Twice, {});
    SessionStats First = Twice.stats();
    ASSERT_TRUE(Twice.run(Fixture)) << Twice.diags().render();
    EXPECT_EQ(analyzeLocks(Twice, {}).numErrors(), FreshLockErrors);

    const PipelineResult &A = Fresh.result(), &B = Twice.result();
    EXPECT_EQ(A.Inference.RestrictableBinds.size(),
              B.Inference.RestrictableBinds.size());
    EXPECT_EQ(A.Inference.SucceededConfines.size(),
              B.Inference.SucceededConfines.size());
    EXPECT_EQ(A.OptionalConfines.size(), B.OptionalConfines.size());
    EXPECT_EQ(A.Checks.Violations.size(), B.Checks.Violations.size());
    EXPECT_EQ(A.Alias.Binds.size(), B.Alias.Binds.size());

    EXPECT_EQ(phaseNames(Twice.stats()), phaseNames(Fresh.stats()));
    for (const PhaseStats &P : Fresh.stats().phases())
      for (const auto &[Name, Value] : P.Counters)
        EXPECT_EQ(Twice.stats().counter(P.Name, Name) -
                      First.counter(P.Name, Name),
                  Value)
            << P.Name << "/" << Name;
  }
}

} // namespace

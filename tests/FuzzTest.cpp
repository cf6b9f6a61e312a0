//===- FuzzTest.cpp - Fuzz harness unit tests + regression replay -*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Two jobs: unit-test the pieces of the differential fuzzing harness
// (generator determinism, reducer, oracle plumbing, a short end-to-end
// run), and replay every committed reproducer under tests/regressions/
// so a fixed divergence failing again is a tier-1 test failure, not a
// fuzzing-session discovery.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "fuzz/Reducer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

using namespace lna;

namespace {

TEST(FuzzGenerator, DeterministicInSeed) {
  for (uint64_t Seed : {1u, 7u, 12345u}) {
    EXPECT_EQ(generateFuzzProgram(Seed), generateFuzzProgram(Seed));
  }
  EXPECT_NE(generateFuzzProgram(1), generateFuzzProgram(2));
}

TEST(FuzzGenerator, RespectsFeatureKnobs) {
  GeneratorOptions Opts;
  Opts.ExplicitRestricts = false;
  Opts.Confines = false;
  Opts.Casts = false;
  // Knobs only gate emission, so over many seeds none of the disabled
  // constructs may appear.
  for (uint64_t Seed = 0; Seed < 50; ++Seed) {
    std::string P = generateFuzzProgram(Seed, Opts);
    EXPECT_EQ(P.find("restrict"), std::string::npos) << P;
    EXPECT_EQ(P.find("confine"), std::string::npos) << P;
    EXPECT_EQ(P.find("cast"), std::string::npos) << P;
  }
}

TEST(FuzzSeeds, PerRunSeedsAreStableAndSpread) {
  EXPECT_EQ(fuzzRunSeed(1, 0), fuzzRunSeed(1, 0));
  EXPECT_NE(fuzzRunSeed(1, 0), fuzzRunSeed(1, 1));
  EXPECT_NE(fuzzRunSeed(1, 0), fuzzRunSeed(2, 0));
}

TEST(FuzzOracles, NamesRoundTrip) {
  for (unsigned I = 0; I < NumOracleKinds; ++I) {
    OracleKind K = static_cast<OracleKind>(I);
    auto Back = oracleFromName(oracleName(K));
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(*Back, K);
  }
  EXPECT_FALSE(oracleFromName("no-such-oracle").has_value());
}

TEST(FuzzOracles, UnparseableProgramsAreVacuous) {
  for (unsigned I = 0; I < NumOracleKinds; ++I) {
    OracleOutcome O = runOracle(static_cast<OracleKind>(I), "fun f( {");
    EXPECT_FALSE(O.Applicable);
    EXPECT_FALSE(O.Failed);
  }
}

TEST(FuzzOracles, CleanProgramPassesAllOracles) {
  // The program must type-check, or every oracle is vacuously
  // not-applicable and the test proves nothing.
  const char *Src = "var g : ptr int;\n"
                    "fun f() : int { restrict r = g in { *r := 1; 0 } }";
  for (unsigned I = 0; I < NumOracleKinds; ++I) {
    OracleOutcome O = runOracle(static_cast<OracleKind>(I), Src);
    EXPECT_TRUE(O.Applicable) << oracleName(static_cast<OracleKind>(I));
    EXPECT_FALSE(O.Failed) << oracleName(static_cast<OracleKind>(I)) << ": "
                           << O.Message;
  }
}

TEST(FuzzOracles, SolverAgreementComparesCheckingAndInferenceGraphs) {
  // Inference graphs carry conditional constraints; the oracle compares
  // their final, post-firing graphs too, and says which modes it ran.
  // The explicit restrict gives the checking run a graph to compare.
  const char *Src = "var g : ptr int;\n"
                    "fun f() : int {\n"
                    "  restrict q = g in *q := 2;\n"
                    "  let r = g in *r := 1;\n"
                    "}\n";
  OracleOutcome O = runOracle(OracleKind::SolverAgreement, Src);
  EXPECT_TRUE(O.Applicable);
  EXPECT_FALSE(O.Failed) << O.Message;
  EXPECT_EQ(O.Counters,
            (std::vector<std::string>{"check.checked", "infer.checked"}));
}

TEST(FuzzOracles, SolverAgreementHoldsEscapeVerdictsToTheReference) {
  // Both scope forms escape through the global: the checker's EscapeVia
  // (one search per kind over all escape variables) must be the first
  // escape variable explainReach reaches.
  const char *Src = "var h : ptr int;\n"
                    "fun f(q : ptr int) : int {\n"
                    "  restrict p = q in { h := p; 0 }\n"
                    "}\n"
                    "fun g(restrict q : ptr int) : int { h := q; 0 }\n";
  OracleOutcome O = runOracle(OracleKind::SolverAgreement, Src);
  EXPECT_TRUE(O.Applicable);
  EXPECT_FALSE(O.Failed) << O.Message;
  EXPECT_EQ(O.Counters, (std::vector<std::string>{
                            "check.checked", "check.escapes", "infer.checked"}));
}

TEST(FuzzOracles, SolverAgreementCountsUnscopedCheckingRuns) {
  // With no scope, the checking run stops after typing and has no graph.
  const char *Src = "var g : ptr int;\n"
                    "fun f() : int {\n"
                    "  let r = g in *r := 1;\n"
                    "}\n";
  OracleOutcome O = runOracle(OracleKind::SolverAgreement, Src);
  EXPECT_TRUE(O.Applicable);
  EXPECT_FALSE(O.Failed) << O.Message;
  EXPECT_EQ(O.Counters,
            (std::vector<std::string>{"check.unscoped", "infer.checked"}));
}

TEST(FuzzHarness, SolverAgreementStillComparesCheckModeGraphs) {
  // Generated programs come with and without scopes: both kinds of
  // checking run must turn up, so check-mode graphs are still compared.
  FuzzOptions Opts;
  Opts.Seed = 3;
  Opts.Runs = 60;
  Opts.Oracles = {OracleKind::SolverAgreement};
  FuzzReport R = runFuzz(Opts);
  EXPECT_TRUE(R.ok()) << (R.Failures.empty() ? "" : R.Failures[0].Message);
  EXPECT_GT(R.Stats.counter("fuzz", "solver-agreement.check.checked"), 0u);
  EXPECT_GT(R.Stats.counter("fuzz", "solver-agreement.check.unscoped"), 0u);
  EXPECT_GT(R.Stats.counter("fuzz", "solver-agreement.infer.checked"), 0u);
}

TEST(FuzzReducer, ShrinksToPredicateMinimum) {
  const char *Src = "var g : ptr int;\n"
                    "fun f() : int { 1 + 2; g := 3; work(); 0 }\n"
                    "fun h() : int { 40 + 2 }";
  auto StillFails = [](std::string_view S) {
    return S.find("40") != std::string_view::npos;
  };
  ReduceResult R = reduceProgram(Src, StillFails);
  EXPECT_TRUE(StillFails(R.Source));
  EXPECT_LT(R.Source.size(), std::string_view(Src).size());
  // Everything unrelated to the predicate should be gone.
  EXPECT_EQ(R.Source.find("work"), std::string::npos) << R.Source;
  EXPECT_EQ(R.Source.find("var g"), std::string::npos) << R.Source;
  EXPECT_GT(R.StepsTaken, 0u);
}

TEST(FuzzReducer, ReturnsInputWhenPredicateNeverHolds) {
  ReduceResult R = reduceProgram("fun f() : int { 0 }",
                                 [](std::string_view) { return false; });
  EXPECT_EQ(R.Source, "fun f() : int { 0 }");
  EXPECT_EQ(R.StepsTaken, 0u);
}

TEST(FuzzHarness, ShortRunIsCleanAndCounted) {
  FuzzOptions Opts;
  Opts.Seed = 2;
  Opts.Runs = 50;
  Opts.Gen.MaxSize = 24;
  FuzzReport R = runFuzz(Opts);
  EXPECT_TRUE(R.ok()) << (R.Failures.empty()
                              ? ""
                              : R.Failures[0].Message + "\n" +
                                    R.Failures[0].Reduced);
  EXPECT_EQ(R.RunsCompleted, 50u);
  EXPECT_NE(R.Stats.renderText().find("fuzz"), std::string::npos);
}

TEST(FuzzHarness, ReplayRejectsHeaderlessInput) {
  OracleOutcome O = replayRegressionSource("fun f() : int { 0 }");
  EXPECT_FALSE(O.Applicable);
  EXPECT_FALSE(O.Message.empty());
}

TEST(FuzzHarness, RenderedReproducersReplay) {
  FuzzFailure F;
  F.Oracle = OracleKind::PrintParseRoundTrip;
  F.Seed = 99;
  F.Message = "synthetic";
  F.Reduced = "fun f() : int { 0 }";
  std::string Name;
  OracleOutcome O = replayRegressionSource(renderRegressionFile(F), &Name);
  EXPECT_EQ(Name, "round-trip");
  EXPECT_FALSE(O.Failed); // a healthy program: divergence must not appear
}

// Replays the committed regression corpus. Every file here is a reduced
// reproducer of a divergence that was found by fuzzing and then fixed;
// Failed means the bug is back.
class RegressionCorpus : public ::testing::TestWithParam<std::string> {};

TEST_P(RegressionCorpus, StaysFixed) {
  std::ifstream In(GetParam());
  ASSERT_TRUE(In.good()) << "cannot open " << GetParam();
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Name;
  OracleOutcome O = replayRegressionSource(Buf.str(), &Name);
  EXPECT_FALSE(Name.empty()) << "missing/bad header in " << GetParam();
  EXPECT_FALSE(O.Failed) << GetParam() << " regressed (" << Name
                         << "): " << O.Message;
}

std::vector<std::string> regressionFiles() {
  std::vector<std::string> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(LNA_REGRESSION_DIR))
    if (Entry.path().extension() == ".lna")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

INSTANTIATE_TEST_SUITE_P(Committed, RegressionCorpus,
                         ::testing::ValuesIn(regressionFiles()),
                         [](const auto &Info) {
                           std::string Stem =
                               std::filesystem::path(Info.param).stem().string();
                           for (char &C : Stem)
                             if (C == '-' || C == '.')
                               C = '_';
                           return Stem;
                         });

} // namespace

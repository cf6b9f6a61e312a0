//===- ParseOnceTest.cpp - One-parse corpus analysis vs two sessions ------===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// analyzeModuleAllModes parses a module once and runs the checking and
// inference modes as two runs of one AnalysisSession over one ASTContext.
// These tests hold it to the composition it replaced, kept here as the
// reference: one self-contained session per mode, each parsing the
// source itself. Every generated corpus module and every committed
// fixture must give the same outcome under both alias backends, and a
// resource cap that only the inference mode's parse + placement exceeds
// must fail exactly as it failed in the inference mode's own session.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "corpus/Experiment.h"
#include "lang/Parser.h"
#include "qual/LockAnalysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace lna;

namespace {

/// Copies a session failure into \p Out the way analyzeModuleAllModes
/// reports it.
void recordFailure(ModuleModeResult &Out, const AnalysisSession &S) {
  const PhaseFailure &F = *S.failure();
  Out.Failure = F.Kind;
  Out.FailedPhase = F.Phase;
  Out.Error =
      F.Kind == FailureKind::ParseError || F.Kind == FailureKind::TypeError
          ? S.diags().render()
          : F.Message;
}

/// The reference: each mode pipeline in its own session with its own
/// parse, stats merged in mode order.
ModuleModeResult twoSessionReference(const std::string &Source,
                                     const ModuleAnalysisOptions &MOpts) {
  ModuleModeResult Out;
  {
    PipelineOptions Opts;
    Opts.Mode = PipelineMode::CheckAnnotations;
    Opts.Limits = MOpts.Limits;
    Opts.AliasBackend = MOpts.AliasBackend;
    AnalysisSession S(Opts);
    if (S.run(Source)) {
      Out.Counts.NoConfine = analyzeLocks(S, {}).numErrors();
      LockAnalysisOptions Strong;
      Strong.AllStrong = true;
      Out.Counts.AllStrong = analyzeLocks(S, Strong).numErrors();
    }
    Out.Stats.merge(S.stats());
    if (S.failure()) {
      recordFailure(Out, S);
      return Out;
    }
  }
  {
    PipelineOptions Opts;
    Opts.Limits = MOpts.Limits;
    Opts.AliasBackend = MOpts.AliasBackend;
    AnalysisSession S(Opts);
    if (S.run(Source))
      Out.Counts.ConfineInference = analyzeLocks(S, {}).numErrors();
    Out.Stats.merge(S.stats());
    if (S.failure()) {
      recordFailure(Out, S);
      return Out;
    }
  }
  Out.Ok = true;
  return Out;
}

/// AST nodes and arena bytes of \p Source after parsing it, and after
/// additionally placing confine? candidates.
struct NodeWindow {
  uint32_t ParseNodes = 0, PlacedNodes = 0;
  size_t ParseBytes = 0, PlacedBytes = 0;
};

NodeWindow measureWindow(const std::string &Source) {
  ASTContext Ctx;
  Diagnostics Diags;
  NodeWindow W;
  std::optional<Program> P = parse(Source, Ctx, Diags);
  W.ParseNodes = Ctx.numExprs();
  W.ParseBytes = Ctx.memoryUsed();
  if (P)
    placeConfines(Ctx, *P);
  W.PlacedNodes = Ctx.numExprs();
  W.PlacedBytes = Ctx.memoryUsed();
  return W;
}

void expectSameOutcome(const ModuleModeResult &Got,
                       const ModuleModeResult &Want, const std::string &Name) {
  EXPECT_EQ(Got.Ok, Want.Ok) << Name;
  EXPECT_TRUE(Got.Counts == Want.Counts) << Name;
  EXPECT_EQ(Got.Failure, Want.Failure) << Name;
  EXPECT_EQ(Got.FailedPhase, Want.FailedPhase) << Name;
  EXPECT_EQ(Got.Error, Want.Error) << Name;
}

struct Input {
  std::string Name;
  std::string Source;
};

/// The 589 generated modules followed by tests/fixtures/*.lna.
std::vector<Input> corpusAndFixtures() {
  std::vector<Input> Inputs;
  for (ModuleSpec &M : generateCorpus())
    Inputs.push_back({M.Name, std::move(M.Source)});
  std::vector<std::string> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(LNA_PARSE_ONCE_FIXTURE_DIR))
    if (Entry.path().extension() == ".lna")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  for (const std::string &F : Files) {
    std::ifstream In(F);
    std::ostringstream SS;
    SS << In.rdbuf();
    Inputs.push_back({F, SS.str()});
  }
  return Inputs;
}

class ParseOnceEquivalence
    : public ::testing::TestWithParam<AliasBackendKind> {};

TEST_P(ParseOnceEquivalence, CorpusAndFixturesMatchTwoSessionReference) {
  std::vector<Input> Inputs = corpusAndFixtures();
  ASSERT_EQ(Inputs.size(), 589u + 6u);
  unsigned Failed = 0;
  for (const Input &In : Inputs) {
    ModuleAnalysisOptions Opts;
    Opts.AliasBackend = GetParam();
    ModuleModeResult Got = analyzeModuleAllModes(In.Source, Opts);
    ModuleModeResult Want = twoSessionReference(In.Source, Opts);
    expectSameOutcome(Got, Want, In.Name);
    Failed += !Got.Ok;

    // One parse: the parse phase counts one copy of the module's nodes.
    EXPECT_EQ(Got.Stats.counter("parse", "ast-nodes"),
              measureWindow(In.Source).ParseNodes)
        << In.Name;
    // Every other counter is the reference's, phase by phase, in the
    // reference's phase order.
    ASSERT_EQ(Got.Stats.phases().size(), Want.Stats.phases().size())
        << In.Name;
    for (size_t I = 0; I < Want.Stats.phases().size(); ++I) {
      const PhaseStats &G = Got.Stats.phases()[I];
      const PhaseStats &W = Want.Stats.phases()[I];
      EXPECT_EQ(G.Name, W.Name) << In.Name;
      ASSERT_EQ(G.Counters.size(), W.Counters.size()) << In.Name;
      for (size_t C = 0; C < W.Counters.size(); ++C) {
        EXPECT_EQ(G.Counters[C].first, W.Counters[C].first) << In.Name;
        if (W.Name != "parse" || W.Counters[C].first != "ast-nodes") {
          EXPECT_EQ(G.Counters[C].second, W.Counters[C].second)
              << In.Name << ": " << W.Name << "/" << W.Counters[C].first;
        }
      }
    }
  }
  // The parse-error and type-error fixtures exercise the failure paths.
  EXPECT_EQ(Failed, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ParseOnceEquivalence,
    ::testing::Values(AliasBackendKind::Steensgaard,
                      AliasBackendKind::Andersen),
    [](const ::testing::TestParamInfo<AliasBackendKind> &Info) {
      return std::string(aliasBackendName(Info.param));
    });

/// Corpus modules whose confine? placement adds at least two nodes, so a
/// cap can sit strictly between the parse and parse + placement.
std::vector<Input> placingModules() {
  std::vector<Input> Out;
  for (ModuleSpec &M : generateCorpus()) {
    NodeWindow W = measureWindow(M.Source);
    if (W.PlacedNodes >= W.ParseNodes + 2)
      Out.push_back({M.Name, std::move(M.Source)});
    if (Out.size() == 24)
      break;
  }
  return Out;
}

TEST(ParseOnceBudget, AstNodeCapBetweenParseAndPlacementFailsInference) {
  std::vector<Input> Modules = placingModules();
  ASSERT_FALSE(Modules.empty());
  for (const Input &M : Modules) {
    NodeWindow W = measureWindow(M.Source);
    ModuleAnalysisOptions Opts;
    Opts.Limits.MaxAstNodes = (W.ParseNodes + W.PlacedNodes) / 2;
    ModuleModeResult Want = twoSessionReference(M.Source, Opts);
    ASSERT_EQ(Want.Failure, FailureKind::MemoryCap) << M.Name;
    ASSERT_EQ(Want.FailedPhase, "confine-placement") << M.Name;
    expectSameOutcome(analyzeModuleAllModes(M.Source, Opts), Want, M.Name);
  }
}

TEST(ParseOnceBudget, ArenaByteCapBetweenParseAndPlacementFailsInference) {
  std::vector<Input> Modules = placingModules();
  ASSERT_FALSE(Modules.empty());
  for (const Input &M : Modules) {
    NodeWindow W = measureWindow(M.Source);
    ModuleAnalysisOptions Opts;
    Opts.Limits.MaxMemoryBytes = (W.ParseBytes + W.PlacedBytes) / 2;
    ModuleModeResult Want = twoSessionReference(M.Source, Opts);
    ASSERT_EQ(Want.Failure, FailureKind::MemoryCap) << M.Name;
    ASSERT_EQ(Want.FailedPhase, "confine-placement") << M.Name;
    expectSameOutcome(analyzeModuleAllModes(M.Source, Opts), Want, M.Name);
  }
}

TEST(ParseOnceBudget, StepAndNodeCapSweepsMatchReference) {
  // Parse and placement charge no steps, and every run re-arms the step
  // count, so each mode fails (or not) at the same step as in its own
  // session; node caps sweep across the parse and placement alike.
  std::vector<Input> Modules = placingModules();
  Modules.resize(std::min<size_t>(Modules.size(), 6));
  for (const Input &M : Modules)
    for (uint64_t Cap = 1; Cap < 200000; Cap = Cap * 3 + 1) {
      ModuleAnalysisOptions Steps;
      Steps.Limits.MaxSteps = Cap;
      expectSameOutcome(analyzeModuleAllModes(M.Source, Steps),
                        twoSessionReference(M.Source, Steps), M.Name);
      ModuleAnalysisOptions Nodes;
      Nodes.Limits.MaxAstNodes = Cap;
      expectSameOutcome(analyzeModuleAllModes(M.Source, Nodes),
                        twoSessionReference(M.Source, Nodes), M.Name);
    }
}

} // namespace

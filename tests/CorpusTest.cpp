//===- CorpusTest.cpp - Driver corpus tests -------------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Validates the synthetic driver corpus: determinism, category structure,
// and -- via a parameterized sweep over all 589 modules -- that the real
// analysis reproduces each module's analytically predicted error counts
// in every mode. Every module is an end-to-end integration test. The
// checking counts are also rebuilt through the full check pipeline, which
// the session skips past typing on modules with no scope to check.
//
//===----------------------------------------------------------------------===//

#include "corpus/Experiment.h"
#include "lang/Parser.h"
#include "qual/LockAnalysis.h"

#include <gtest/gtest.h>

#include <memory>
#include <string_view>

using namespace lna;

namespace {

const std::vector<ModuleSpec> &corpus() {
  static const std::vector<ModuleSpec> C = generateCorpus();
  return C;
}

TEST(Corpus, Has589Modules) { EXPECT_EQ(corpus().size(), 589u); }

TEST(Corpus, GenerationIsDeterministic) {
  auto A = generateCorpus();
  auto B = generateCorpus();
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Name, B[I].Name);
    EXPECT_EQ(A[I].Source, B[I].Source);
    EXPECT_TRUE(A[I].Expected == B[I].Expected);
  }
}

TEST(Corpus, CategoryCountsMatchThePaper) {
  uint32_t Clean = 0, Buggy = 0, Rec = 0, Hard = 0;
  for (const ModuleSpec &M : corpus()) {
    switch (M.Category) {
    case ModuleCategory::Clean:
      ++Clean;
      break;
    case ModuleCategory::Buggy:
      ++Buggy;
      break;
    case ModuleCategory::Recoverable:
      ++Rec;
      break;
    case ModuleCategory::Hard:
      ++Hard;
      break;
    case ModuleCategory::External:
      FAIL() << "generated corpus contains an external module";
      break;
    }
  }
  EXPECT_EQ(Clean, 352u);
  EXPECT_EQ(Buggy, 85u);
  EXPECT_EQ(Rec, 138u);
  EXPECT_EQ(Hard, 14u);
}

TEST(Corpus, ExpectedCountsAreCategoryConsistent) {
  for (const ModuleSpec &M : corpus()) {
    const ModeCounts &E = M.Expected;
    switch (M.Category) {
    case ModuleCategory::Clean:
      EXPECT_EQ(E.NoConfine, 0u) << M.Name;
      break;
    case ModuleCategory::Buggy:
      EXPECT_GT(E.NoConfine, 0u) << M.Name;
      EXPECT_EQ(E.NoConfine, E.AllStrong) << M.Name;
      EXPECT_EQ(E.NoConfine, E.ConfineInference) << M.Name;
      break;
    case ModuleCategory::Recoverable:
      EXPECT_GT(E.NoConfine, 0u) << M.Name;
      EXPECT_EQ(E.ConfineInference, E.AllStrong) << M.Name;
      EXPECT_LT(E.AllStrong, E.NoConfine) << M.Name;
      break;
    case ModuleCategory::Hard:
      EXPECT_GT(E.ConfineInference, E.AllStrong) << M.Name;
      EXPECT_GE(E.NoConfine, E.ConfineInference) << M.Name;
      break;
    case ModuleCategory::External:
      FAIL() << "generated corpus contains an external module";
      break;
    }
  }
}

TEST(Corpus, HardModulesCarryFigure7Names) {
  std::set<std::string> Names;
  for (const ModuleSpec &M : corpus())
    if (M.Category == ModuleCategory::Hard)
      Names.insert(M.Name);
  for (const char *Expected :
       {"wavelan_cs", "trix", "netrom", "rose", "usb_ohci", "uhci", "sb",
        "ide_tape", "mad16", "emu10k1", "trident", "digi_acceleport", "sbni",
        "iph5526"})
    EXPECT_TRUE(Names.count(Expected)) << Expected;
}

TEST(Corpus, RecoverableBudgetIsExact) {
  uint64_t Sum = 0;
  for (const ModuleSpec &M : corpus())
    if (M.Category == ModuleCategory::Recoverable)
      Sum += M.Expected.NoConfine;
  EXPECT_EQ(Sum, 2774u);
}

TEST(Corpus, SingleModuleGeneratorIsDeterministic) {
  ModuleSpec A = generateModule(ModuleCategory::Recoverable, 7, 10);
  ModuleSpec B = generateModule(ModuleCategory::Recoverable, 7, 10);
  EXPECT_EQ(A.Source, B.Source);
  ModuleSpec C = generateModule(ModuleCategory::Recoverable, 8, 10);
  EXPECT_NE(A.Source, C.Source);
}

TEST(Corpus, SingleModuleGeneratorHonorsCategory) {
  EXPECT_EQ(generateModule(ModuleCategory::Clean, 1, 4).Expected.NoConfine,
            0u);
  ModuleSpec Bug = generateModule(ModuleCategory::Buggy, 2, 3);
  EXPECT_EQ(Bug.Expected.NoConfine, 3u);
  EXPECT_EQ(Bug.Expected.AllStrong, 3u);
  ModuleSpec Rec = generateModule(ModuleCategory::Recoverable, 3, 12);
  EXPECT_EQ(Rec.Expected.NoConfine, 12u);
  EXPECT_EQ(Rec.Expected.ConfineInference, 0u);
  ModuleSpec Hard = generateModule(ModuleCategory::Hard, 4, 5);
  EXPECT_EQ(Hard.Expected.NoConfine, 5u);
  EXPECT_EQ(Hard.Expected.ConfineInference, 5u);
  EXPECT_EQ(Hard.Expected.AllStrong, 0u);
}

//===----------------------------------------------------------------------===//
// Parallel experiment runner: job count must not affect results.
//===----------------------------------------------------------------------===//

TEST(Corpus, ParallelJobsProduceByteIdenticalResults) {
  // A slice with every category represented keeps this fast while still
  // exercising real cross-thread analysis work.
  std::vector<ModuleSpec> Slice;
  uint32_t PerCategory[4] = {0, 0, 0, 0};
  for (const ModuleSpec &M : corpus()) {
    uint32_t &N = PerCategory[static_cast<uint8_t>(M.Category)];
    if (N < 12) {
      ++N;
      Slice.push_back(M);
    }
  }

  ExperimentOptions Serial;
  Serial.Jobs = 1;
  ExperimentOptions Parallel;
  Parallel.Jobs = 4;
  CorpusSummary A = runCorpusExperiment(Slice, Serial);
  CorpusSummary B = runCorpusExperiment(Slice, Parallel);

  EXPECT_EQ(renderCorpusReport(A), renderCorpusReport(B));
  EXPECT_EQ(corpusReportJSON(A, /*IncludeTimings=*/false),
            corpusReportJSON(B, /*IncludeTimings=*/false));
  ASSERT_EQ(A.Modules.size(), B.Modules.size());
  for (size_t I = 0; I < A.Modules.size(); ++I) {
    EXPECT_EQ(A.Modules[I].Name, B.Modules[I].Name);
    EXPECT_TRUE(A.Modules[I].Actual == B.Modules[I].Actual)
        << A.Modules[I].Name;
  }
  EXPECT_TRUE(A.Totals == B.Totals);
}

// A fixed-seed deterministic fault hook defined in-tree: the corpus
// library only sees the abstract support-level FaultHook, so this test
// needs no dependency on the fuzz injector. Fails every Nth
// phase-boundary site it visits.
class EveryNthSiteFails final : public FaultHook {
public:
  explicit EveryNthSiteFails(uint64_t N) : N(N) {}
  void at(const char *Site) override {
    if (std::string_view(Site).substr(0, 6) == "alloc:")
      return;
    if (++Visits % N == 0)
      throw AnalysisAbort(FailureKind::InternalError,
                          std::string("synthetic fault at ") + Site);
  }

private:
  uint64_t N;
  uint64_t Visits = 0;
};

TEST(Corpus, FaultInjectedRunIsByteIdenticalAcrossJobs) {
  std::vector<ModuleSpec> Slice(corpus().begin(), corpus().begin() + 32);

  auto makeOptions = [](unsigned Jobs) {
    ExperimentOptions Opts;
    Opts.Jobs = Jobs;
    Opts.FaultSeed = 5;
    // Per-module hooks make the failure pattern a pure function of
    // (seed, module name), so the failing module set is independent of
    // scheduling. Retry is off so those failures stay in the report.
    Opts.RetryTransient = false;
    Opts.Faults = [](uint64_t Seed) {
      return std::make_unique<EveryNthSiteFails>(3 + Seed % 29);
    };
    return Opts;
  };

  CorpusSummary A = runCorpusExperiment(Slice, makeOptions(1));
  CorpusSummary B = runCorpusExperiment(Slice, makeOptions(4));

  EXPECT_GT(A.FailedModules, 0u); // the faults must actually bite
  EXPECT_EQ(renderCorpusReport(A), renderCorpusReport(B));
  EXPECT_EQ(corpusReportJSON(A, /*IncludeTimings=*/false),
            corpusReportJSON(B, /*IncludeTimings=*/false));
}

TEST(Corpus, ExperimentAggregatesPhaseStats) {
  std::vector<ModuleSpec> Slice(corpus().begin(), corpus().begin() + 8);
  CorpusSummary S = runCorpusExperiment(Slice);
  EXPECT_EQ(S.TotalModules, 8u);
  EXPECT_EQ(S.FailedModules, 0u);
  // Every module runs the check and infer pipelines plus lock analysis.
  EXPECT_GT(S.Stats.counter("parse", "ast-nodes"), 0u);
  EXPECT_GT(S.Stats.counter("typing", "locations"), 0u);
  EXPECT_GT(S.Stats.counter("effect-constraints", "constraints-generated"),
            0u);
  EXPECT_GT(S.Stats.counter("lock-analysis", "lock-sites"), 0u);
}

// The whole corpus at Jobs=1 generates and solves exactly this much: a
// change to how the constraint graph is stored or solved must leave these
// totals as they are, even where every report stays the same. (They do
// not depend on the order each variable's constraints are visited in;
// SolverTest's TiesFollowGenerationOrder pins that.)
TEST(Corpus, SolverCountersArePinned) {
  ExperimentOptions Opts;
  Opts.Jobs = 1;
  Opts.CollectMetrics = true;
  CorpusSummary S = runCorpusExperiment(corpus(), Opts);
  ASSERT_EQ(S.FailedModules, 0u);
  EXPECT_EQ(S.Stats.counter("effect-constraints", "effect-vars"), 95845u);
  EXPECT_EQ(S.Stats.counter("effect-constraints", "constraints-generated"),
            104234u);
  EXPECT_EQ(S.Stats.counter("effect-constraints", "intersections"), 4791u);
  EXPECT_EQ(S.Stats.counter("inference", "cond-firings"), 5259u);
  EXPECT_EQ(S.Stats.counter("inference", "propagated-elems"), 178645u);
  EXPECT_EQ(S.Stats.counter("inference", "solver-rounds"), 1587u);
  // No corpus module has a scope to check.
  EXPECT_EQ(S.Stats.counter("check-sat", "checksat-queries"), 0u);

  const Histogram *Degree = S.Metrics.findHistogram("constraint-out-degree");
  ASSERT_NE(Degree, nullptr);
  EXPECT_EQ(Degree->count(), 95845u);
  EXPECT_EQ(Degree->sum(), 116757u);
  EXPECT_EQ(Degree->max(), 350u);
  const std::pair<unsigned, uint64_t> Buckets[] = {
      {0, 9182}, {1, 79683}, {2, 4982}, {3, 1218}, {4, 532},
      {5, 126},  {6, 71},    {7, 37},   {8, 12},   {9, 2}};
  for (auto [B, N] : Buckets)
    EXPECT_EQ(Degree->buckets()[B], N) << "bucket " << B;
  const Histogram *SetSize = S.Metrics.findHistogram("effect-set-size");
  ASSERT_NE(SetSize, nullptr);
  EXPECT_EQ(SetSize->count(), 95845u);
  EXPECT_EQ(SetSize->sum(), 178516u);
}

TEST(Corpus, ReportJSONOmitsTimingsOnRequest) {
  std::vector<ModuleSpec> Slice(corpus().begin(), corpus().begin() + 2);
  CorpusSummary S = runCorpusExperiment(Slice);
  std::string With = corpusReportJSON(S, /*IncludeTimings=*/true);
  std::string Without = corpusReportJSON(S, /*IncludeTimings=*/false);
  EXPECT_NE(With.find("\"phases\""), std::string::npos);
  EXPECT_EQ(Without.find("\"phases\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The checking run's k = 0 skip is unobservable on the corpus.
//===----------------------------------------------------------------------===//

struct CheckCounts {
  uint32_t NoConfine = 0;
  uint32_t AllStrong = 0;
  bool HasScopes = false;
  bool ChecksOk = false;
};

/// The annotation-checking mode built from public calls, effect
/// constraints and CHECK-SAT included, whatever the module's scopes.
std::optional<CheckCounts> fullCheckPipeline(const std::string &Source,
                                             AliasBackendKind Backend) {
  ASTContext Ctx;
  Diagnostics Diags;
  std::optional<Program> Parsed = parse(Source, Ctx, Diags);
  if (!Parsed)
    return std::nullopt;
  PipelineResult R;
  R.State = std::make_unique<AnalysisState>();
  R.State->selectAliasBackend(Backend);
  R.Analyzed = std::move(*Parsed);
  TypeChecker TC(Ctx, R.State->Types, Diags);
  std::optional<AliasResult> Alias = TC.check(R.Analyzed, TypeCheckOptions{});
  if (!Alias)
    return std::nullopt;
  R.Alias = std::move(*Alias);
  R.State->AA->prepare();
  PipelineOptions Defaults;
  EffectInferenceOptions EffOpts;
  EffOpts.ApplyDown = Defaults.ApplyDown;
  EffOpts.LiberalRestrictEffect = Defaults.LiberalRestrictEffect;
  EffectInference EI(Ctx, R.Analyzed, R.Alias, R.State->Types, R.State->CS,
                     EffOpts);
  R.Eff = EI.run();
  R.Checks = checkRestricts(Ctx, R.Alias, R.Eff, R.State->CS, R.State->Types,
                            *R.State->AA);

  CheckCounts Out;
  Out.HasScopes = hasScopesToCheck(R.Alias);
  Out.ChecksOk = R.Checks.ok();
  Out.NoConfine = analyzeLocks(Ctx, R).numErrors();
  LockAnalysisOptions Strong;
  Strong.AllStrong = true;
  Out.AllStrong = analyzeLocks(Ctx, R, Strong).numErrors();
  return Out;
}

class CheckPipelineSweep
    : public ::testing::TestWithParam<AliasBackendKind> {};

TEST_P(CheckPipelineSweep, FullCheckPipelineMatchesAllModesCounts) {
  ModuleAnalysisOptions Opts;
  Opts.AliasBackend = GetParam();
  for (const ModuleSpec &M : corpus()) {
    std::optional<CheckCounts> Full = fullCheckPipeline(M.Source, GetParam());
    ModuleModeResult R = analyzeModuleAllModes(M.Source, Opts);
    ASSERT_TRUE(Full && R.Ok) << M.Name << "\n" << R.Error;
    // No corpus module has a scope, so every session run here stopped
    // after typing; the full pipeline must agree on everything it reads.
    EXPECT_FALSE(Full->HasScopes) << M.Name;
    EXPECT_TRUE(Full->ChecksOk) << M.Name;
    EXPECT_EQ(Full->NoConfine, R.Counts.NoConfine) << M.Name;
    EXPECT_EQ(Full->AllStrong, R.Counts.AllStrong) << M.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, CheckPipelineSweep,
                         ::testing::Values(AliasBackendKind::Steensgaard,
                                           AliasBackendKind::Andersen),
                         [](const auto &Info) {
                           return std::string(aliasBackendName(Info.param));
                         });

//===----------------------------------------------------------------------===//
// The full sweep: every module's analysis matches its prediction.
//===----------------------------------------------------------------------===//

class ModuleSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ModuleSweep, AnalysisMatchesPrediction) {
  const ModuleSpec &M = corpus()[GetParam()];
  ModuleModeResult R = analyzeModuleAllModes(M.Source);
  ASSERT_TRUE(R.Ok) << M.Name << "\n" << R.Error;
  EXPECT_EQ(R.Counts.NoConfine, M.Expected.NoConfine) << M.Name;
  EXPECT_EQ(R.Counts.ConfineInference, M.Expected.ConfineInference) << M.Name;
  EXPECT_EQ(R.Counts.AllStrong, M.Expected.AllStrong) << M.Name;
}

std::string moduleSweepName(const ::testing::TestParamInfo<uint32_t> &Info) {
  return corpus()[Info.param].Name;
}

INSTANTIATE_TEST_SUITE_P(AllModules, ModuleSweep,
                         ::testing::Range(0u, 589u), moduleSweepName);

} // namespace

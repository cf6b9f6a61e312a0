//===- RobustnessTest.cpp - Resource governance & fault isolation ---------===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The robustness suite: resource budgets (support/Budget.h), typed abort
// containment at session phase boundaries (core/Session.h), the seeded
// fault injector (fuzz/FaultInjector.h), and the fault-isolated corpus
// runner with retry and checkpoint resume (corpus/Experiment.h).
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "corpus/Experiment.h"
#include "fuzz/FaultInjector.h"
#include "fuzz/Fuzzer.h"
#include "qual/LockAnalysis.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

using namespace lna;

namespace {

/// A small clean program exercising every pipeline phase.
const char *DemoSource = R"(
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

std::string tempPath(const char *Name) {
  return testing::TempDir() + Name;
}

//===----------------------------------------------------------------------===//
// ResourceBudget
//===----------------------------------------------------------------------===//

TEST(Budget, StepCapIsExact) {
  ResourceBudget B;
  ResourceLimits L;
  L.MaxSteps = 10;
  B.arm(L);
  B.step(5);
  B.step(5); // exactly at the cap: fine
  try {
    B.step(1);
    FAIL() << "expected AnalysisAbort";
  } catch (const AnalysisAbort &A) {
    EXPECT_EQ(A.kind(), FailureKind::StepCap);
    EXPECT_NE(std::string(A.what()).find("10"), std::string::npos);
  }
}

TEST(Budget, DisarmedBudgetIgnoresEverything) {
  ResourceBudget B;
  B.arm(ResourceLimits{}); // all-zero = unlimited
  EXPECT_FALSE(B.armed());
  B.step(1000000);
  B.noteAstNode();
  B.checkNow();
}

TEST(Budget, ExpiredDeadlineThrowsOnCheckNow) {
  ResourceBudget B;
  ResourceLimits L;
  L.TimeoutMillis = 1;
  B.arm(L);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_THROW(B.checkNow(), AnalysisAbort);
}

TEST(Budget, AstNodeCapReportsMemoryKind) {
  ResourceBudget B;
  ResourceLimits L;
  L.MaxAstNodes = 3;
  B.arm(L);
  B.noteAstNode();
  B.noteAstNode();
  B.noteAstNode();
  try {
    B.noteAstNode();
    FAIL() << "expected AnalysisAbort";
  } catch (const AnalysisAbort &A) {
    EXPECT_EQ(A.kind(), FailureKind::MemoryCap);
  }
}

TEST(Budget, ScopeInstallsAndRestoresThreadLocal) {
  EXPECT_EQ(currentBudget(), nullptr);
  ResourceBudget Outer, Inner;
  {
    BudgetScope S1(Outer);
    EXPECT_EQ(currentBudget(), &Outer);
    {
      BudgetScope S2(Inner);
      EXPECT_EQ(currentBudget(), &Inner);
    }
    EXPECT_EQ(currentBudget(), &Outer);
  }
  EXPECT_EQ(currentBudget(), nullptr);
  budgetStep(1000); // no budget installed: must be a no-op
}

TEST(Budget, FailureKindNamesRoundTrip) {
  EXPECT_STREQ(failureKindName(FailureKind::Timeout), "timeout");
  EXPECT_STREQ(failureKindName(FailureKind::MemoryCap), "memory-cap");
  EXPECT_STREQ(failureKindName(FailureKind::StepCap), "step-cap");
  EXPECT_STREQ(failureKindName(FailureKind::ParseError), "parse-error");
  EXPECT_STREQ(failureKindName(FailureKind::TypeError), "type-error");
  EXPECT_STREQ(failureKindName(FailureKind::InternalError),
               "internal-error");
}

//===----------------------------------------------------------------------===//
// Session phase-boundary containment
//===----------------------------------------------------------------------===//

TEST(SessionGovernance, StepCapAbortsWithStructuredFailure) {
  PipelineOptions Opts;
  Opts.Limits.MaxSteps = 1;
  AnalysisSession S(Opts);
  EXPECT_FALSE(S.run(DemoSource));
  ASSERT_TRUE(S.failure().has_value());
  EXPECT_EQ(S.failure()->Kind, FailureKind::StepCap);
  EXPECT_FALSE(S.failure()->Phase.empty());
  EXPECT_FALSE(S.hasResult());
  // Stats up to the failing phase survive: parse ran to completion.
  EXPECT_NE(S.stats().renderText().find("parse"), std::string::npos);
}

TEST(SessionGovernance, AstNodeCapAbortsDuringParse) {
  PipelineOptions Opts;
  Opts.Limits.MaxAstNodes = 3;
  AnalysisSession S(Opts);
  EXPECT_FALSE(S.run(DemoSource));
  ASSERT_TRUE(S.failure().has_value());
  EXPECT_EQ(S.failure()->Kind, FailureKind::MemoryCap);
  EXPECT_EQ(S.failure()->Phase, "parse");
}

TEST(SessionGovernance, ArenaByteCapAbortsWithMemoryKind) {
  PipelineOptions Opts;
  Opts.Limits.MaxMemoryBytes = 256; // a few AST nodes at most
  AnalysisSession S(Opts);
  EXPECT_FALSE(S.run(DemoSource));
  ASSERT_TRUE(S.failure().has_value());
  EXPECT_EQ(S.failure()->Kind, FailureKind::MemoryCap);
}

TEST(SessionGovernance, ParseErrorsAreCategorized) {
  AnalysisSession S{PipelineOptions{}};
  EXPECT_FALSE(S.run("fun f( ="));
  ASSERT_TRUE(S.failure().has_value());
  EXPECT_EQ(S.failure()->Kind, FailureKind::ParseError);
  EXPECT_EQ(S.failure()->Phase, "parse");
}

TEST(SessionGovernance, TypeErrorsAreCategorized) {
  AnalysisSession S{PipelineOptions{}};
  EXPECT_FALSE(S.run("fun main() : int { *3 }"));
  ASSERT_TRUE(S.failure().has_value());
  EXPECT_EQ(S.failure()->Kind, FailureKind::TypeError);
  EXPECT_EQ(S.failure()->Phase, "typing");
}

TEST(SessionGovernance, SuccessClearsPriorFailure) {
  PipelineOptions Limited;
  Limited.Limits.MaxSteps = 1;
  AnalysisSession S1(Limited);
  EXPECT_FALSE(S1.run(DemoSource));
  EXPECT_TRUE(S1.failure().has_value());

  AnalysisSession S2{PipelineOptions{}};
  EXPECT_TRUE(S2.run(DemoSource));
  EXPECT_FALSE(S2.failure().has_value());
  EXPECT_TRUE(S2.hasResult());
}

TEST(SessionGovernance, InjectedInternalErrorIsContained) {
  FaultSpec Spec;
  Spec.InternalPpm = 1000000; // certain at the first phase boundary
  FaultInjector Injector(Spec);
  FaultHookScope Hook(Injector);
  AnalysisSession S{PipelineOptions{}};
  EXPECT_FALSE(S.run(DemoSource));
  ASSERT_TRUE(S.failure().has_value());
  EXPECT_EQ(S.failure()->Kind, FailureKind::InternalError);
  EXPECT_EQ(S.failure()->Phase, "parse");
  EXPECT_NE(S.failure()->Message.find("injected fault"), std::string::npos);
}

TEST(SessionGovernance, InjectedBadAllocBecomesMemoryCap) {
  FaultSpec Spec;
  Spec.BadAllocPpm = 1000000; // certain at the first arena allocation
  FaultInjector Injector(Spec);
  FaultHookScope Hook(Injector);
  AnalysisSession S{PipelineOptions{}};
  EXPECT_FALSE(S.run(DemoSource));
  ASSERT_TRUE(S.failure().has_value());
  EXPECT_EQ(S.failure()->Kind, FailureKind::MemoryCap);
  EXPECT_GT(Injector.injectedBadAllocs(), 0u);
}

TEST(SessionGovernance, InjectedDelayTripsTightDeadline) {
  FaultSpec Spec;
  Spec.DelayPpm = 1000000;
  Spec.DelayMillis = 10;
  FaultInjector Injector(Spec);
  FaultHookScope Hook(Injector);
  PipelineOptions Opts;
  Opts.Limits.TimeoutMillis = 1;
  AnalysisSession S(Opts);
  EXPECT_FALSE(S.run(DemoSource));
  ASSERT_TRUE(S.failure().has_value());
  EXPECT_EQ(S.failure()->Kind, FailureKind::Timeout);
  EXPECT_GT(Injector.injectedDelays(), 0u);
}

TEST(SessionGovernance, LockPhaseAbortLandsInSessionFailure) {
  AnalysisSession S{PipelineOptions{}};
  ASSERT_TRUE(S.run(DemoSource));
  EXPECT_FALSE(S.failure().has_value());
  // Inject only for the lock phase: the analysis ran clean, so the
  // fault fires at the lock phase's own boundary and must land in the
  // session failure rather than escaping analyzeLocks().
  FaultSpec Spec;
  Spec.InternalPpm = 1000000;
  FaultInjector Injector(Spec);
  FaultHookScope Hook(Injector);
  analyzeLocks(S, {});
  ASSERT_TRUE(S.failure().has_value());
  EXPECT_EQ(S.failure()->Phase, "lock-analysis");
  EXPECT_EQ(S.failure()->Kind, FailureKind::InternalError);
}

//===----------------------------------------------------------------------===//
// Fault spec parsing
//===----------------------------------------------------------------------===//

TEST(FaultSpec, ParsesFullSpec) {
  FaultSpec S;
  std::string Error;
  ASSERT_TRUE(parseFaultSpec(
      "seed=42,bad-alloc=100,internal=2000,delay=30,delay-ms=7", S, Error))
      << Error;
  EXPECT_EQ(S.Seed, 42u);
  EXPECT_EQ(S.BadAllocPpm, 100u);
  EXPECT_EQ(S.InternalPpm, 2000u);
  EXPECT_EQ(S.DelayPpm, 30u);
  EXPECT_EQ(S.DelayMillis, 7u);
  EXPECT_TRUE(S.any());
}

TEST(FaultSpec, DefaultsAreInert) {
  FaultSpec S;
  std::string Error;
  ASSERT_TRUE(parseFaultSpec("seed=9", S, Error));
  EXPECT_FALSE(S.any());
}

TEST(FaultSpec, RejectsMalformedInput) {
  FaultSpec S;
  std::string Error;
  EXPECT_FALSE(parseFaultSpec("bad-alloc", S, Error));
  EXPECT_FALSE(parseFaultSpec("bad-alloc=1x", S, Error));
  EXPECT_FALSE(parseFaultSpec("unknown-key=1", S, Error));
  EXPECT_FALSE(parseFaultSpec("internal=1000001", S, Error)); // > 1e6 ppm
  EXPECT_NE(Error.find("1000000"), std::string::npos);
}

TEST(FaultSpec, InjectorSequenceIsSeedDeterministic) {
  FaultSpec Spec;
  Spec.Seed = 123;
  Spec.BadAllocPpm = 500000;
  auto Fire = [&](uint64_t Seed) {
    FaultSpec S = Spec;
    S.Seed = Seed;
    FaultInjector Inj(S);
    std::string Pattern;
    for (int I = 0; I < 64; ++I) {
      try {
        Inj.at("alloc:arena");
        Pattern += '.';
      } catch (const std::bad_alloc &) {
        Pattern += 'X';
      }
    }
    return Pattern;
  };
  EXPECT_EQ(Fire(123), Fire(123));
  EXPECT_NE(Fire(123), Fire(124));
}

TEST(FaultSpec, InternalFaultsNeverFireAtAllocSites) {
  FaultSpec Spec;
  Spec.InternalPpm = 1000000;
  FaultInjector Inj(Spec);
  for (int I = 0; I < 1000; ++I)
    Inj.at("alloc:arena"); // must not throw
  EXPECT_THROW(Inj.at("typing"), AnalysisAbort);
}

//===----------------------------------------------------------------------===//
// Fault-isolated corpus runs
//===----------------------------------------------------------------------===//

ExperimentOptions faultedOptions(uint32_t InternalPpm, uint32_t BadAllocPpm) {
  ExperimentOptions Opts;
  Opts.FaultSeed = 7;
  Opts.Faults = [=](uint64_t Seed) {
    FaultSpec Spec;
    Spec.Seed = Seed;
    Spec.InternalPpm = InternalPpm;
    Spec.BadAllocPpm = BadAllocPpm;
    return std::make_unique<FaultInjector>(Spec);
  };
  return Opts;
}

std::vector<ModuleSpec> corpusSlice(size_t N) {
  std::vector<ModuleSpec> Corpus = generateCorpus();
  Corpus.resize(N);
  return Corpus;
}

TEST(CorpusRobustness, InjectedFailuresAreCategorizedNotFatal) {
  std::vector<ModuleSpec> Corpus = corpusSlice(24);
  ExperimentOptions Opts = faultedOptions(/*InternalPpm=*/200000,
                                          /*BadAllocPpm=*/100);
  Opts.RetryTransient = false;
  CorpusSummary S = runCorpusExperiment(Corpus, Opts);
  EXPECT_EQ(S.TotalModules, 24u);
  EXPECT_GT(S.FailedModules, 0u);
  uint64_t ByKind = 0;
  for (unsigned K = 0; K < NumFailureKinds; ++K)
    ByKind += S.FailuresByKind[K];
  EXPECT_EQ(ByKind, S.FailedModules);
  EXPECT_EQ(S.FailuresByKind[static_cast<unsigned>(FailureKind::None)], 0u);
  for (const ModuleResult &M : S.Modules)
    if (!M.Ok) {
      EXPECT_NE(M.Failure, FailureKind::None) << M.Name;
    }
}

TEST(CorpusRobustness, FaultedRunIsByteIdenticalAcrossJobs) {
  std::vector<ModuleSpec> Corpus = corpusSlice(32);
  ExperimentOptions Opts = faultedOptions(/*InternalPpm=*/50000,
                                          /*BadAllocPpm=*/50);
  CorpusSummary S1 = runCorpusExperiment(Corpus, Opts);
  Opts.Jobs = 4;
  CorpusSummary S4 = runCorpusExperiment(Corpus, Opts);
  EXPECT_GT(S1.FailedModules, 0u); // the run must actually exercise faults
  EXPECT_EQ(renderCorpusReport(S1), renderCorpusReport(S4));
  EXPECT_EQ(corpusReportJSON(S1, /*IncludeTimings=*/false),
            corpusReportJSON(S4, /*IncludeTimings=*/false));
}

TEST(CorpusRobustness, TransientFailuresRetryAndRecover) {
  std::vector<ModuleSpec> Corpus = corpusSlice(40);
  ExperimentOptions Opts = faultedOptions(/*InternalPpm=*/30000,
                                          /*BadAllocPpm=*/0);
  CorpusSummary S = runCorpusExperiment(Corpus, Opts);
  EXPECT_GT(S.RetriedModules, 0u);
  EXPECT_GT(S.RecoveredOnRetry, 0u);
  EXPECT_LE(S.RecoveredOnRetry, S.RetriedModules);
  // A retried module that still failed must have failed on the retry's
  // own draws too; either way its row is categorized.
  for (const ModuleResult &M : S.Modules)
    if (M.Retried && !M.Ok) {
      EXPECT_EQ(M.Failure, FailureKind::InternalError) << M.Name;
    }
}

namespace {

/// Fails at the first effect-constraints phase boundary when armed:
/// deep enough into the pipeline that the aborted attempt has already
/// accumulated parse/typing stats, metrics, and trace spans -- exactly
/// the state a retry must discard.
class FailFirstAttempt final : public FaultHook {
public:
  explicit FailFirstAttempt(bool Fire) : Fire(Fire) {}
  void at(const char *Site) override {
    if (Fire && std::string_view(Site) == "effect-constraints")
      throw AnalysisAbort(FailureKind::InternalError,
                          "synthetic first-attempt fault");
  }

private:
  bool Fire;
};

/// Options whose fault hook fires on exactly the first attempt of every
/// module in \p Corpus: every module retries once and recovers.
ExperimentOptions failFirstOptions(const std::vector<ModuleSpec> &Corpus) {
  ExperimentOptions Opts;
  Opts.FaultSeed = 11;
  std::set<uint64_t> FirstAttemptSeeds;
  for (const ModuleSpec &M : Corpus)
    FirstAttemptSeeds.insert(moduleFaultSeed(Opts.FaultSeed, M.Name, 0));
  Opts.Faults = [FirstAttemptSeeds](uint64_t Seed) {
    return std::make_unique<FailFirstAttempt>(FirstAttemptSeeds.count(Seed) !=
                                              0);
  };
  return Opts;
}

} // namespace

TEST(CorpusRobustness, RetriedModuleStatsCountOnlyTheKeptAttempt) {
  // Regression: the aborted first attempt's phase counters and wall-time
  // samples must not leak into the aggregates -- a run where every
  // module retried once reports the same deterministic stats as a clean
  // run.
  std::vector<ModuleSpec> Corpus = corpusSlice(6);
  CorpusSummary Clean = runCorpusExperiment(Corpus, ExperimentOptions{});
  CorpusSummary Retried =
      runCorpusExperiment(Corpus, failFirstOptions(Corpus));
  ASSERT_EQ(Retried.RetriedModules, 6u);
  ASSERT_EQ(Retried.RecoveredOnRetry, 6u);
  EXPECT_EQ(Retried.FailedModules, 0u);
  EXPECT_EQ(Retried.Stats.counter("parse", "ast-nodes"),
            Clean.Stats.counter("parse", "ast-nodes"));
  EXPECT_EQ(Retried.Stats.counter("typing", "locations"),
            Clean.Stats.counter("typing", "locations"));
  EXPECT_EQ(Retried.Stats.counter("typing", "unifications"),
            Clean.Stats.counter("typing", "unifications"));
  // The per-phase wall-time sample streams must be structurally the
  // same: one sample per module per phase, kept attempt only.
  ASSERT_EQ(Retried.PhaseTimes.size(), Clean.PhaseTimes.size());
  for (size_t I = 0; I < Clean.PhaseTimes.size(); ++I) {
    EXPECT_EQ(Retried.PhaseTimes[I].first, Clean.PhaseTimes[I].first);
    EXPECT_EQ(Retried.PhaseTimes[I].second.size(),
              Clean.PhaseTimes[I].second.size());
  }
}

TEST(CorpusRobustness, RetryDisabledReportsTransientsDirectly) {
  std::vector<ModuleSpec> Corpus = corpusSlice(24);
  ExperimentOptions Opts = faultedOptions(/*InternalPpm=*/100000,
                                          /*BadAllocPpm=*/0);
  Opts.RetryTransient = false;
  CorpusSummary S = runCorpusExperiment(Corpus, Opts);
  EXPECT_EQ(S.RetriedModules, 0u);
  EXPECT_GT(
      S.FailuresByKind[static_cast<unsigned>(FailureKind::InternalError)],
      0u);
}

TEST(CorpusRobustness, UnloadableModulesBecomeParseErrorRows) {
  std::vector<ModuleSpec> Corpus;
  Corpus.push_back(loadModuleFile("/nonexistent/module.lna"));
  ModuleSpec Empty;
  Empty.Name = "empty";
  Empty.Category = ModuleCategory::External;
  Empty.LoadError = "empty module file";
  Corpus.push_back(Empty);
  CorpusSummary S = runCorpusExperiment(Corpus, ExperimentOptions{});
  EXPECT_EQ(S.FailedModules, 2u);
  EXPECT_EQ(S.FailuresByKind[static_cast<unsigned>(FailureKind::ParseError)],
            2u);
  EXPECT_EQ(S.Modules[0].Category, ModuleCategory::External);
}

//===----------------------------------------------------------------------===//
// Checkpoint journaling and resume
//===----------------------------------------------------------------------===//

TEST(CorpusRobustness, CheckpointResumeMatchesUninterruptedRun) {
  std::string Journal = tempPath("lna_ckpt_resume.txt");
  std::remove(Journal.c_str());

  std::vector<ModuleSpec> Full = corpusSlice(20);
  std::vector<ModuleSpec> Half(Full.begin(), Full.begin() + 10);

  ExperimentOptions Opts = faultedOptions(/*InternalPpm=*/50000,
                                          /*BadAllocPpm=*/50);
  Opts.CheckpointFile = Journal;

  // "Killed" run: only half the corpus completes and is journaled.
  CorpusSummary Partial = runCorpusExperiment(Half, Opts);
  EXPECT_EQ(Partial.ResumedModules, 0u);

  // Resume over the full corpus: the first half restores from the
  // journal, and the final report matches a fresh uninterrupted run.
  CorpusSummary Resumed = runCorpusExperiment(Full, Opts);
  EXPECT_EQ(Resumed.ResumedModules, 10u);

  ExperimentOptions Fresh = faultedOptions(/*InternalPpm=*/50000,
                                           /*BadAllocPpm=*/50);
  CorpusSummary Baseline = runCorpusExperiment(Full, Fresh);
  EXPECT_EQ(Baseline.ResumedModules, 0u);
  EXPECT_EQ(renderCorpusReport(Resumed), renderCorpusReport(Baseline));
  EXPECT_EQ(corpusReportJSON(Resumed, /*IncludeTimings=*/false),
            corpusReportJSON(Baseline, /*IncludeTimings=*/false));
  std::remove(Journal.c_str());
}

TEST(CorpusRobustness, CheckpointResumeKeepsMetrics) {
  // Regression: journal rows once carried only the counts, so a resumed
  // metrics run merged empty registries for every restored module.
  std::string Journal = tempPath("lna_ckpt_metrics.txt");
  std::remove(Journal.c_str());
  std::vector<ModuleSpec> Full = corpusSlice(16);
  std::vector<ModuleSpec> Half(Full.begin(), Full.begin() + 8);
  ExperimentOptions Opts;
  Opts.CollectMetrics = true;
  Opts.CheckpointFile = Journal;
  (void)runCorpusExperiment(Half, Opts);
  CorpusSummary Resumed = runCorpusExperiment(Full, Opts);
  EXPECT_EQ(Resumed.ResumedModules, 8u);

  ExperimentOptions Fresh;
  Fresh.CollectMetrics = true;
  CorpusSummary Baseline = runCorpusExperiment(Full, Fresh);
  EXPECT_EQ(Resumed.Metrics.renderJSON(), Baseline.Metrics.renderJSON());
  EXPECT_EQ(renderCorpusReport(Resumed), renderCorpusReport(Baseline));
  // Restored rows add nothing to the timing-bearing sections.
  EXPECT_LT(Resumed.PhaseTimes.front().second.size(),
            Baseline.PhaseTimes.front().second.size());
  std::remove(Journal.c_str());
}

TEST(CorpusRobustness, ResumedRowsWithoutMetricsCannotServeAMetricsRun) {
  std::string Journal = tempPath("lna_ckpt_nometrics.txt");
  std::remove(Journal.c_str());
  std::vector<ModuleSpec> Corpus = corpusSlice(4);
  ExperimentOptions Opts;
  Opts.CheckpointFile = Journal;
  (void)runCorpusExperiment(Corpus, Opts);
  // Rows written without metrics are re-analyzed by a metrics run ...
  Opts.CollectMetrics = true;
  CorpusSummary WithMetrics = runCorpusExperiment(Corpus, Opts);
  EXPECT_EQ(WithMetrics.ResumedModules, 0u);
  EXPECT_FALSE(WithMetrics.Metrics.empty());
  // ... whose rows (with metrics) then serve both kinds of run, dropping
  // the metrics for the run that did not ask for them.
  EXPECT_EQ(runCorpusExperiment(Corpus, Opts).ResumedModules, 4u);
  Opts.CollectMetrics = false;
  CorpusSummary Plain = runCorpusExperiment(Corpus, Opts);
  EXPECT_EQ(Plain.ResumedModules, 4u);
  EXPECT_TRUE(Plain.Metrics.empty());
  std::remove(Journal.c_str());
}

/// Hand-writes one checkpoint journal row: the length-framed name and
/// digest, then the outcome record as the journal persists it.
std::string journalRow(const std::string &Name, const std::string &Digest,
                       const ModuleOutcome &O) {
  std::string Row = "checkpoint ";
  Row += std::to_string(Name.size());
  Row += ' ';
  Row += std::to_string(Digest.size());
  Row += '\n';
  Row += Name;
  Row += Digest;
  Row += serializeModuleOutcome(O, 0, /*WithMetrics=*/false,
                                /*WithStats=*/false);
  return Row;
}

ModuleOutcome forgedOutcome(uint32_t NC, uint32_t CI, uint32_t AS) {
  ModuleOutcome O;
  O.R.Ok = true;
  O.R.Counts = {NC, CI, AS};
  return O;
}

TEST(CorpusRobustness, CheckpointRowsWithFreshDigestRestoreWithoutRecompute) {
  std::string Journal = tempPath("lna_ckpt_trust.txt");
  std::vector<ModuleSpec> Corpus = corpusSlice(2);
  ExperimentOptions Opts;
  Opts.CheckpointFile = Journal;
  {
    // A forged journal row with counts no real analysis would produce,
    // but carrying the module's true content digest: if the counts show
    // up verbatim, the module was restored, not re-run.
    std::ofstream Out(Journal, std::ios::binary | std::ios::trunc);
    Out << journalRow(Corpus[0].Name, moduleContentDigest(Corpus[0], Opts),
                      forgedOutcome(77, 66, 55));
  }
  CorpusSummary S = runCorpusExperiment(Corpus, Opts);
  EXPECT_EQ(S.ResumedModules, 1u);
  EXPECT_EQ(S.Modules[0].Actual.NoConfine, 77u);
  EXPECT_EQ(S.Modules[0].Actual.ConfineInference, 66u);
  EXPECT_EQ(S.Modules[0].Actual.AllStrong, 55u);
  std::remove(Journal.c_str());
}

TEST(CorpusRobustness, CheckpointRowsWithStaleDigestAreReanalyzed) {
  // Regression: a module whose source changed between the kill and the
  // resume must be re-analyzed, not restored from the stale journal row.
  std::string Journal = tempPath("lna_ckpt_stale.txt");
  std::remove(Journal.c_str());
  std::vector<ModuleSpec> Corpus = corpusSlice(2);
  ExperimentOptions Opts;
  Opts.CheckpointFile = Journal;
  CorpusSummary First = runCorpusExperiment(Corpus, Opts);
  EXPECT_EQ(First.ResumedModules, 0u);

  // Mutate one module: prepend a statement that adds a type error to
  // every mode. The other module's journal row stays fresh.
  std::vector<ModuleSpec> Mutated = Corpus;
  Mutated[0].Source = "var mutated : int;\nfun mutated_clash() { "
                      "mutated(1) }\n" +
                      Mutated[0].Source;
  CorpusSummary Resumed = runCorpusExperiment(Mutated, Opts);
  EXPECT_EQ(Resumed.ResumedModules, 1u); // only the unchanged module
  CorpusSummary Fresh = runCorpusExperiment(Mutated, ExperimentOptions{});
  EXPECT_EQ(renderCorpusReport(Resumed), renderCorpusReport(Fresh));
  EXPECT_EQ(corpusReportJSON(Resumed, /*IncludeTimings=*/false),
            corpusReportJSON(Fresh, /*IncludeTimings=*/false));
  std::remove(Journal.c_str());
}

TEST(CorpusRobustness, CheckpointDigestChangesWithOptions) {
  std::vector<ModuleSpec> Corpus = corpusSlice(1);
  ExperimentOptions A;
  ExperimentOptions B;
  B.Limits.MaxSteps = 12345;
  EXPECT_EQ(moduleContentDigest(Corpus[0], A),
            moduleContentDigest(Corpus[0], A));
  EXPECT_NE(moduleContentDigest(Corpus[0], A),
            moduleContentDigest(Corpus[0], B));
}

TEST(CorpusRobustness, MalformedJournalLinesAreSkipped) {
  std::string Journal = tempPath("lna_ckpt_torn.txt");
  std::vector<ModuleSpec> Corpus = corpusSlice(3);
  ExperimentOptions Opts;
  Opts.CheckpointFile = Journal;
  std::string Report = renderCorpusReport(runCorpusExperiment(Corpus, {}));
  auto OldFormatRow = [&](size_t I) {
    return Corpus[I].Name + "\t" + moduleContentDigest(Corpus[I], Opts) +
           "\tok\t0\t1\t1\t1\tend\n";
  };
  auto Resume = [&](const std::string &Bytes) {
    {
      std::ofstream Out(Journal, std::ios::binary | std::ios::trunc);
      Out << Bytes;
    }
    CorpusSummary S = runCorpusExperiment(Corpus, Opts);
    EXPECT_EQ(S.FailedModules, 0u);
    EXPECT_EQ(renderCorpusReport(S), Report);
    return S.ResumedModules;
  };

  // A journal in the old tab-separated format, with fresh digests, and
  // plain garbage: every module re-analyzes, none is misparsed.
  EXPECT_EQ(Resume(OldFormatRow(0) + OldFormatRow(1) + OldFormatRow(2)), 0u);
  EXPECT_EQ(Resume("garbage\n\x01\x02 checkpoint 9 9\n"), 0u);

  // Loading stops at the first row that is not a complete record: the
  // old-format row and everything after it (here a valid row, then a
  // torn final write) re-analyze.
  std::string Good =
      journalRow(Corpus[0].Name, moduleContentDigest(Corpus[0], Opts),
                 forgedOutcome(1, 1, 1));
  std::string After =
      journalRow(Corpus[2].Name, moduleContentDigest(Corpus[2], Opts),
                 forgedOutcome(1, 1, 1));
  {
    std::ofstream Out(Journal, std::ios::binary | std::ios::trunc);
    Out << Good << OldFormatRow(1) << After << "checkpoint 5 3";
  }
  CorpusSummary S = runCorpusExperiment(Corpus, Opts);
  EXPECT_EQ(S.ResumedModules, 1u);
  EXPECT_EQ(S.FailedModules, 0u);

  // The resume cut the unreadable tail before appending, so the rows it
  // wrote stay readable: everything restores now.
  EXPECT_EQ(runCorpusExperiment(Corpus, Opts).ResumedModules, 3u);
  std::remove(Journal.c_str());
}

//===----------------------------------------------------------------------===//
// Fault seeds
//===----------------------------------------------------------------------===//

TEST(CorpusRobustness, FaultSeedsAreNameStableAndAttemptDistinct) {
  EXPECT_EQ(moduleFaultSeed(7, "drv_clean_000", 0),
            moduleFaultSeed(7, "drv_clean_000", 0));
  EXPECT_NE(moduleFaultSeed(7, "drv_clean_000", 0),
            moduleFaultSeed(7, "drv_clean_000", 1));
  EXPECT_NE(moduleFaultSeed(7, "drv_clean_000", 0),
            moduleFaultSeed(7, "drv_clean_001", 0));
  EXPECT_NE(moduleFaultSeed(7, "drv_clean_000", 0),
            moduleFaultSeed(8, "drv_clean_000", 0));
  // Pinned: a seed change would silently move every fault-injected
  // outcome (and the chaos figures recorded against them).
  EXPECT_EQ(moduleFaultSeed(7, "drv_clean_000", 0), 0x4716693c98e0b3c3ULL);
  EXPECT_EQ(moduleFaultSeed(1, "drv_buggy_017", 3), 0x40c4cc64a861741eULL);
}

//===----------------------------------------------------------------------===//
// Fuzz-harness fault mode
//===----------------------------------------------------------------------===//

TEST(FuzzRobustness, InjectedFaultsNeverEscapeTheSession) {
  FuzzOptions Opts;
  Opts.Seed = 11;
  Opts.Runs = 60;
  Opts.Gen.MaxSize = 16;
  FaultSpec Spec;
  Spec.BadAllocPpm = 300;
  Spec.InternalPpm = 150000;
  Opts.Faults = Spec;
  FuzzReport R = runFuzz(Opts);
  EXPECT_EQ(R.RunsCompleted, 60u);
  EXPECT_TRUE(R.ok()) << R.Failures.front().Message;
}

} // namespace

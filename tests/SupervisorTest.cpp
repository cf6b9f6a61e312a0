//===- SupervisorTest.cpp - process isolation & supervision tests ---------===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Covers the process-isolation stack bottom-up: the Subprocess
// primitive (spawn/classify/reap), the module-outcome wire format, the
// hardened checkpoint journal (torn final rows), and the supervisor
// itself -- byte-identical reports vs. the in-process runner, worker
// crash recovery, and poison-module quarantine. The supervised tests
// spawn the real lna-corpus binary (LNA_CORPUS_BIN) in --worker mode.
//
//===----------------------------------------------------------------------===//

#include "corpus/Supervisor.h"
#include "obs/EventJournal.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unistd.h>

using namespace lna;

namespace {

std::string readAllFrom(int Fd) {
  std::string Out;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  return Out;
}

/// A unique scratch path under the test binary's working directory.
std::string scratchPath(const std::string &Name) {
  return "supervisor_test_" + Name;
}

std::vector<ModuleSpec> corpusSlice(uint32_t N) {
  std::vector<ModuleSpec> Corpus = generateCorpus();
  if (N < Corpus.size())
    Corpus.resize(N);
  return Corpus;
}

/// Worker command line matching corpusSlice(N): the real corpus binary,
/// the same slice, worker mode.
std::vector<std::string> workerArgv(uint32_t N,
                                    const std::string &ExtraFlag = "") {
  std::vector<std::string> Argv{LNA_CORPUS_BIN,
                                "--limit=" + std::to_string(N)};
  if (!ExtraFlag.empty())
    Argv.push_back(ExtraFlag);
  Argv.push_back("--worker");
  return Argv;
}

//===----------------------------------------------------------------------===//
// Subprocess primitives
//===----------------------------------------------------------------------===//

TEST(SubprocessTest, PipesRoundTripAndCleanExit) {
  Subprocess P;
  std::string Err;
  ASSERT_TRUE(P.spawn({"/bin/cat"}, Err)) << Err;
  EXPECT_TRUE(P.started());
  EXPECT_GT(P.pid(), 0);
  ASSERT_TRUE(writeAll(P.stdinFd(), "through the pipes\n"));
  P.closeStdin();
  EXPECT_EQ(readAllFrom(P.stdoutFd()), "through the pipes\n");
  ExitStatus St = P.wait();
  EXPECT_EQ(St.K, ExitStatus::Kind::Exited);
  EXPECT_EQ(St.Code, 0);
  EXPECT_EQ(St.describe(), "exit status 0");
}

TEST(SubprocessTest, ExitCodeIsClassified) {
  Subprocess P;
  std::string Err;
  ASSERT_TRUE(P.spawn({"/bin/sh", "-c", "exit 7"}, Err)) << Err;
  ExitStatus St = P.wait();
  EXPECT_EQ(St.K, ExitStatus::Kind::Exited);
  EXPECT_EQ(St.Code, 7);
  // Repeated reaps keep returning the final status.
  EXPECT_EQ(P.poll().Code, 7);
}

TEST(SubprocessTest, SignalDeathIsClassified) {
  Subprocess P;
  std::string Err;
  ASSERT_TRUE(P.spawn({"/bin/sh", "-c", "kill -KILL $$"}, Err)) << Err;
  ExitStatus St = P.wait();
  EXPECT_EQ(St.K, ExitStatus::Kind::Signaled);
  EXPECT_EQ(St.Signal, SIGKILL);
  // SIGKILL forensics flag the OOM-killer possibility.
  EXPECT_NE(St.describe().find("signal 9"), std::string::npos);
  EXPECT_NE(St.describe().find("OOM"), std::string::npos);
}

TEST(SubprocessTest, ExecFailureSurfacesAs127) {
  Subprocess P;
  std::string Err;
  ASSERT_TRUE(P.spawn({"/nonexistent/definitely-not-a-binary"}, Err)) << Err;
  ExitStatus St = P.wait();
  EXPECT_EQ(St.K, ExitStatus::Kind::Exited);
  EXPECT_EQ(St.Code, 127);
}

TEST(SubprocessTest, KillReapsARunningChild) {
  Subprocess P;
  std::string Err;
  ASSERT_TRUE(P.spawn({"/bin/sh", "-c", "sleep 30"}, Err)) << Err;
  EXPECT_TRUE(P.poll().running());
  P.kill(SIGKILL);
  ExitStatus St = P.wait();
  EXPECT_EQ(St.K, ExitStatus::Kind::Signaled);
  EXPECT_EQ(St.Signal, SIGKILL);
}

//===----------------------------------------------------------------------===//
// Module-outcome wire format
//===----------------------------------------------------------------------===//

ModuleOutcome sampleOutcome() {
  ModuleOutcome O;
  O.R.Ok = false;
  O.R.Failure = FailureKind::InternalError;
  O.R.Error = "injected fault at inference";
  O.R.FailedPhase = "inference";
  O.R.Counts = {12, 3, 1};
  O.Retried = true;
  PhaseStats &PS = O.R.Stats.phase("parse");
  PS.Seconds = 0.001953125; // exactly representable
  PS.add("tokens", 421);
  return O;
}

TEST(OutcomeWireTest, RoundTripsEveryField) {
  ModuleOutcome O = sampleOutcome();
  std::string Bytes = serializeModuleOutcome(O, 17);
  size_t Consumed = 0;
  uint32_t Idx = 0;
  ModuleOutcome Back;
  ASSERT_EQ(parseModuleOutcome(Bytes, Consumed, Idx, Back), WireParse::Ok);
  EXPECT_EQ(Consumed, Bytes.size());
  EXPECT_EQ(Idx, 17u);
  EXPECT_EQ(Back.R.Ok, O.R.Ok);
  EXPECT_EQ(Back.R.Failure, O.R.Failure);
  EXPECT_EQ(Back.R.Error, O.R.Error);
  EXPECT_EQ(Back.R.FailedPhase, O.R.FailedPhase);
  EXPECT_EQ(Back.R.Counts.NoConfine, O.R.Counts.NoConfine);
  EXPECT_EQ(Back.R.Counts.ConfineInference, O.R.Counts.ConfineInference);
  EXPECT_EQ(Back.R.Counts.AllStrong, O.R.Counts.AllStrong);
  EXPECT_TRUE(Back.Retried);
  EXPECT_FALSE(Back.Resumed);
  EXPECT_DOUBLE_EQ(Back.R.Stats.phase("parse").Seconds, 0.001953125);
  EXPECT_EQ(Back.R.Stats.counter("parse", "tokens"), 421u);
}

TEST(OutcomeWireTest, IncompletePrefixNeedsMoreAtEveryCut) {
  std::string Bytes = serializeModuleOutcome(sampleOutcome(), 3);
  for (size_t Cut = 0; Cut < Bytes.size(); ++Cut) {
    size_t Consumed = 0;
    uint32_t Idx = 0;
    ModuleOutcome Back;
    EXPECT_EQ(parseModuleOutcome(std::string_view(Bytes).substr(0, Cut),
                                 Consumed, Idx, Back),
              WireParse::NeedMore)
        << "cut at " << Cut;
  }
}

TEST(OutcomeWireTest, GarbageIsCorruptNotACrash) {
  size_t Consumed = 0;
  uint32_t Idx = 0;
  ModuleOutcome Back;
  EXPECT_EQ(parseModuleOutcome("garbage 9 9 9\nmore", Consumed, Idx, Back),
            WireParse::Corrupt);
  // A valid header whose failure kind does not exist is corrupt too.
  EXPECT_EQ(parseModuleOutcome(
                "outcome 1 0 0 not-a-kind 0 0 0 1 1 1 0 0 0 0\n", Consumed,
                Idx, Back),
            WireParse::Corrupt);
}

TEST(OutcomeWireTest, StatsSerializationRoundTripsExactly) {
  SessionStats S;
  PhaseStats &P1 = S.phase("typing");
  P1.Seconds = 1.0 / 3.0; // not exactly printable in decimal
  P1.add("unifications", 123456789);
  S.phase("inference").Seconds = 4.25e-7;
  SessionStats Back;
  ASSERT_TRUE(Back.deserialize(S.serialize()));
  // Hex-float encoding makes the round trip exact, not just close.
  EXPECT_EQ(Back.renderText(), S.renderText());
  EXPECT_EQ(Back.phase("typing").Seconds, 1.0 / 3.0);
  ASSERT_FALSE(Back.deserialize("stats 1 1\ntruncated"));
  EXPECT_TRUE(Back.empty());
}

//===----------------------------------------------------------------------===//
// Checkpoint journal hardening
//===----------------------------------------------------------------------===//

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, std::string_view Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

} // namespace

TEST(JournalTest, RowIsAFramedNameAndDigestThenTheOutcomeRecord) {
  std::vector<ModuleSpec> Corpus = corpusSlice(1);
  std::string Path = scratchPath("format.journal");
  std::remove(Path.c_str());
  ExperimentOptions Opts;
  Opts.CheckpointFile = Path;
  ModuleOutcome O = sampleOutcome();
  {
    std::vector<ModuleOutcome> Out(1);
    CheckpointJournal J;
    J.resume(Corpus, Opts, Out);
    J.append(0, O);
  }
  const std::string &Name = Corpus[0].Name;
  std::string Digest = moduleContentDigest(Corpus[0], Opts);
  std::string Want = "checkpoint ";
  Want += std::to_string(Name.size());
  Want += ' ';
  Want += std::to_string(Digest.size());
  Want += '\n';
  Want += Name;
  Want += Digest;
  // Persisted records never carry the timing-bearing stats.
  Want += serializeModuleOutcome(O, 0, /*WithMetrics=*/false,
                                 /*WithStats=*/false);
  EXPECT_EQ(readFile(Path), Want);
  std::remove(Path.c_str());
}

TEST(JournalTest, TornFinalRowIsSkippedOnResume) {
  std::vector<ModuleSpec> Corpus = corpusSlice(2);
  std::string Path = scratchPath("torn.journal");
  std::remove(Path.c_str());
  ExperimentOptions Opts;
  Opts.CheckpointFile = Path;
  Opts.CollectMetrics = true; // every record gets a body to cut into
  size_t FirstRowEnd = 0;
  {
    std::vector<ModuleOutcome> Out(2);
    CheckpointJournal J;
    J.resume(Corpus, Opts, Out);
    ModuleOutcome Ok;
    Ok.R.Ok = true;
    Ok.R.Counts = {5, 1, 0};
    J.append(0, Ok);
    FirstRowEnd = readFile(Path).size();
    ModuleOutcome Failed = sampleOutcome();
    Failed.R.Metrics.addCounter("solver.rounds", 3);
    J.append(1, Failed);
  }
  std::string Bytes = readFile(Path);
  size_t BodyStart = Bytes.find('\n', Bytes.find("outcome 2", FirstRowEnd));
  ASSERT_NE(BodyStart, std::string::npos);
  ASSERT_LT(BodyStart + 1, Bytes.size());

  // Cut the final row at every byte: inside its name/digest prefix,
  // inside its record header, and inside its body. The complete first
  // row restores; the torn one re-analyzes, and the resume cuts it off
  // so rows appended later stay framed.
  for (size_t Cut = FirstRowEnd; Cut <= Bytes.size(); ++Cut) {
    writeFile(Path, std::string_view(Bytes).substr(0, Cut));
    std::vector<ModuleOutcome> Out(2);
    CheckpointJournal J;
    J.resume(Corpus, Opts, Out);
    J.close();
    EXPECT_TRUE(Out[0].Resumed) << "cut at " << Cut;
    EXPECT_EQ(Out[0].R.Counts.NoConfine, 5u);
    bool Whole = Cut == Bytes.size();
    EXPECT_EQ(Out[1].Resumed, Whole) << "cut at " << Cut;
    EXPECT_EQ(readFile(Path).size(), Whole ? Bytes.size() : FirstRowEnd)
        << "cut at " << Cut;
  }
  std::remove(Path.c_str());
}

TEST(JournalTest, TruncatedResumeReanalyzesAndMatches) {
  // A full governed run's report must be byte-identical whether the
  // journal survived intact or lost its tail.
  std::vector<ModuleSpec> Corpus = corpusSlice(8);
  std::string Path = scratchPath("resume.journal");
  std::remove(Path.c_str());

  ExperimentOptions Opts;
  Opts.CheckpointFile = Path;
  std::string FirstReport =
      renderCorpusReport(runCorpusExperiment(Corpus, Opts));

  // Drop the last two journal rows (simulating a kill mid-write), then
  // resume over the same slice ...
  std::string Bytes = readFile(Path);
  size_t Last = Bytes.rfind("checkpoint ");
  ASSERT_NE(Last, std::string::npos);
  size_t Prev = Bytes.rfind("checkpoint ", Last - 1);
  ASSERT_NE(Prev, std::string::npos);
  // ... keeping a torn fragment of what would have been the next row.
  writeFile(Path, Bytes.substr(0, Prev) + Bytes.substr(Last, 40));

  CorpusSummary Resumed = runCorpusExperiment(Corpus, Opts);
  EXPECT_EQ(renderCorpusReport(Resumed), FirstReport);
  EXPECT_EQ(Resumed.ResumedModules, Corpus.size() - 2);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Supervised execution
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, ReportMatchesInProcessRunner) {
  const uint32_t N = 12;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  ExperimentOptions Opts;
  std::string InProcess = renderCorpusReport(runCorpusExperiment(Corpus, Opts));

  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.WorkerArgv = workerArgv(N);
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(renderCorpusReport(Res.Summary), InProcess);
  EXPECT_EQ(corpusReportJSON(Res.Summary, /*IncludeTimings=*/false),
            corpusReportJSON(runCorpusExperiment(Corpus, Opts),
                             /*IncludeTimings=*/false));
  EXPECT_EQ(Res.Stats.WorkerCrashes, 0u);
  EXPECT_EQ(Res.Stats.QuarantinedModules, 0u);
}

TEST(SupervisorTest, WorkerKilledMidRunIsRestartedAndRecovers) {
  // Large enough that work remains after the ~10ms restart backoff, so
  // a replacement worker is actually spawned (a tiny slice can drain
  // through the surviving worker before the backoff elapses).
  const uint32_t N = 120;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  ExperimentOptions Opts;
  std::string InProcess = renderCorpusReport(runCorpusExperiment(Corpus, Opts));

  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.WorkerArgv = workerArgv(N);
  // Assassinate the first worker the moment it is born: its dispatched
  // module (if any) must be re-queued, a replacement spawned, and the
  // run must still produce the exact in-process report.
  bool Killed = false;
  Sup.OnWorkerSpawn = [&Killed](int Pid) {
    if (!Killed) {
      Killed = true;
      ::kill(Pid, SIGKILL);
    }
  };
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_GE(Res.Stats.WorkerCrashes, 1u);
  EXPECT_GE(Res.Stats.WorkerRestarts, 1u);
  EXPECT_EQ(Res.Stats.QuarantinedModules, 0u);
  EXPECT_EQ(renderCorpusReport(Res.Summary), InProcess);
}

TEST(SupervisorTest, PoisonModuleIsQuarantinedWithForensics) {
  // Every phase boundary kills the worker: every module is a poison
  // module. The run must still complete, with each module quarantined
  // as a Crashed row after exactly MaxModuleCrashes attempts.
  const uint32_t N = 3;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  std::vector<ModuleOutcome> Captured;
  ExperimentOptions Opts;
  Opts.CaptureOutcomes = &Captured;
  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.MaxModuleCrashes = 2;
  Sup.WorkerArgv = workerArgv(N, "--inject-faults=seed=1,kill=1000000");
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.Stats.QuarantinedModules, N);
  EXPECT_EQ(Res.Stats.WorkerCrashes, N * Sup.MaxModuleCrashes);
  EXPECT_EQ(Res.Summary.FailedModules, N);
  EXPECT_EQ(Res.Summary.FailuresByKind[static_cast<size_t>(
                FailureKind::Crashed)],
            N);
  for (const ModuleResult &M : Res.Summary.Modules) {
    EXPECT_FALSE(M.Ok);
    EXPECT_EQ(M.Failure, FailureKind::Crashed);
    // Forensics: how the worker died and which crash sealed the verdict.
    EXPECT_NE(M.Error.find("signal 9"), std::string::npos) << M.Error;
    EXPECT_NE(M.Error.find("quarantined after 2/2"), std::string::npos)
        << M.Error;
    // The kill fires at the very first site, before any span closes:
    // the phase comes from the black box's site slot alone.
    EXPECT_NE(M.Error.find("in phase 'corpus:module'"), std::string::npos)
        << M.Error;
    EXPECT_EQ(M.Error.find("flight recorder ("), std::string::npos)
        << M.Error;
  }
  ASSERT_EQ(Captured.size(), N);
  for (const ModuleOutcome &O : Captured)
    EXPECT_EQ(O.R.FailedPhase, "corpus:module");
}

TEST(SupervisorTest, InjectedKillsRecoverToIdenticalReport) {
  // Moderate kill probability: some worker deaths, but the per-module
  // crash budget is never exhausted, so the report must be byte-equal
  // to the unfaulted in-process run (crash-retry determinism).
  const uint32_t N = 20;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  ExperimentOptions Opts;
  std::string InProcess = renderCorpusReport(runCorpusExperiment(Corpus, Opts));

  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.MaxModuleCrashes = 6;
  Sup.WorkerArgv = workerArgv(N, "--inject-faults=seed=7,kill=20000");
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.Stats.QuarantinedModules, 0u);
  EXPECT_EQ(renderCorpusReport(Res.Summary), InProcess);
}

TEST(SupervisorTest, CheckpointResumeSkipsFinishedModules) {
  const uint32_t N = 10;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  std::string Path = scratchPath("supervised.journal");
  std::remove(Path.c_str());

  ExperimentOptions Opts;
  Opts.CheckpointFile = Path;
  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.WorkerArgv = workerArgv(N);

  SupervisedResult First = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_EQ(First.Summary.ResumedModules, 0u);

  // Second run resumes everything: no workers have any module to run,
  // and the rendered report is identical (resume is invisible).
  SupervisedResult Second = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_EQ(Second.Summary.ResumedModules, N);
  EXPECT_EQ(renderCorpusReport(Second.Summary),
            renderCorpusReport(First.Summary));
  std::remove(Path.c_str());
}

TEST(SupervisorTest, CheckpointResumeKeepsMetrics) {
  // Regression: a supervised resume once merged empty metrics for every
  // module restored from the journal.
  const uint32_t N = 12;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  std::vector<ModuleSpec> Half(Corpus.begin(), Corpus.begin() + N / 2);
  std::string Path = scratchPath("supervised_metrics.journal");
  std::remove(Path.c_str());

  ExperimentOptions Opts;
  Opts.CollectMetrics = true;
  CorpusSummary Fresh = runCorpusExperiment(Corpus, Opts);

  Opts.CheckpointFile = Path;
  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.WorkerArgv = workerArgv(N / 2);
  SupervisedResult First = runSupervisedExperiment(Half, Opts, Sup);
  ASSERT_TRUE(First.Ok) << First.Error;
  Sup.WorkerArgv = workerArgv(N);
  SupervisedResult Second = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_EQ(Second.Summary.ResumedModules, N / 2);
  EXPECT_EQ(Second.Summary.Metrics.renderJSON(), Fresh.Metrics.renderJSON());
  EXPECT_EQ(renderCorpusReport(Second.Summary), renderCorpusReport(Fresh));
  std::remove(Path.c_str());
}

TEST(SupervisorTest, UnrunnableWorkerBinaryIsAFatalConfigError) {
  std::vector<ModuleSpec> Corpus = corpusSlice(2);
  ExperimentOptions Opts;
  SupervisorOptions Sup;
  Sup.Workers = 1;
  Sup.WorkerArgv = {"/nonexistent/lna-corpus", "--worker"};
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("failed to start"), std::string::npos)
      << Res.Error;
}

//===----------------------------------------------------------------------===//
// Fleet observability: event journal, flight recovery, fleet trace
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  return Lines;
}

size_t countEvents(const std::vector<std::string> &Lines,
                   const std::string &Type) {
  std::string Needle = "\"event\":\"" + Type + "\"";
  size_t N = 0;
  for (const std::string &L : Lines)
    if (L.find(Needle) != std::string::npos)
      ++N;
  return N;
}

} // namespace

TEST(SupervisorObs, ChaosJournalCoversEveryDeathRestartAndQuarantine) {
  // Seeded chaos: the journal must account for exactly the deaths,
  // restarts, and quarantines the supervisor itself counted -- and its
  // timestamps must be totally ordered.
  const uint32_t N = 12;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  std::string JournalPath = scratchPath("events.jsonl");

  EventJournal Events;
  ASSERT_TRUE(Events.open(JournalPath));
  ExperimentOptions Opts;
  Opts.Events = &Events;
  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.MaxModuleCrashes = 1;
  Sup.WorkerArgv = workerArgv(N, "--inject-faults=seed=7,kill=300000");
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  Events.close();
  ASSERT_TRUE(Res.Ok) << Res.Error;
  ASSERT_GE(Res.Stats.WorkerCrashes, 1u);

  std::vector<std::string> Lines = readLines(JournalPath);
  ASSERT_FALSE(Lines.empty());
  uint64_t PrevTs = 0;
  for (const std::string &L : Lines) {
    ASSERT_EQ(L.rfind("{\"ts_us\":", 0), 0u) << L;
    ASSERT_EQ(L.back(), '}') << L;
    uint64_t Ts = 0;
    ASSERT_EQ(std::sscanf(L.c_str(), "{\"ts_us\":%" SCNu64, &Ts), 1) << L;
    EXPECT_GE(Ts, PrevTs);
    PrevTs = Ts;
  }
  EXPECT_EQ(countEvents(Lines, "worker-death"), Res.Stats.WorkerCrashes);
  EXPECT_EQ(countEvents(Lines, "module-quarantine"),
            Res.Stats.QuarantinedModules);
  // Every spawn is either one of the initial workers or a counted
  // restart; a restart carries "restart":true.
  size_t Spawns = countEvents(Lines, "worker-spawn");
  EXPECT_LE(Spawns, Sup.Workers + Res.Stats.WorkerRestarts);
  // Every module is accounted for exactly once: completed or
  // quarantined.
  EXPECT_EQ(countEvents(Lines, "module-complete") +
                countEvents(Lines, "module-quarantine"),
            N);
  std::remove(JournalPath.c_str());
}

TEST(SupervisorObs, QuarantineForensicsContainRecoveredFlightSpans) {
  // A worker SIGKILLed mid-module leaves its black box behind; the
  // quarantine row must name the phase and surface the recovered span
  // tail. kill=300000 with this seed kills several modules *after* at
  // least one phase span closed (a kill at the very first fault site
  // leaves no spans, and the tail is correctly omitted). The supervisor
  // keeps the black boxes on its own: no directory is configured.
  const uint32_t N = 12;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);

  ExperimentOptions Opts;
  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.MaxModuleCrashes = 1;
  Sup.WorkerArgv = workerArgv(N, "--inject-faults=seed=7,kill=300000");
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  ASSERT_GE(Res.Stats.QuarantinedModules, 1u);

  size_t WithFlight = 0;
  for (const ModuleResult &M : Res.Summary.Modules) {
    if (M.Ok || M.Failure != FailureKind::Crashed)
      continue;
    // Forensics ordering: the recovered tail extends the quarantine
    // verdict, never replaces it.
    EXPECT_NE(M.Error.find("quarantined after"), std::string::npos)
        << M.Error;
    // Injected kills fire only at phase boundaries, after the black box
    // noted the site: every row names a phase.
    size_t At = M.Error.find(" in phase '");
    ASSERT_NE(At, std::string::npos) << M.Error;
    EXPECT_NE(M.Error[At + 11], '\'') << M.Error;
    if (M.Error.find("flight recorder (") != std::string::npos) {
      ++WithFlight;
      EXPECT_NE(M.Error.find("recovered span"), std::string::npos) << M.Error;
      EXPECT_NE(M.Error.find("us/"), std::string::npos) << M.Error;
    }
  }
  EXPECT_GE(WithFlight, 1u);
}

TEST(SupervisorObs, BlackBoxDirectoryIsRemovedOnEveryExit) {
  // The supervisor creates its black-box directory under $TMPDIR and
  // must remove it both after a normal run and on the early return of
  // a worker that cannot exec.
  std::string Tmp =
      std::filesystem::absolute(scratchPath("tmpdir")).string();
  std::filesystem::remove_all(Tmp);
  std::filesystem::create_directories(Tmp);
  const char *Old = std::getenv("TMPDIR");
  std::string Saved = Old ? Old : "";
  ::setenv("TMPDIR", Tmp.c_str(), 1);
  auto Leftovers = [&Tmp] {
    size_t N = 0;
    for (const auto &E : std::filesystem::directory_iterator(Tmp))
      if (E.path().filename().string().rfind("lna-flight-", 0) == 0)
        ++N;
    return N;
  };

  const uint32_t N = 4;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  ExperimentOptions Opts;
  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.WorkerArgv = workerArgv(N);
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  EXPECT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Leftovers(), 0u);

  Sup.Workers = 1;
  Sup.WorkerArgv = {"/nonexistent/lna-corpus", "--worker"};
  Res = runSupervisedExperiment(Corpus, Opts, Sup);
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("failed to start"), std::string::npos)
      << Res.Error;
  EXPECT_EQ(Leftovers(), 0u);

  if (Old)
    ::setenv("TMPDIR", Saved.c_str(), 1);
  else
    ::unsetenv("TMPDIR");
  std::filesystem::remove_all(Tmp);
}

TEST(SupervisorObs, FleetTraceMergesWorkerLanesAndReportIsUnchanged) {
  const uint32_t N = 8;
  std::vector<ModuleSpec> Corpus = corpusSlice(N);
  ExperimentOptions Plain;
  std::string Baseline =
      renderCorpusReport(runCorpusExperiment(Corpus, Plain));

  std::string TraceDir = scratchPath("fleettrace");
  std::filesystem::create_directories(TraceDir);
  ExperimentOptions Opts;
  Opts.TraceDir = TraceDir;
  SupervisorOptions Sup;
  Sup.Workers = 2;
  Sup.WorkerArgv = workerArgv(N, "--trace-dir=" + TraceDir);
  Sup.FleetTracePath = TraceDir + "/fleet.trace.json";
  SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_FALSE(Res.FleetTraceFailed);
  // Observability never perturbs the deterministic report surface.
  EXPECT_EQ(renderCorpusReport(Res.Summary), Baseline);

  std::ifstream In(Sup.FleetTracePath);
  ASSERT_TRUE(In.good());
  std::string Json((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(Json.rfind("{\"traceEvents\":[", 0), 0u);
  // Supervisor and both worker lanes are named...
  EXPECT_NE(Json.find("\"name\":\"supervisor\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"worker 0\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"worker 1\""), std::string::npos);
  // ...and per-module phase spans were merged out of the module traces
  // (pid >= 1 lanes carry cat "lna" spans).
  EXPECT_NE(Json.find("\"cat\":\"lna\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"aggregate\""), std::string::npos);
  std::filesystem::remove_all(TraceDir);
}

} // namespace

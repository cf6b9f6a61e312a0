//===- Supervisor.cpp - process-isolated corpus execution -----------------===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "corpus/Supervisor.h"

#include "obs/EventJournal.h"
#include "obs/FleetTrace.h"
#include "obs/FlightRecorder.h"
#include "obs/Progress.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <optional>
#include <poll.h>
#include <unistd.h>

using namespace lna;

namespace {

using Clock = std::chrono::steady_clock;

/// Set by the SIGINT/SIGTERM handler; the main loop notices it, reaps
/// every worker, and re-raises so the default disposition still ends
/// the process (after a checkpointed run has journaled its progress).
volatile sig_atomic_t StopSignal = 0;

void onStopSignal(int Sig) { StopSignal = Sig; }

/// Installs the stop handler for the duration of a supervised run and
/// restores the previous dispositions on every exit path. Also ignores
/// SIGPIPE meanwhile: a dispatch raced against a dying worker must
/// surface as an EPIPE write error (and a reclassified death), not kill
/// the supervisor -- embedders other than the lna tools (the test
/// binaries) do not ignore it process-wide.
struct SignalGuard {
  struct sigaction OldInt {};
  struct sigaction OldTerm {};
  struct sigaction OldPipe {};
  SignalGuard() {
    StopSignal = 0;
    struct sigaction SA {};
    SA.sa_handler = onStopSignal;
    sigemptyset(&SA.sa_mask);
    sigaction(SIGINT, &SA, &OldInt);
    sigaction(SIGTERM, &SA, &OldTerm);
    struct sigaction Ign {};
    Ign.sa_handler = SIG_IGN;
    sigemptyset(&Ign.sa_mask);
    sigaction(SIGPIPE, &Ign, &OldPipe);
  }
  ~SignalGuard() {
    sigaction(SIGINT, &OldInt, nullptr);
    sigaction(SIGTERM, &OldTerm, nullptr);
    sigaction(SIGPIPE, &OldPipe, nullptr);
  }
};

/// The run's private black-box directory under $TMPDIR (else /tmp),
/// holding one file per worker slot. It is removed with its contents
/// on every exit path. An empty Path means it could not be created:
/// workers then run without black boxes and deaths carry no phase.
struct FlightDir {
  std::string Path;
  FlightDir() {
    const char *Tmp = std::getenv("TMPDIR");
    std::string Template =
        std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/lna-flight-XXXXXX";
    if (mkdtemp(Template.data()))
      Path = Template;
    else
      std::fprintf(stderr, "lna-corpus: warning: cannot create flight "
                           "recorder directory (black boxes disabled)\n");
  }
  ~FlightDir() { remove(); }
  FlightDir(const FlightDir &) = delete;
  FlightDir &operator=(const FlightDir &) = delete;
  void remove() {
    std::error_code EC;
    if (!Path.empty())
      std::filesystem::remove_all(Path, EC);
    Path.clear();
  }
  std::string slotFile(uint32_t Slot) const {
    return Path + "/worker-" + std::to_string(Slot) + ".blackbox";
  }
};

/// One worker process slot: the child, its incremental stdout buffer,
/// and what the supervisor knows about its in-flight module.
struct WorkerSlot {
  Subprocess Proc;
  std::string Buf;
  bool Alive = false;
  bool EverSpawned = false; ///< distinguishes restarts from first spawns
  bool Busy = false;
  bool SawBegin = false;     ///< worker acknowledged the dispatch
  bool TimedOut = false;     ///< we SIGKILLed it for the wall timeout
  uint32_t Module = 0;       ///< in-flight module index (Busy only)
  Clock::time_point Deadline{};  ///< wall timeout of the dispatch
  Clock::time_point RestartAt{}; ///< earliest respawn after a death
  unsigned BackoffMs = 0;        ///< current restart backoff
};

constexpr unsigned BackoffBaseMs = 10;
constexpr unsigned BackoffMaxMs = 1000;
/// Longest tolerated B marker line; anything longer is corruption.
constexpr size_t MaxMarkerLine = 4096;
/// How long workers get to exit after Q before they are SIGKILLed.
constexpr int ShutdownGraceMs = 2000;

} // namespace

SupervisedResult
lna::runSupervisedExperiment(const std::vector<ModuleSpec> &Corpus,
                             const ExperimentOptions &Opts,
                             const SupervisorOptions &Sup) {
  SupervisedResult Res;
  const size_t N = Corpus.size();
  if (Sup.WorkerArgv.empty()) {
    Res.Error = "supervisor: empty worker command line";
    return Res;
  }

  std::vector<ModuleOutcome> Outcomes(N);
  std::vector<char> Done(N, 0);
  std::vector<unsigned> Crashes(N, 0);
  size_t Completed = 0;

  // Checkpoint resume happens in the supervisor, never in a worker: the
  // journal is a whole-run artifact, and restoring here means a resumed
  // run spawns workers only for the modules that still need analyzing.
  CheckpointJournal Journal;
  Journal.resume(Corpus, Opts, Outcomes);
  for (size_t I = 0; I < N; ++I)
    if (Outcomes[I].Resumed) {
      Done[I] = 1;
      ++Completed;
    }

  // Created before any worker is spawned; its destructor cleans up after
  // every return below.
  FlightDir Flight;

  std::deque<uint32_t> Queue;
  for (size_t I = 0; I < N; ++I)
    if (!Done[I])
      Queue.push_back(static_cast<uint32_t>(I));

  const unsigned NumWorkers = static_cast<unsigned>(std::min<size_t>(
      std::max(1u, Sup.Workers), std::max<size_t>(Queue.size(), 1)));
  std::vector<WorkerSlot> Slots(NumWorkers);
  SignalGuard Signals;

  // Fleet observability state. Everything below is timing-bearing and
  // feeds only the event journal, the progress line, and the fleet
  // trace -- never the outcomes or the deterministic report.
  const Clock::time_point Epoch = Clock::now();
  auto NowUs = [&] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              Epoch)
            .count());
  };
  EventJournal *Events = Opts.Events;
  auto SlotIndex = [&](const WorkerSlot &S) {
    return static_cast<uint32_t>(&S - Slots.data());
  };
  // Fleet-trace bookkeeping: when each module was (last) dispatched and
  // to which slot, on the supervisor clock.
  std::vector<uint64_t> DispatchUs(N, 0);
  std::vector<uint32_t> SlotOf(N, 0);
  std::optional<FleetTraceBuilder> Fleet;
  if (!Sup.FleetTracePath.empty()) {
    Fleet.emplace();
    Fleet->processName(0, "supervisor");
    Fleet->threadName(0, 0, "run");
    Fleet->threadName(0, 1, "dispatch");
    Fleet->threadName(0, 2, "restarts");
    for (unsigned W = 0; W < NumWorkers; ++W)
      Fleet->processName(1 + W, "worker " + std::to_string(W));
  }
  // Latest non-empty recovered black box per module. A later crash of
  // the same module may die before any span closes; the earlier tail is
  // still the best forensics available.
  std::vector<FlightRecording> Flights(N);
  if (Opts.Progress) {
    Opts.Progress->setWorkers(NumWorkers);
    // Checkpoint-restored rows are already done.
    for (size_t I = 0; I < N; ++I)
      if (Done[I])
        Opts.Progress->noteDone(/*CacheHit=*/false, Outcomes[I].Retried);
  }

  auto KillAll = [&] {
    for (WorkerSlot &S : Slots) {
      if (!S.Alive)
        continue;
      S.Proc.kill(SIGKILL);
      S.Proc.wait();
      S.Alive = false;
    }
  };

  auto Spawn = [&](WorkerSlot &S) -> bool {
    Subprocess P;
    std::string Err;
    std::vector<std::string> Argv = Sup.WorkerArgv;
    if (!Flight.Path.empty())
      // Per-slot black box: one writer per file, rewritten as modules
      // are dispatched, recovered by HandleDeath after a crash.
      Argv.push_back("--flight-file=" + Flight.slotFile(SlotIndex(S)));
    if (!P.spawn(Argv, Err)) {
      std::fprintf(stderr, "lna-corpus: warning: worker spawn failed: %s\n",
                   Err.c_str());
      return false;
    }
    S.Proc = std::move(P);
    S.Alive = true;
    S.Busy = false;
    S.SawBegin = false;
    S.TimedOut = false;
    S.Buf.clear();
    if (Events)
      Events->event("worker-spawn")
          .num("worker", SlotIndex(S))
          .num("pid", static_cast<uint64_t>(S.Proc.pid()))
          .flag("restart", S.EverSpawned);
    if (Opts.Progress) {
      Opts.Progress->setWorkerState(SlotIndex(S), 'i');
      Opts.Progress->maybeRender();
    }
    if (Sup.OnWorkerSpawn)
      Sup.OnWorkerSpawn(S.Proc.pid());
    return true;
  };

  // Dispatches the queue head to an idle worker. False when the command
  // cannot be written -- the worker is already dead or dying, and the
  // caller routes it through the death path.
  auto Dispatch = [&](WorkerSlot &S) -> bool {
    uint32_t Idx = Queue.front();
    // Each supervisor-level crash of the module advances the attempt
    // bias by 2 (the in-process transient retry consumes bias+0 and
    // bias+1), so a re-queued module sees fresh fault draws while an
    // undisturbed module's draws stay identical to a --jobs run.
    std::string Cmd = "M " + std::to_string(Idx) + ' ' +
                      std::to_string(Crashes[Idx] * 2) + ' ' +
                      (Opts.CollectMetrics ? '1' : '0') + "\n";
    if (!writeAll(S.Proc.stdinFd(), Cmd))
      return false;
    Queue.pop_front();
    S.Busy = true;
    S.SawBegin = false;
    S.Module = Idx;
    if (Sup.WorkerTimeoutMs)
      S.Deadline =
          Clock::now() + std::chrono::milliseconds(Sup.WorkerTimeoutMs);
    DispatchUs[Idx] = NowUs();
    SlotOf[Idx] = SlotIndex(S);
    if (Events)
      Events->event("module-dispatch")
          .num("worker", SlotIndex(S))
          .num("module", Idx)
          .str("name", Corpus[Idx].Name)
          .num("attempt_bias", Crashes[Idx] * 2);
    if (Fleet)
      Fleet->span(0, 1, Corpus[Idx].Name, DispatchUs[Idx], 0);
    if (Opts.Progress) {
      Opts.Progress->setWorkerState(SlotIndex(S), 'r');
      Opts.Progress->maybeRender();
    }
    return true;
  };

  // A worker died (or was killed). Classifies the exit, re-queues or
  // quarantines the in-flight module, and schedules the slot's respawn
  // under exponential backoff. False = configuration error fatal to the
  // whole run (the worker binary cannot exec).
  auto HandleDeath = [&](WorkerSlot &S, const ExitStatus &St) -> bool {
    S.Alive = false;
    uint32_t Slot = SlotIndex(S);
    if (St.K == ExitStatus::Kind::Exited &&
        (St.Code == 126 || St.Code == 127)) {
      // exec failed in every future worker too; retrying cannot help.
      Res.Error = "supervisor: worker failed to start (" + St.describe() +
                  "); check the worker command line";
      return false;
    }
    ++Res.Stats.WorkerCrashes;
    // The black box is the record of where the worker died. Read it now
    // and delete it, so a replacement that dies before opening its own
    // box is never credited with this one.
    FlightRecording Rec;
    if (!Flight.Path.empty()) {
      Rec = loadFlightRecording(Flight.slotFile(Slot));
      std::remove(Flight.slotFile(Slot).c_str());
    }
    const bool RecIsModule =
        S.Busy && Rec.Valid && Rec.Module == Corpus[S.Module].Name;
    const std::string Phase = RecIsModule ? Rec.Site : std::string();
    if (Events) {
      if (S.Busy)
        Events->event("worker-death")
            .num("worker", Slot)
            .str("status", St.describe())
            .flag("timed_out", S.TimedOut)
            .num("module", S.Module)
            .str("name", Corpus[S.Module].Name)
            .str("phase", Phase);
      else
        Events->event("worker-death")
            .num("worker", Slot)
            .str("status", St.describe())
            .flag("timed_out", S.TimedOut);
    }
    if (Opts.Progress) {
      Opts.Progress->noteCrash();
      Opts.Progress->setWorkerState(Slot, 'd');
    }
    if (S.Busy) {
      uint32_t Idx = S.Module;
      if (RecIsModule && !Rec.Spans.empty())
        Flights[Idx] = std::move(Rec);
      ++Crashes[Idx];
      if (Crashes[Idx] >= Sup.MaxModuleCrashes) {
        // Quarantine: the module keeps killing workers, so it becomes a
        // Crashed row carrying everything we know about the death, and
        // the rest of the corpus proceeds.
        ModuleOutcome &O = Outcomes[Idx];
        O = ModuleOutcome{};
        O.R.Ok = false;
        O.R.Failure = FailureKind::Crashed;
        O.R.FailedPhase = Phase;
        O.R.Error =
            S.TimedOut
                ? "worker exceeded the " +
                      std::to_string(Sup.WorkerTimeoutMs) +
                      " ms wall timeout and was killed"
                : "worker died (" + St.describe() + ")";
        if (!Phase.empty())
          O.R.Error += " in phase '" + Phase + "'";
        else if (!S.SawBegin)
          O.R.Error += " before analysis began";
        O.R.Error += "; quarantined after " + std::to_string(Crashes[Idx]) +
                     "/" + std::to_string(Sup.MaxModuleCrashes) + " crashes";
        // Attach the recovered black box: the spans the worker closed
        // before (one of) the deaths, straight from the flight file.
        if (!Flights[Idx].Spans.empty()) {
          O.R.Error += "; flight recorder (" +
                       std::to_string(Flights[Idx].Spans.size()) +
                       " recovered spans, last: " +
                       summarizeFlightTail(Flights[Idx], 5) + ")";
        }
        Done[Idx] = 1;
        ++Completed;
        ++Res.Stats.QuarantinedModules;
        Journal.append(Idx, O);
        if (Events)
          Events->event("module-quarantine")
              .num("module", Idx)
              .str("name", Corpus[Idx].Name)
              .num("crashes", Crashes[Idx])
              .num("flight_spans", Flights[Idx].Spans.size());
        if (Fleet) {
          Fleet->threadName(1 + SlotOf[Idx], Idx, Corpus[Idx].Name);
          Fleet->span(1 + SlotOf[Idx], Idx,
                      Corpus[Idx].Name + " (quarantined)", DispatchUs[Idx],
                      NowUs() - DispatchUs[Idx]);
        }
        if (Opts.Progress) {
          Opts.Progress->noteQuarantine();
          Opts.Progress->noteDone(/*CacheHit=*/false, /*Retried=*/false);
        }
      } else {
        // Front of the queue: the retry should happen promptly (and on
        // a different worker if one is free) rather than after the
        // whole remaining corpus.
        Queue.push_front(Idx);
      }
      S.Busy = false;
    }
    S.BackoffMs = S.BackoffMs == 0
                      ? BackoffBaseMs
                      : std::min(S.BackoffMs * 2, BackoffMaxMs);
    S.RestartAt = Clock::now() + std::chrono::milliseconds(S.BackoffMs);
    if (Events)
      Events->event("worker-backoff")
          .num("worker", Slot)
          .num("backoff_ms", S.BackoffMs);
    if (Opts.Progress)
      Opts.Progress->maybeRender();
    return true;
  };

  // One complete outcome record arrived from a worker.
  auto Complete = [&](WorkerSlot &S, uint32_t Idx, ModuleOutcome &&O) -> bool {
    if (!S.Busy || Idx != S.Module || Done[Idx])
      return false; // outcome for a module we never dispatched: corrupt
    Outcomes[Idx] = std::move(O);
    Done[Idx] = 1;
    ++Completed;
    Journal.append(Idx, Outcomes[Idx]);
    S.Busy = false;
    S.SawBegin = false;
    S.BackoffMs = 0; // a delivered outcome proves the worker is healthy
    if (Events)
      Events->event("module-complete")
          .num("worker", SlotIndex(S))
          .num("module", Idx)
          .str("name", Corpus[Idx].Name)
          .flag("ok", Outcomes[Idx].R.Ok)
          .str("kind", failureKindName(Outcomes[Idx].R.Failure))
          .flag("cache_hit", Outcomes[Idx].Cache == CacheUse::Hit)
          .flag("retried", Outcomes[Idx].Retried);
    if (Fleet) {
      uint64_t End = NowUs();
      uint32_t Pid = 1 + SlotOf[Idx];
      Fleet->threadName(Pid, Idx, Corpus[Idx].Name);
      // The worker-lane gantt bar spans dispatch to completion on the
      // supervisor clock; the module's own spans nest under it, shifted
      // by the same dispatch offset.
      Fleet->span(Pid, Idx, Corpus[Idx].Name, DispatchUs[Idx],
                  End - DispatchUs[Idx]);
      if (!Opts.TraceDir.empty()) {
        std::string Path = Opts.TraceDir + "/" +
                           sanitizeModuleName(Corpus[Idx].Name) +
                           ".trace.json";
        if (!Fleet->mergeModuleTrace(Path, Pid, Idx, DispatchUs[Idx]))
          std::fprintf(
              stderr,
              "lna-corpus: warning: cannot merge trace for %s into the "
              "fleet trace\n",
              Corpus[Idx].Name.c_str());
      }
    }
    if (Opts.Progress) {
      Opts.Progress->setWorkerState(SlotIndex(S), 'i');
      Opts.Progress->noteDone(Outcomes[Idx].Cache == CacheUse::Hit,
                              Outcomes[Idx].Retried);
    }
    return true;
  };

  // Consumes everything parseable at the front of a worker's buffer.
  // False on protocol corruption (the caller kills the worker and lets
  // the death path re-queue its module).
  auto Drain = [&](WorkerSlot &S) -> bool {
    for (;;) {
      if (S.Buf.empty())
        return true;
      if (S.Buf[0] == 'B') {
        size_t NL = S.Buf.find('\n');
        if (NL == std::string::npos)
          return S.Buf.size() <= MaxMarkerLine;
        S.SawBegin = true;
        S.Buf.erase(0, NL + 1);
        continue;
      }
      size_t Consumed = 0;
      uint32_t Idx = 0;
      ModuleOutcome O;
      switch (parseModuleOutcome(S.Buf, Consumed, Idx, O)) {
      case WireParse::NeedMore:
        return true;
      case WireParse::Corrupt:
        return false;
      case WireParse::Ok:
        S.Buf.erase(0, Consumed);
        if (!Complete(S, Idx, std::move(O)))
          return false;
        break;
      }
    }
  };

  // Kills a worker whose protocol or liveness failed and routes it
  // through the death path. False propagates a fatal error.
  auto KillAndHandle = [&](WorkerSlot &S) -> bool {
    S.Proc.kill(SIGKILL);
    return HandleDeath(S, S.Proc.wait());
  };

  while (Completed < N) {
    if (StopSignal) {
      int Sig = StopSignal;
      Journal.close();
      KillAll();
      Flight.remove(); // the raise below skips the destructors
      Res.Error = std::string("supervisor: interrupted by ") +
                  (Sig == SIGINT ? "SIGINT" : "SIGTERM");
      // Re-raise under the restored default disposition so the caller's
      // caller (shell, ctest, another supervisor) sees a signal death.
      struct sigaction DFL {};
      DFL.sa_handler = SIG_DFL;
      sigemptyset(&DFL.sa_mask);
      sigaction(Sig, &DFL, nullptr);
      raise(Sig);
      return Res; // only reached if the signal is blocked
    }

    // Respawn dead slots whose backoff elapsed -- but only while there
    // is queued work for them; a slot that died after the queue drained
    // stays down.
    for (WorkerSlot &S : Slots)
      if (!S.Alive && !Queue.empty() && Clock::now() >= S.RestartAt) {
        if (Spawn(S)) {
          if (S.EverSpawned) {
            ++Res.Stats.WorkerRestarts;
            if (Fleet)
              Fleet->span(0, 2, "restart worker " +
                                    std::to_string(SlotIndex(S)),
                          NowUs(), 0);
          }
          S.EverSpawned = true;
        } else {
          S.BackoffMs = S.BackoffMs == 0
                            ? BackoffBaseMs
                            : std::min(S.BackoffMs * 2, BackoffMaxMs);
          S.RestartAt = Clock::now() + std::chrono::milliseconds(S.BackoffMs);
        }
      }

    // Feed idle workers.
    for (WorkerSlot &S : Slots) {
      if (Queue.empty())
        break;
      if (S.Alive && !S.Busy && !Dispatch(S) && !KillAndHandle(S)) {
        Journal.close();
        KillAll();
        return Res;
      }
    }

    // Enforce the per-dispatch wall timeout. The kill surfaces as an
    // EOF on the worker's pipe in the read pass below.
    if (Sup.WorkerTimeoutMs)
      for (WorkerSlot &S : Slots)
        if (S.Alive && S.Busy && !S.TimedOut && Clock::now() >= S.Deadline) {
          S.TimedOut = true;
          ++Res.Stats.TimeoutKills;
          if (Events)
            Events->event("worker-timeout")
                .num("worker", SlotIndex(S))
                .num("module", S.Module)
                .str("name", Corpus[S.Module].Name)
                .num("timeout_ms", Sup.WorkerTimeoutMs);
          S.Proc.kill(SIGKILL);
        }

    // Multiplex over every live worker's stdout. The timeout is the
    // nearest pending deadline (respawn or wall timeout), clamped so a
    // signal or an overdue event is noticed promptly.
    std::vector<pollfd> Fds;
    std::vector<WorkerSlot *> FdSlots;
    int TimeoutMs = 200;
    auto NowTp = Clock::now();
    auto Consider = [&](Clock::time_point T) {
      long long Ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(T - NowTp)
              .count();
      if (Ms < 1)
        Ms = 1;
      if (Ms < TimeoutMs)
        TimeoutMs = static_cast<int>(Ms);
    };
    for (WorkerSlot &S : Slots) {
      if (S.Alive) {
        Fds.push_back({S.Proc.stdoutFd(), POLLIN, 0});
        FdSlots.push_back(&S);
        if (S.Busy && Sup.WorkerTimeoutMs && !S.TimedOut)
          Consider(S.Deadline);
      } else if (!Queue.empty()) {
        Consider(S.RestartAt);
      }
    }
    if (Fds.empty()) {
      // Every worker is in backoff; sleep until the nearest respawn.
      usleep(static_cast<useconds_t>(TimeoutMs) * 1000);
      continue;
    }
    int PR = ::poll(Fds.data(), Fds.size(), TimeoutMs);
    if (PR < 0 && errno != EINTR) {
      Res.Error = std::string("supervisor: poll: ") + std::strerror(errno);
      Journal.close();
      KillAll();
      return Res;
    }

    for (size_t I = 0; I < Fds.size(); ++I) {
      WorkerSlot &S = *FdSlots[I];
      if (!S.Alive) // killed earlier in this pass (never happens today)
        continue;
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      char Tmp[65536];
      bool Eof = false;
      ssize_t Nr = ::read(S.Proc.stdoutFd(), Tmp, sizeof(Tmp));
      if (Nr > 0)
        S.Buf.append(Tmp, static_cast<size_t>(Nr));
      else if (Nr == 0 || errno != EINTR)
        Eof = true;
      // Drain first: a worker may have written its complete outcome and
      // died right after; that module finished, nothing to re-queue.
      if (!Drain(S)) {
        if (!KillAndHandle(S)) {
          Journal.close();
          KillAll();
          return Res;
        }
        continue;
      }
      if (Eof && !HandleDeath(S, S.Proc.wait())) {
        Journal.close();
        KillAll();
        return Res;
      }
    }
  }

  // Orderly shutdown: ask every surviving worker to quit, give the
  // cohort a grace period, then force the stragglers.
  for (WorkerSlot &S : Slots)
    if (S.Alive) {
      writeAll(S.Proc.stdinFd(), "Q\n");
      S.Proc.closeStdin();
    }
  auto GraceEnd = Clock::now() + std::chrono::milliseconds(ShutdownGraceMs);
  for (WorkerSlot &S : Slots) {
    if (!S.Alive)
      continue;
    while (S.Proc.poll().running() && Clock::now() < GraceEnd)
      usleep(2000);
    if (S.Proc.poll().running())
      S.Proc.kill(SIGKILL);
    S.Proc.wait();
    S.Alive = false;
  }
  Journal.close();

  if (Opts.CaptureOutcomes)
    *Opts.CaptureOutcomes = Outcomes;
  uint64_t AggStart = NowUs();
  Res.Summary = aggregateModuleOutcomes(Corpus, Outcomes, Opts.AliasBackend);
  if (Fleet) {
    Fleet->span(0, 0, "aggregate", AggStart, NowUs() - AggStart);
    Fleet->span(0, 0, "supervised-run", 0, NowUs());
    if (!Fleet->write(Sup.FleetTracePath)) {
      Res.FleetTraceFailed = true;
      std::fprintf(stderr, "lna-corpus: cannot write fleet trace %s\n",
                   Sup.FleetTracePath.c_str());
    }
  }
  Res.Ok = true;
  return Res;
}

int lna::runWorkerLoop(const std::vector<ModuleSpec> &Corpus,
                       const ExperimentOptions &Opts, int InFd, int OutFd) {
  std::string Buf;
  char Tmp[4096];
  for (;;) {
    size_t NL;
    while ((NL = Buf.find('\n')) == std::string::npos) {
      ssize_t Nr = ::read(InFd, Tmp, sizeof(Tmp));
      if (Nr < 0) {
        if (errno == EINTR)
          continue;
        return 1;
      }
      if (Nr == 0)
        return 0; // supervisor closed our stdin: clean shutdown
      Buf.append(Tmp, static_cast<size_t>(Nr));
    }
    std::string Line = Buf.substr(0, NL);
    Buf.erase(0, NL + 1);
    if (Line == "Q")
      return 0;
    unsigned long Idx = 0, Bias = 0;
    int Metrics = 0;
    char Extra = 0;
    if (std::sscanf(Line.c_str(), "M %lu %lu %d %c", &Idx, &Bias, &Metrics,
                    &Extra) != 3 ||
        Idx >= Corpus.size())
      return 2;

    ExperimentOptions Cmd = Opts;
    Cmd.FaultAttemptBias = static_cast<unsigned>(Bias);
    Cmd.CollectMetrics = Metrics != 0;
    // Whole-run concerns stay with the supervisor.
    Cmd.CheckpointFile.clear();
    Cmd.CaptureOutcomes = nullptr;

    if (!writeAll(OutFd, "B " + std::to_string(Idx) + "\n"))
      return 1;
    ModuleOutcome O = runModuleGoverned(Corpus[Idx], Cmd);
    if (!writeAll(OutFd,
                  serializeModuleOutcome(O, static_cast<uint32_t>(Idx))))
      return 1;
  }
}

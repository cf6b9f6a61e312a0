//===- Supervisor.h - process-isolated corpus execution -------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-level fault isolation for the corpus experiment. The
/// in-process runner (Experiment.h) already turns in-process failures
/// -- budget exhaustion, parse/type errors, injected internal errors --
/// into categorized rows, but a module that crashes the process (a
/// genuine segfault, an OOM kill, a runaway loop) still takes the whole
/// run down with it. The supervisor closes that gap:
///
///  * runSupervisedExperiment() spawns N worker processes (the corpus
///    tool re-invoked with --worker), feeds them modules one at a time
///    over a stdin/stdout pipe protocol, and multiplexes their replies
///    with poll(2);
///  * a worker's death is data, not a run failure: the exit is
///    classified (signal vs. exit code, SIGKILL flagged as a possible
///    OOM kill, parent-enforced wall timeouts), the worker is restarted
///    under bounded exponential backoff, and the in-flight module is
///    re-queued with fresh fault draws;
///  * a module that kills its worker MaxModuleCrashes times is
///    quarantined as a FailureKind::Crashed row carrying forensics --
///    how the worker died, the phase it died in, which crash this was,
///    the tail of its recovered spans -- and the run continues;
///  * every worker slot keeps a black box (obs/FlightRecorder.h) in a
///    private directory the supervisor creates under $TMPDIR and removes
///    when the run ends. The black box is the only record of where a
///    worker died: the quarantine row's phase and the `worker-death`
///    event's `phase` field both come from it;
///  * completed outcomes flow back over the same wire format the shard
///    record files use, and the final summary is produced by the same
///    serial aggregation as the in-process runner, so a supervised
///    run's report is byte-identical to `--jobs` by construction.
///
/// Wire protocol (one line-oriented command channel per worker):
///
///   supervisor -> worker   M <index> <attempt-bias> <collect-metrics>\n
///                          Q\n                      (or stdin EOF)
///   worker -> supervisor   B <index>\n              (analysis begins)
///                          <serialized ModuleOutcome record>
///
/// The B marker only tells a death before the analysis began from one
/// during it; the phase comes from the black box, never the pipe.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_CORPUS_SUPERVISOR_H
#define LNA_CORPUS_SUPERVISOR_H

#include "corpus/Experiment.h"

#include <functional>
#include <string>
#include <vector>

namespace lna {

/// Knobs of the supervising scheduler (the analysis itself is entirely
/// configured by ExperimentOptions, which the workers rebuild from
/// their own command line).
struct SupervisorOptions {
  /// Worker processes to keep running (at most one per queued module).
  unsigned Workers = 2;
  /// Command line a worker is spawned with: the corpus tool's own argv
  /// with supervisor-only flags stripped and --worker appended, so the
  /// worker rebuilds the identical corpus and analysis options.
  std::vector<std::string> WorkerArgv;
  /// A module whose worker dies this many times is quarantined as a
  /// FailureKind::Crashed row instead of being re-queued again.
  unsigned MaxModuleCrashes = 3;
  /// Parent-enforced wall timeout per module dispatch; a worker that
  /// exceeds it is SIGKILLed and the death is classified as a timeout.
  /// 0 disables the timeout.
  uint64_t WorkerTimeoutMs = 0;
  /// Test hook: observes every worker pid right after it is spawned
  /// (used by the crash tests to SIGKILL a live worker mid-run).
  std::function<void(int Pid)> OnWorkerSpawn;
  /// When nonempty, a merged Chrome trace_event file is written here
  /// after the run: per-module worker traces (when ExperimentOptions::
  /// TraceDir is set) plus supervisor lifecycle spans, in pid/tid lanes
  /// keyed by worker slot and module global index (obs/FleetTrace.h).
  std::string FleetTracePath;
};

/// What the supervision layer itself did (the analysis results live in
/// the summary). Restarts/crashes are expected under fault injection;
/// quarantines are the rows the report excepts from byte-identity.
struct SupervisorStats {
  uint32_t WorkerCrashes = 0;      ///< workers that died unexpectedly
  uint32_t WorkerRestarts = 0;     ///< replacement workers spawned
  uint32_t TimeoutKills = 0;       ///< workers killed for wall timeout
  uint32_t QuarantinedModules = 0; ///< modules given a Crashed row
};

/// Outcome of a supervised run. !Ok means the supervision machinery
/// itself failed (workers cannot exec, interrupted by a signal) -- an
/// analysis failure of every single module is still Ok with a summary
/// full of failure rows.
struct SupervisedResult {
  bool Ok = false;
  std::string Error;
  CorpusSummary Summary;
  SupervisorStats Stats;
  /// The merged fleet trace could not be written (observability-only:
  /// the analysis results above are still good).
  bool FleetTraceFailed = false;
};

/// Runs the experiment over \p Corpus by farming modules out to worker
/// processes spawned from \p Sup.WorkerArgv. Honors the checkpoint
/// journal of \p Opts (rows are restored before any worker is spawned
/// and appended as outcomes arrive, so kill/resume works exactly as in
/// the in-process runner), fills Opts.CaptureOutcomes when set, and
/// traps SIGINT/SIGTERM: the workers are killed and reaped before the
/// signal is re-raised, so an interrupted supervisor never leaks
/// children. Opts.Jobs is ignored (parallelism is process-level here).
SupervisedResult runSupervisedExperiment(const std::vector<ModuleSpec> &Corpus,
                                         const ExperimentOptions &Opts,
                                         const SupervisorOptions &Sup);

/// The worker side: reads commands from \p InFd, analyzes the named
/// module of \p Corpus under \p Opts via runModuleGoverned() (with the
/// per-command attempt bias and metrics flag applied), and writes the
/// begin marker and the outcome record to \p OutFd. Returns the
/// process exit status: 0 on Q/EOF, 1 when the supervisor pipe broke,
/// 2 on a malformed command.
int runWorkerLoop(const std::vector<ModuleSpec> &Corpus,
                  const ExperimentOptions &Opts, int InFd, int OutFd);

} // namespace lna

#endif // LNA_CORPUS_SUPERVISOR_H

//===- Experiment.h - Section 7 experiment driver -------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the three analysis modes of the paper's Section 7 over driver
/// modules and aggregates the statistics the paper reports:
///
///  * per-module type-error counts under no-confine / confine-inference /
///    all-updates-strong;
///  * the partition of modules into error-free, errors-unrelated-to-
///    strong-updates, fully-recovered, and partially-recovered;
///  * total potential vs. actually eliminated spurious errors (the 95%
///    headline number);
///  * the Figure 6 histogram of eliminated errors per module.
///
/// Modules are independent -- each is parsed once and analyzed in both
/// mode pipelines by its own AnalysisSession, with no shared mutable
/// state -- so the experiment optionally fans out over a fixed thread
/// pool (ExperimentOptions::Jobs). Aggregation is always performed
/// serially in module order, making every result (including the
/// rendered report) byte-identical regardless of job count.
///
/// The runner is fault-isolated: each module analyzes under the resource
/// budget of ExperimentOptions::Limits and (optionally) a per-module
/// seeded fault injector, and any failure -- budget exhaustion, parse or
/// type errors, injected or genuine internal errors -- becomes a
/// categorized Failed row instead of taking the run down. Transient
/// (internal-error) failures get one retry with fresh fault draws, and
/// an optional checkpoint journal makes a killed run resumable without
/// recomputing finished modules.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_CORPUS_EXPERIMENT_H
#define LNA_CORPUS_EXPERIMENT_H

#include "alias/AliasAnalysis.h"
#include "corpus/Corpus.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Budget.h"
#include "support/Stats.h"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lna {

class CacheStore;
class EventJournal;
class FlightRecorder;
class ProgressMeter;

/// Per-module analysis knobs: the resource budget every session of the
/// module runs under, and an optional fault hook installed for the
/// duration of the analysis.
struct ModuleAnalysisOptions {
  ResourceLimits Limits;
  /// May-alias backend every mode pipeline of the module runs with.
  AliasBackendKind AliasBackend = AliasBackendKind::Steensgaard;
  FaultHook *Faults = nullptr;
  /// Collect solver metrics (obs/Metrics.h) into the result's registry.
  bool CollectMetrics = false;
  /// When set, a TraceScope routes the analysis' spans into this sink
  /// for the duration of the module (per-module trace isolation).
  TraceSink *Trace = nullptr;
};

/// Analyzes one module source under all three modes. Aborts via the
/// returned flag (not the counts) if the module fails to parse or type
/// check, exhausts its budget, or hits an (injected) internal error.
struct ModuleModeResult {
  ModeCounts Counts;
  bool Ok = false;
  std::string Error; ///< diagnostics or abort message if !Ok
  /// Failure category if !Ok (never None then).
  FailureKind Failure = FailureKind::None;
  /// The phase the failure surfaced in (empty for load failures).
  std::string FailedPhase;
  /// Per-phase timings/counters of the module's session, accumulated
  /// over both mode pipelines (one parse).
  SessionStats Stats;
  /// Structural solver metrics (only filled when
  /// ModuleAnalysisOptions::CollectMetrics): counters and histograms,
  /// never timings, so merged corpus metrics are deterministic.
  MetricsRegistry Metrics;
};
ModuleModeResult analyzeModuleAllModes(const std::string &Source);
ModuleModeResult analyzeModuleAllModes(const std::string &Source,
                                       const ModuleAnalysisOptions &Opts);

/// How the persistent result cache served one module. Carried on the
/// wire and in shard records, so supervised and sharded runs aggregate
/// the same fleet-wide cache counters a single process would.
enum class CacheUse : uint8_t {
  None, ///< no cache configured, or fault injection disabled it
  Hit,  ///< restored from a stored entry
  Miss, ///< no usable entry (includes trace runs, which skip lookups)
  Stale ///< an entry existed but could no longer serve this run
};

/// Everything one module contributes to the aggregation: the analysis
/// result plus the run-level flags. This is the unit all five consumers
/// traffic in -- the in-process runner, the process supervisor's wire
/// protocol, the shard record files, the result cache's "m-" entries and
/// the checkpoint journal -- so every execution shape aggregates through
/// the same serial merge and produces byte-identical reports, and one
/// record format (serializeModuleOutcome) persists it everywhere.
struct ModuleOutcome {
  ModuleModeResult R;
  bool Retried = false;
  bool Resumed = false;
  bool TraceWriteFailed = false;
  CacheUse Cache = CacheUse::None;
  /// The post-run store of a deterministic outcome failed (cache
  /// directory unwritable, etc.); forensics only, never in the report.
  bool CacheStoreFailed = false;
};

/// Serializes an outcome (with its stats and metrics) as one record:
///
///   outcome 2 <index> <ok> <kind> <retried> <resumed> <tracefail>
///             <cache> <storefail> <nc> <ci> <as> <errlen> <phaselen>
///             <statslen> <metricslen>\n
///   <error><failed-phase><stats><metrics>
///
/// \p Index is the module's position in the full corpus (global, so
/// shard files can be merged back into corpus order). An empty metrics
/// registry is dropped unless \p WithMetrics, which writes it anyway so
/// a reader can tell "collected, empty" from "not collected".
/// \p WithStats = false drops the timing-bearing SessionStats: the
/// persisted records (cache entries, journal rows) never carry them.
std::string serializeModuleOutcome(const ModuleOutcome &O, uint32_t Index,
                                   bool WithMetrics = false,
                                   bool WithStats = true);

/// Result of an incremental parse over a byte stream.
enum class WireParse : uint8_t {
  NeedMore, ///< the buffer does not yet hold a complete record
  Ok,       ///< one record parsed; Consumed bytes were used
  Corrupt,  ///< the buffer cannot be (a prefix of) a valid record
};

/// Parses one serialized outcome record at the front of \p Buf. When
/// \p HasMetrics is non-null it is set to whether the record carried a
/// metrics blob (possibly of an empty registry).
WireParse parseModuleOutcome(std::string_view Buf, size_t &Consumed,
                             uint32_t &Index, ModuleOutcome &O,
                             bool *HasMetrics = nullptr);

/// One row of the experiment.
struct ModuleResult {
  std::string Name;
  ModuleCategory Category = ModuleCategory::Clean;
  ModeCounts Expected;
  ModeCounts Actual;
  bool Ok = false;
  /// Failure category if !Ok.
  FailureKind Failure = FailureKind::None;
  /// Whether the module's analysis was retried after a transient failure.
  bool Retried = false;
  /// Failure detail for stderr reporting (not part of the
  /// deterministic report).
  std::string Error;
};

/// Corpus-wide aggregates (the Section 7 summary statistics).
struct CorpusSummary {
  uint32_t TotalModules = 0;
  /// The may-alias backend the run used (reported in the timed JSON).
  AliasBackendKind Backend = AliasBackendKind::Steensgaard;
  /// Modules whose analysis failed (any category); excluded from the
  /// aggregates below.
  uint32_t FailedModules = 0;
  /// Failed-module counts by FailureKind (indexed by the enum value).
  uint64_t FailuresByKind[NumFailureKinds] = {};
  /// Modules retried after a transient (internal-error) failure, and how
  /// many of those succeeded on the second attempt.
  uint32_t RetriedModules = 0;
  uint32_t RecoveredOnRetry = 0;
  /// Modules restored from a checkpoint journal rather than re-analyzed.
  /// Deliberately absent from the rendered reports: a resumed run's
  /// report must be byte-identical to an uninterrupted one.
  uint32_t ResumedModules = 0;
  /// Modules with no type errors even without confine (paper: 352).
  uint32_t ErrorFree = 0;
  /// Modules with errors that strong updates cannot remove: no-confine
  /// equals all-strong (paper: 85).
  uint32_t ErrorsUnrelatedToStrongUpdates = 0;
  /// Modules where confine inference can make a difference (paper: 152).
  uint32_t ConfineCanMatter = 0;
  /// ... of which confine inference matches all-updates-strong
  /// (paper: 138 of 152).
  uint32_t FullyRecovered = 0;
  /// Sum over all modules of (no-confine - all-strong) (paper: 3,277).
  uint64_t PotentialEliminations = 0;
  /// Sum over all modules of (no-confine - confine) (paper: 3,116 = 95%).
  uint64_t ActualEliminations = 0;
  /// Per-mode error totals over all analyzed modules.
  ModeCounts Totals;

  std::vector<ModuleResult> Modules;

  /// Per-phase timings and counters summed over every module pipeline
  /// (wall-clock sums are CPU time spent, not elapsed time, when Jobs>1).
  SessionStats Stats;

  /// Corpus-wide solver metrics, merged serially in module order (only
  /// filled when ExperimentOptions::CollectMetrics). Purely structural,
  /// so the rendered registry is byte-identical for every job count.
  MetricsRegistry Metrics;

  /// Per-phase wall-clock seconds of every analyzed module, in module
  /// order (resumed rows contribute nothing). Feeds the p50/p95/max
  /// phase-time percentiles of the timing-bearing reports.
  std::vector<std::pair<std::string, std::vector<double>>> PhaseTimes;

  /// Per-module trace files that could not be written (TraceDir runs).
  uint32_t TraceWriteFailures = 0;

  /// Result-cache service counters, summed over the per-module CacheUse
  /// classifications (so they are correct across `--workers` fleets and
  /// `--merge-shards`, where each worker process owns its own store).
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheStale = 0;
  uint32_t CacheStoreFailures = 0;
  /// Whether any outcome carried a CacheUse at all (a cache was
  /// configured somewhere); gates the cache reporting surfaces.
  bool CacheActive = false;

  /// Figure 6: eliminated-errors -> number of modules, over the modules
  /// where confine inference could make a difference.
  std::map<uint32_t, uint32_t> eliminationHistogram() const;

  double eliminationRate() const {
    return PotentialEliminations == 0
               ? 1.0
               : static_cast<double>(ActualEliminations) /
                     static_cast<double>(PotentialEliminations);
  }
};

/// Builds a fault hook for one module analysis attempt from its
/// deterministic seed. Keeps the concrete injector (src/fuzz) out of
/// this library's dependencies: tools and tests supply the factory.
using FaultHookFactory =
    std::function<std::unique_ptr<FaultHook>(uint64_t Seed)>;

/// The deterministic fault seed of one module analysis attempt: a pure
/// function of the base seed, the module *name* (stable across
/// checkpoint resume and job counts), and the attempt number (so a
/// retry sees fresh fault draws).
uint64_t moduleFaultSeed(uint64_t Base, const std::string &Name,
                         unsigned Attempt);

/// Parameters of one experiment run.
struct ExperimentOptions {
  /// Worker threads analyzing modules concurrently. 1 runs inline on the
  /// calling thread; 0 means "one per hardware thread".
  unsigned Jobs = 1;
  /// Resource budget each module analysis runs under.
  ResourceLimits Limits;
  /// May-alias backend every module analyzes with (part of
  /// moduleContentDigest, so caches and checkpoints never cross
  /// backends).
  AliasBackendKind AliasBackend = AliasBackendKind::Steensgaard;
  /// When set, every module attempt analyzes under a hook built from
  /// moduleFaultSeed(FaultSeed, name, attempt).
  FaultHookFactory Faults;
  uint64_t FaultSeed = 1;
  /// Retry a module once (with fresh fault draws) when its failure is
  /// transient (InternalError).
  bool RetryTransient = true;
  /// When nonempty, completed modules are journaled here as they finish
  /// and previously journaled modules are restored (with their metrics)
  /// instead of re-analyzed, making a killed run resumable (see
  /// CheckpointJournal).
  std::string CheckpointFile;
  /// Collect per-module solver metrics and merge them (serially, in
  /// module order) into CorpusSummary::Metrics.
  bool CollectMetrics = false;
  /// When nonempty, each module's spans are written to
  /// <TraceDir>/<sanitized-name>.trace.json as Chrome trace-event JSON.
  std::string TraceDir;
  /// Optional persistent per-module result cache: a module whose
  /// moduleContentDigest() matches a stored entry is restored instead of
  /// re-analyzed (including its serialized metrics registry, so merged
  /// corpus metrics stay byte-identical). Only deterministic outcomes --
  /// success, parse errors, type errors -- are ever stored; budget
  /// aborts, internal errors, and retried modules are not. Ignored
  /// whenever Faults is set (an injected fault must never be memoized as
  /// the module's outcome), and lookups are skipped under TraceDir (a
  /// hit produces no spans; the live run still stores). Owned by the
  /// caller; must outlive the run.
  CacheStore *Cache = nullptr;
  /// Added to the attempt number feeding moduleFaultSeed, so a worker
  /// process re-running a module after a crash sees fresh fault draws
  /// (the in-process transient retry uses attempts Bias+0 and Bias+1;
  /// the supervisor advances the bias by 2 per crash).
  unsigned FaultAttemptBias = 0;
  /// When non-null, the runner appends every module's full outcome (in
  /// module order) here -- the raw material of `--shard-out` record
  /// files. Resumed rows appear with Resumed set and empty stats.
  std::vector<ModuleOutcome> *CaptureOutcomes = nullptr;
  /// Optional fleet-observability hooks (obs/). All timing-bearing and
  /// stderr/file-only: none of them may influence outcomes or any
  /// deterministic output. Owned by the caller; may be null.
  EventJournal *Events = nullptr;   ///< module dispatch/complete events
  ProgressMeter *Progress = nullptr; ///< live `--progress` status line
  /// Worker black box: when set, a TraceSink is kept per attempt even
  /// without TraceDir, and at every phase boundary the recorder notes
  /// the site and receives the sink's tail (see obs/FlightRecorder.h).
  FlightRecorder *Flight = nullptr;
};

/// Digest identifying the run configuration (analyzer version plus the
/// canonical option fingerprints of both mode pipelines, no sources).
/// Stamped into shard record files so records from a different corpus
/// configuration are rejected at merge rather than silently mixed.
std::string experimentOptionsDigest(const ExperimentOptions &Opts);

/// Runs one module under the full governance stack: load-error
/// categorization, result-cache lookup/store, per-module trace capture,
/// fault injection, and the bounded transient-failure retry. The unit
/// of work a corpus worker process executes per supervisor command.
ModuleOutcome runModuleGoverned(const ModuleSpec &Spec,
                                const ExperimentOptions &Opts);

/// Maps a module name onto the filesystem-safe stem its per-module
/// trace file uses under `--trace-dir` (every unsafe byte becomes '_').
/// Exported so the fleet-trace merge finds the files workers wrote.
std::string sanitizeModuleName(const std::string &Name);

/// Serial, module-order aggregation of per-module outcomes into the
/// corpus summary. Shared by the in-process runner, the process
/// supervisor, and shard merging, which is what makes their rendered
/// reports byte-identical by construction.
CorpusSummary aggregateModuleOutcomes(const std::vector<ModuleSpec> &Corpus,
                                      const std::vector<ModuleOutcome> &Out,
                                      AliasBackendKind Backend);

//===----------------------------------------------------------------------===//
// Checkpoint journal
//===----------------------------------------------------------------------===//

/// The checkpoint journal of one run (ExperimentOptions::CheckpointFile),
/// shared by the in-process runner and the supervisor. Each row is a
/// length-framed prefix naming the module and its moduleContentDigest,
/// followed by the module's outcome record (serializeModuleOutcome
/// without SessionStats; with metrics when the run collects them):
///
///   checkpoint <name-len> <digest-len>\n<name><digest><outcome record>
///
/// Every row is written in one write(2) and fsync'ed before append()
/// returns, so a row either survives a crash completely or is a torn
/// tail the loader stops at. Appends are thread-safe.
class CheckpointJournal {
public:
  CheckpointJournal() = default;
  ~CheckpointJournal();
  CheckpointJournal(const CheckpointJournal &) = delete;
  CheckpointJournal &operator=(const CheckpointJournal &) = delete;

  /// No-op unless Opts.CheckpointFile is set. Loads the journal (none
  /// yet is fine) and restores every module of \p Corpus whose latest
  /// row is fresh into \p Out, marked Resumed: the stored digest equals
  /// the module's current one (a module that changed between the kill
  /// and the resume is re-analyzed, never trusted), and the row carries
  /// metrics when the run collects them. Loading stops at the first row
  /// that is torn, garbage or of an older format; the file is cut back
  /// to the complete rows before it, so later appends stay readable,
  /// and opened for appending (a warning on stderr when it cannot be).
  void resume(const std::vector<ModuleSpec> &Corpus,
              const ExperimentOptions &Opts, std::vector<ModuleOutcome> &Out);
  /// Journals the completed outcome of module \p I of the resumed
  /// corpus. No-op when not open.
  void append(size_t I, const ModuleOutcome &O);
  void close();

private:
  int Fd = -1;
  bool WithMetrics = false;
  const std::vector<ModuleSpec> *Corpus = nullptr;
  std::vector<std::string> Digests;
  std::mutex Mutex;
};

/// The content digest identifying one module's analysis under \p Opts: a
/// digest of the analyzer version, the canonical option fingerprints of
/// both mode pipelines (CheckAnnotations and Infer, each carrying
/// Opts.Limits), and the module source. This is both the result-cache
/// key ("m-" namespace) and the freshness digest stored in checkpoint
/// journal rows, so "safe to reuse" means the same thing everywhere.
std::string moduleContentDigest(const ModuleSpec &Spec,
                                const ExperimentOptions &Opts);

/// Runs the full experiment over \p Corpus.
CorpusSummary runCorpusExperiment(const std::vector<ModuleSpec> &Corpus);
CorpusSummary runCorpusExperiment(const std::vector<ModuleSpec> &Corpus,
                                  const ExperimentOptions &Opts);

/// Renders the Section 7 summary (module partition, per-mode totals,
/// elimination rate) as text. Deterministic: contains no timings, so the
/// output is byte-identical across runs and job counts.
std::string renderCorpusReport(const CorpusSummary &S);

/// Renders the full report as JSON: the summary numbers, per-module
/// rows, and (when \p IncludeTimings) the aggregated per-phase stats
/// plus the per-phase wall-time percentiles.
std::string corpusReportJSON(const CorpusSummary &S,
                             bool IncludeTimings = true);

/// Distribution of one phase's per-module wall time across the corpus.
struct PhasePercentile {
  std::string Name;
  double P50Ms = 0.0;
  double P95Ms = 0.0;
  double MaxMs = 0.0;
};

/// p50/p95/max per-module wall time of each phase, in first-seen phase
/// order. The quantile computation is a pure function of
/// CorpusSummary::PhaseTimes (filled in module order), so the result is
/// identical for every job count -- only the times themselves vary
/// between runs.
std::vector<PhasePercentile> phaseWallPercentiles(const CorpusSummary &S);

} // namespace lna

#endif // LNA_CORPUS_EXPERIMENT_H

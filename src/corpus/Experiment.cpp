//===- Experiment.cpp - Section 7 experiment driver -----------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "corpus/Experiment.h"

#include "cache/CacheStore.h"
#include "core/Session.h"
#include "obs/EventJournal.h"
#include "obs/FlightRecorder.h"
#include "obs/Progress.h"
#include "qual/LockAnalysis.h"
#include "support/Hash.h"
#include "support/Subprocess.h"
#include "support/ThreadPool.h"
#include "support/Version.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <unordered_map>

using namespace lna;

namespace {

/// Copies a session failure into the result. Diagnostic-reported
/// failures keep the rendered diagnostics as the error detail; aborts
/// keep the (deterministic) abort message.
void recordSessionFailure(ModuleModeResult &Out, const AnalysisSession &S,
                          const PhaseFailure &F) {
  Out.Failure = F.Kind;
  Out.FailedPhase = F.Phase;
  if (F.Kind == FailureKind::ParseError || F.Kind == FailureKind::TypeError)
    Out.Error = S.diags().render();
  else
    Out.Error = F.Message;
}

/// Maps a serialized status token to a FailureKind. Strict: an
/// unrecognized token rejects the record (old-format or corrupt input
/// must be skipped, not misread as some failure).
bool failureKindFromName(const std::string &Name, FailureKind &Out) {
  for (unsigned K = 0; K < NumFailureKinds; ++K)
    if (Name == failureKindName(static_cast<FailureKind>(K))) {
      Out = static_cast<FailureKind>(K);
      return true;
    }
  return false;
}

} // namespace

ModuleModeResult lna::analyzeModuleAllModes(const std::string &Source) {
  return analyzeModuleAllModes(Source, ModuleAnalysisOptions{});
}

ModuleModeResult
lna::analyzeModuleAllModes(const std::string &Source,
                           const ModuleAnalysisOptions &MOpts) {
  ModuleModeResult Out;
  // The injected hook governs the whole module analysis: every arena
  // allocation and phase boundary of both mode pipelines below.
  std::optional<FaultHookScope> Hook;
  if (MOpts.Faults)
    Hook.emplace(*MOpts.Faults);
  // Metrics/trace routing is likewise scoped to the whole module: the
  // result registry and the caller's sink receive every span and sample
  // of both mode pipelines (and nothing from other modules, since
  // both scopes are thread-local).
  std::optional<MetricsScope> MScope;
  if (MOpts.CollectMetrics)
    MScope.emplace(Out.Metrics);
  std::optional<TraceScope> TScope;
  if (MOpts.Trace)
    TScope.emplace(*MOpts.Trace);

  try {
    faultPoint("corpus:module");

    // One session parses the module once and runs both mode pipelines
    // over that one program. No-confine and all-strong share the
    // annotation-checking run (plain CQual aliasing: no splits, no
    // candidates); confine inference is a second run in inference mode.
    // The session's stats accumulate over both runs.
    PipelineOptions Opts;
    Opts.Mode = PipelineMode::CheckAnnotations;
    Opts.Limits = MOpts.Limits;
    Opts.AliasBackend = MOpts.AliasBackend;
    AnalysisSession S(Opts);
    // The lock phases run through runPhase, so their aborts land in the
    // session failure rather than escaping.
    if (S.run(Source)) {
      Out.Counts.NoConfine = analyzeLocks(S, {}).numErrors();
      LockAnalysisOptions Strong;
      Strong.AllStrong = true;
      Out.Counts.AllStrong = analyzeLocks(S, Strong).numErrors();
    }
    if (!S.failure()) {
      // Checking analyzes the parsed program as is; its nodes live in the
      // session's context, so the program outlives the checking result.
      Program Parsed = std::move(S.result().Analyzed);
      S.setMode(PipelineMode::Infer);
      if (S.run(Parsed))
        Out.Counts.ConfineInference = analyzeLocks(S, {}).numErrors();
    }
    Out.Stats = std::move(S.stats());
    if (S.failure()) {
      recordSessionFailure(Out, S, *S.failure());
      return Out;
    }
    Out.Ok = true;
  } catch (const AnalysisAbort &A) {
    // Backstop for faults fired outside any phase (e.g. the
    // corpus:module injection point above).
    Out.Failure = A.kind();
    Out.Error = A.what();
  } catch (const std::bad_alloc &) {
    Out.Failure = FailureKind::MemoryCap;
    Out.Error = "out of memory";
  } catch (const std::exception &E) {
    Out.Failure = FailureKind::InternalError;
    Out.Error = E.what();
  }
  return Out;
}

namespace {

/// Feeds the run configuration into \p D: the analyzer version and the
/// canonical option fingerprints of both mode pipelines of
/// analyzeModuleAllModes, so an option change to either invalidates the
/// module's cached or journaled outcome and every shard digest.
void updateRunConfig(ContentDigest &D, const ExperimentOptions &Opts) {
  PipelineOptions Check;
  Check.Mode = PipelineMode::CheckAnnotations;
  Check.Limits = Opts.Limits;
  Check.AliasBackend = Opts.AliasBackend;
  PipelineOptions Infer;
  Infer.Limits = Opts.Limits;
  Infer.AliasBackend = Opts.AliasBackend;
  D.update(std::string_view(AnalyzerVersion));
  D.update(canonicalOptionsFingerprint(Check));
  D.update(canonicalOptionsFingerprint(Infer));
}

} // namespace

std::string lna::moduleContentDigest(const ModuleSpec &Spec,
                                     const ExperimentOptions &Opts) {
  ContentDigest D;
  updateRunConfig(D, Opts);
  D.update(Spec.Source);
  D.update(Spec.LoadError);
  return D.hex();
}

std::string lna::experimentOptionsDigest(const ExperimentOptions &Opts) {
  ContentDigest D;
  updateRunConfig(D, Opts);
  return D.hex();
}

std::string lna::serializeModuleOutcome(const ModuleOutcome &O,
                                        uint32_t Index, bool WithMetrics,
                                        bool WithStats) {
  const ModuleModeResult &R = O.R;
  std::string Stats =
      !WithStats || R.Stats.empty() ? std::string() : R.Stats.serialize();
  std::string Metrics = WithMetrics || !R.Metrics.empty()
                            ? R.Metrics.serialize()
                            : std::string();
  std::string Out = "outcome 2 ";
  Out += std::to_string(Index);
  Out += ' ';
  Out += R.Ok ? '1' : '0';
  Out += ' ';
  Out += failureKindName(R.Failure);
  Out += ' ';
  Out += O.Retried ? '1' : '0';
  Out += ' ';
  Out += O.Resumed ? '1' : '0';
  Out += ' ';
  Out += O.TraceWriteFailed ? '1' : '0';
  Out += ' ';
  Out += std::to_string(static_cast<unsigned>(O.Cache));
  Out += ' ';
  Out += O.CacheStoreFailed ? '1' : '0';
  Out += ' ';
  Out += std::to_string(R.Counts.NoConfine);
  Out += ' ';
  Out += std::to_string(R.Counts.ConfineInference);
  Out += ' ';
  Out += std::to_string(R.Counts.AllStrong);
  Out += ' ';
  Out += std::to_string(R.Error.size());
  Out += ' ';
  Out += std::to_string(R.FailedPhase.size());
  Out += ' ';
  Out += std::to_string(Stats.size());
  Out += ' ';
  Out += std::to_string(Metrics.size());
  Out += '\n';
  Out += R.Error;
  Out += R.FailedPhase;
  Out += Stats;
  Out += Metrics;
  return Out;
}

WireParse lna::parseModuleOutcome(std::string_view Buf, size_t &Consumed,
                                  uint32_t &Index, ModuleOutcome &O,
                                  bool *HasMetrics) {
  // An outcome header is a handful of decimal fields; anything that has
  // not produced its newline within 256 bytes is not a record.
  size_t NL = Buf.find('\n');
  if (NL == std::string_view::npos)
    return Buf.size() > 256 ? WireParse::Corrupt : WireParse::NeedMore;
  if (NL > 256)
    return WireParse::Corrupt;
  unsigned long long Ver = 0, Idx = 0, Ok = 0, Retried = 0, Resumed = 0;
  unsigned long long TraceFail = 0, Cache = 0, StoreFail = 0;
  unsigned long long NC = 0, CI = 0, AS = 0;
  unsigned long long ErrLen = 0, PhaseLen = 0, StatsLen = 0, MetricsLen = 0;
  char Kind[32] = {0};
  std::string Header(Buf.substr(0, NL));
  if (std::sscanf(Header.c_str(),
                  "outcome %llu %llu %llu %31s %llu %llu %llu %llu %llu "
                  "%llu %llu %llu %llu %llu %llu %llu",
                  &Ver, &Idx, &Ok, Kind, &Retried, &Resumed, &TraceFail,
                  &Cache, &StoreFail, &NC, &CI, &AS, &ErrLen, &PhaseLen,
                  &StatsLen, &MetricsLen) != 16 ||
      Ver != 2 || Idx > UINT32_MAX ||
      Cache > static_cast<unsigned long long>(CacheUse::Stale))
    return WireParse::Corrupt;
  FailureKind FK = FailureKind::None;
  if (!failureKindFromName(Kind, FK))
    return WireParse::Corrupt;
  // Guard the length sum against overflow before trusting it.
  unsigned long long Total = 0;
  for (unsigned long long L : {ErrLen, PhaseLen, StatsLen, MetricsLen}) {
    if (L > (1ULL << 40) )
      return WireParse::Corrupt;
    Total += L;
  }
  size_t Body = NL + 1;
  if (Buf.size() - Body < Total)
    return WireParse::NeedMore;
  ModuleOutcome Out;
  Out.R.Ok = Ok != 0;
  Out.R.Failure = FK;
  if (Out.R.Ok != (FK == FailureKind::None))
    return WireParse::Corrupt;
  Out.Retried = Retried != 0;
  Out.Resumed = Resumed != 0;
  Out.TraceWriteFailed = TraceFail != 0;
  Out.Cache = static_cast<CacheUse>(Cache);
  Out.CacheStoreFailed = StoreFail != 0;
  Out.R.Counts.NoConfine = static_cast<uint32_t>(NC);
  Out.R.Counts.ConfineInference = static_cast<uint32_t>(CI);
  Out.R.Counts.AllStrong = static_cast<uint32_t>(AS);
  size_t Pos = Body;
  Out.R.Error.assign(Buf.substr(Pos, ErrLen));
  Pos += ErrLen;
  Out.R.FailedPhase.assign(Buf.substr(Pos, PhaseLen));
  Pos += PhaseLen;
  if (StatsLen != 0 &&
      !Out.R.Stats.deserialize(Buf.substr(Pos, StatsLen)))
    return WireParse::Corrupt;
  Pos += StatsLen;
  if (MetricsLen != 0 &&
      !Out.R.Metrics.deserialize(Buf.substr(Pos, MetricsLen)))
    return WireParse::Corrupt;
  Pos += MetricsLen;
  Index = static_cast<uint32_t>(Idx);
  O = std::move(Out);
  Consumed = Pos;
  if (HasMetrics)
    *HasMetrics = MetricsLen != 0;
  return WireParse::Ok;
}

uint64_t lna::moduleFaultSeed(uint64_t Base, const std::string &Name,
                              unsigned Attempt) {
  // FNV-1a over the module *name*: stable across job counts, module
  // subsets, and checkpoint resume (unlike an index-based seed).
  return fnv1a(Name) ^ (Base * 0x9e3779b97f4a7c15ULL) ^
         (static_cast<uint64_t>(Attempt + 1) << 32);
}

std::map<uint32_t, uint32_t> CorpusSummary::eliminationHistogram() const {
  std::map<uint32_t, uint32_t> Hist;
  for (const ModuleResult &M : Modules) {
    if (M.Actual.NoConfine <= M.Actual.AllStrong)
      continue; // confine could not have mattered
    uint32_t Eliminated = M.Actual.NoConfine > M.Actual.ConfineInference
                              ? M.Actual.NoConfine - M.Actual.ConfineInference
                              : 0;
    Hist[Eliminated] += 1;
  }
  return Hist;
}

CorpusSummary
lna::runCorpusExperiment(const std::vector<ModuleSpec> &Corpus) {
  return runCorpusExperiment(Corpus, ExperimentOptions{});
}

std::string lna::sanitizeModuleName(const std::string &Name) {
  std::string Out = Name;
  for (char &C : Out) {
    bool Safe = (C >= 'A' && C <= 'Z') || (C >= 'a' && C <= 'z') ||
                (C >= '0' && C <= '9') || C == '.' || C == '_' || C == '-';
    if (!Safe)
      C = '_';
  }
  return Out;
}

namespace {

//===----------------------------------------------------------------------===//
// Persisted outcomes: result-cache entries and checkpoint journal rows
//===----------------------------------------------------------------------===//
//
// Both persist a module outcome as one serializeModuleOutcome record with
// no SessionStats (timing-bearing by definition, so cache hits and
// resumed modules contribute nothing to the timing sections) and, when
// the producing run collected metrics, a metrics blob even for an empty
// registry, so a warm or resumed metrics run merges byte-identical
// registries in module order.

/// The outcomes the result cache may store: reproducible from the source
/// and options alone. Budget aborts, internal errors and quarantines are
/// not (the checkpoint journal keeps every completed outcome).
bool isDeterministic(const ModuleModeResult &R) {
  return R.Ok || R.Failure == FailureKind::ParseError ||
         R.Failure == FailureKind::TypeError;
}

std::string persistedRecord(const ModuleOutcome &O, bool WithMetrics) {
  return serializeModuleOutcome(O, /*Index=*/0, WithMetrics,
                                /*WithStats=*/false);
}

/// Restores a persisted record that must span exactly \p Bytes into
/// \p O. Fails when the bytes are not one record or the record cannot
/// serve this run: a metrics run needs a record written with metrics,
/// and a run without metrics drops them. The flags describing the run
/// that wrote the record (cache use, trace and store failures) are
/// cleared; callers mark the restore as a cache hit or a resume.
bool restorePersisted(std::string_view Bytes, bool WantMetrics,
                      ModuleOutcome &O) {
  size_t Consumed = 0;
  uint32_t Index = 0;
  bool HasMetrics = false;
  ModuleOutcome R;
  if (parseModuleOutcome(Bytes, Consumed, Index, R, &HasMetrics) !=
          WireParse::Ok ||
      Consumed != Bytes.size() || (WantMetrics && !HasMetrics))
    return false;
  if (!WantMetrics)
    R.R.Metrics = MetricsRegistry();
  R.Cache = CacheUse::None;
  R.TraceWriteFailed = false;
  R.CacheStoreFailed = false;
  O = std::move(R);
  return true;
}

/// Reads one journal row's "checkpoint <name-len> <digest-len>\n<name>
/// <digest>" prefix at the front of \p Buf. False when the prefix is
/// incomplete (a torn tail) or is not one (garbage, an older format).
bool readJournalPrefix(std::string_view Buf, size_t &Consumed,
                       std::string_view &Name, std::string_view &Digest) {
  size_t NL = Buf.find('\n');
  if (NL == std::string_view::npos || NL > 64)
    return false;
  unsigned long long NameLen = 0, DigestLen = 0;
  int Used = 0;
  std::string Header(Buf.substr(0, NL));
  size_t Avail = Buf.size() - NL - 1;
  if (std::sscanf(Header.c_str(), "checkpoint %llu %llu%n", &NameLen,
                  &DigestLen, &Used) != 2 ||
      static_cast<size_t>(Used) != NL || NameLen > Avail ||
      DigestLen > Avail - NameLen)
    return false;
  Name = Buf.substr(NL + 1, NameLen);
  Digest = Buf.substr(NL + 1 + NameLen, DigestLen);
  Consumed = NL + 1 + NameLen + DigestLen;
  return true;
}

} // namespace

CheckpointJournal::~CheckpointJournal() { close(); }

void CheckpointJournal::resume(const std::vector<ModuleSpec> &Corpus,
                               const ExperimentOptions &Opts,
                               std::vector<ModuleOutcome> &Out) {
  close();
  if (Opts.CheckpointFile.empty())
    return;
  this->Corpus = &Corpus;
  WithMetrics = Opts.CollectMetrics;
  Digests.clear();
  for (const ModuleSpec &Spec : Corpus)
    Digests.push_back(moduleContentDigest(Spec, Opts));

  std::ifstream In(Opts.CheckpointFile, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  // Each module's latest complete row: (digest, outcome record).
  std::unordered_map<std::string_view,
                     std::pair<std::string_view, std::string_view>>
      Latest;
  std::string_view Rest(Bytes);
  for (;;) {
    size_t PrefixLen = 0, RecordLen = 0;
    std::string_view Name, Digest;
    uint32_t Index = 0;
    ModuleOutcome Parsed;
    if (!readJournalPrefix(Rest, PrefixLen, Name, Digest) ||
        parseModuleOutcome(Rest.substr(PrefixLen), RecordLen, Index,
                           Parsed) != WireParse::Ok)
      break;
    Latest[Name] = {Digest, Rest.substr(PrefixLen, RecordLen)};
    Rest.remove_prefix(PrefixLen + RecordLen);
  }
  for (size_t I = 0; I < Corpus.size(); ++I) {
    auto It = Latest.find(Corpus[I].Name);
    if (It != Latest.end() && It->second.first == Digests[I] &&
        restorePersisted(It->second.second, WithMetrics, Out[I]))
      Out[I].Resumed = true;
  }

  Fd = ::open(Opts.CheckpointFile.c_str(), O_WRONLY | O_CREAT | O_APPEND,
              0644);
  // Cut a torn or unreadable tail: a row appended after it would be
  // misframed by the next resume.
  if (Fd >= 0 && !Rest.empty() &&
      ::ftruncate(Fd, static_cast<off_t>(Bytes.size() - Rest.size())) != 0)
    close();
  if (Fd < 0)
    std::fprintf(stderr,
                 "lna-corpus: warning: cannot append to checkpoint '%s'\n",
                 Opts.CheckpointFile.c_str());
}

void CheckpointJournal::append(size_t I, const ModuleOutcome &O) {
  if (Fd < 0)
    return;
  const std::string &Name = (*Corpus)[I].Name;
  std::string Row = "checkpoint ";
  Row += std::to_string(Name.size());
  Row += ' ';
  Row += std::to_string(Digests[I].size());
  Row += '\n';
  Row += Name;
  Row += Digests[I];
  Row += persistedRecord(O, WithMetrics);
  std::lock_guard<std::mutex> Lock(Mutex);
  // One write per row (O_APPEND keeps concurrent appenders from
  // interleaving), then fsync: the row only counts as durable once it
  // is on stable storage -- a journal that lies about completed modules
  // under power loss is worse than no journal.
  if (writeAll(Fd, Row))
    ::fsync(Fd);
}

void CheckpointJournal::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

namespace {

/// Chains the flight recorder in front of an (optional) fault injector
/// at every phase-boundary site: the recorder first persists the spans
/// closed so far and the site itself (so the black box is current
/// *before* an injected kill fires), then the inner hook gets its chance
/// to fault there. Allocation sites bypass the recorder -- they fire
/// thousands of times per module and carry no phase information.
struct ObservingHook final : FaultHook {
  FlightRecorder *Flight = nullptr;
  const TraceSink *Sink = nullptr;
  FaultHook *Inner = nullptr;
  void at(const char *Site) override {
    if (std::strncmp(Site, "alloc:", 6) != 0) {
      Flight->flush(*Sink);
      Flight->noteSite(Site);
    }
    if (Inner)
      Inner->at(Site);
  }
};

} // namespace

ModuleOutcome lna::runModuleGoverned(const ModuleSpec &Spec,
                                     const ExperimentOptions &Opts) {
  ModuleOutcome Slot;
  if (!Spec.LoadError.empty()) {
    // The module never made it to the analyzer; categorize the load
    // failure as a parse error without running anything. Load failures
    // depend on filesystem state, so they are never cached either.
    Slot.R.Failure = FailureKind::ParseError;
    Slot.R.Error = Spec.LoadError;
    return Slot;
  }

  // Fault injection disables the cache entirely: a fault-shaped outcome
  // must never be memoized, and a hit would silently skip the injection
  // points a fault run exists to exercise.
  std::string Key;
  if (Opts.Cache && !Opts.Faults) {
    // Classified Miss until an entry actually serves (or refuses) this
    // run; trace runs that skip the lookup count as misses too.
    Slot.Cache = CacheUse::Miss;
    Key = "m-" + moduleContentDigest(Spec, Opts);
    // Trace runs skip the lookup (a hit would produce an empty trace
    // file) but still store below, warming the cache for later runs.
    if (Opts.TraceDir.empty()) {
      if (std::optional<std::string> Entry = Opts.Cache->load(Key)) {
        // Only deterministic outcomes are ever stored; anything else
        // means corruption (the envelope checksum makes this nearly
        // unreachable).
        ModuleOutcome Hit;
        if (restorePersisted(*Entry, Opts.CollectMetrics, Hit) &&
            isDeterministic(Hit.R)) {
          Hit.Cache = CacheUse::Hit;
          return Hit;
        }
        Opts.Cache->noteSemanticStale();
        Slot.Cache = CacheUse::Stale;
      }
    }
  }

  // The black box drains the sink incrementally at every phase
  // boundary, so when only the flight recorder needs one a small ring
  // suffices -- the full-size ring costs ~1MB of zeroed memory per
  // module, which dominates small-module runs. The sink itself is
  // thread-local and reset per module rather than reconstructed: a
  // fresh heap allocation between every module perturbs the allocator
  // state the analysis sees, which costs more than the ring itself on
  // sub-millisecond modules.
  const size_t SinkCapacity =
      !Opts.TraceDir.empty() ? TraceSink::DefaultCapacity : 256;
  static thread_local TraceSink ReusedSink(1);
  TraceSink *Sink = nullptr;
  if (!Opts.TraceDir.empty() || Opts.Flight) {
    ReusedSink.reset(SinkCapacity);
    Sink = &ReusedSink;
  }
  auto Finish = [&] {
    if (!Sink || Opts.TraceDir.empty())
      return;
    std::string Path =
        Opts.TraceDir + "/" + sanitizeModuleName(Spec.Name) + ".trace.json";
    std::ofstream Out(Path, std::ios::trunc);
    Out << Sink->renderChromeJSON();
    if (!Out) {
      std::fprintf(stderr, "lna-corpus: cannot write trace file %s\n",
                   Path.c_str());
      Slot.TraceWriteFailed = true;
    }
  };
  for (unsigned Attempt = 0;; ++Attempt) {
    ModuleAnalysisOptions MOpts;
    MOpts.Limits = Opts.Limits;
    MOpts.AliasBackend = Opts.AliasBackend;
    MOpts.CollectMetrics = Opts.CollectMetrics;
    if (Sink)
      MOpts.Trace = Sink;
    // Every attempt restarts the black box: a retried attempt's spans
    // describe a pipeline that produced no outcome, and the file must
    // describe whatever attempt was live when a crash hit.
    if (Opts.Flight)
      Opts.Flight->beginModule(Spec.Name);
    std::unique_ptr<FaultHook> Hook;
    if (Opts.Faults) {
      Hook = Opts.Faults(moduleFaultSeed(Opts.FaultSeed, Spec.Name,
                                         Attempt + Opts.FaultAttemptBias));
      MOpts.Faults = Hook.get();
    }
    ObservingHook Observing;
    if (Opts.Flight) {
      Observing.Flight = Opts.Flight;
      Observing.Sink = Sink;
      Observing.Inner = Hook.get();
      MOpts.Faults = &Observing;
    }
    ModuleModeResult R = analyzeModuleAllModes(Spec.Source, MOpts);
    bool Transient = !R.Ok && R.Failure == FailureKind::InternalError;
    if (Transient && Opts.RetryTransient && Attempt == 0) {
      // Discard the aborted attempt wholesale -- its stats, metrics, and
      // trace spans describe a pipeline that produced no outcome. Only
      // the kept attempt reaches the aggregation, so a run where the
      // retry fired reports the same counters, histograms, per-phase
      // samples, and spans as one where it did not.
      Slot.Retried = true;
      if (Sink)
        Sink->reset(SinkCapacity);
      continue;
    }
    Slot.R = std::move(R);
    break;
  }
  // Spans closed after the last phase boundary (the tail of the final
  // pipeline) only reach the black box here.
  if (Opts.Flight)
    Opts.Flight->flush(*Sink);
  Finish();
  // Memoize deterministic outcomes only. A retried-then-succeeded module
  // still ran under fault injection, which already disabled the cache.
  if (!Key.empty() && isDeterministic(Slot.R))
    Slot.CacheStoreFailed = !Opts.Cache->store(
        Key, persistedRecord(Slot, Opts.CollectMetrics));
  return Slot;
}

CorpusSummary
lna::runCorpusExperiment(const std::vector<ModuleSpec> &Corpus,
                         const ExperimentOptions &Opts) {
  std::vector<ModuleOutcome> Results(Corpus.size());
  unsigned Jobs = Opts.Jobs;
  if (Jobs == 0) {
    Jobs = std::thread::hardware_concurrency();
    if (Jobs == 0)
      Jobs = 1;
  }

  // Checkpoint journal: previously completed modules are restored
  // instead of re-analyzed; newly completed modules are appended (each
  // row fsync'ed) as they finish, so a killed run loses at most the
  // modules in flight.
  CheckpointJournal Journal;
  Journal.resume(Corpus, Opts, Results);
  auto RunOne = [&](size_t I) {
    const ModuleSpec &Spec = Corpus[I];
    if (Results[I].Resumed) {
      if (Opts.Events)
        Opts.Events->event("module-resumed")
            .num("module", I)
            .str("name", Spec.Name);
      if (Opts.Progress)
        Opts.Progress->noteDone(/*CacheHit=*/false, Results[I].Retried);
      return;
    }
    if (Opts.Events)
      Opts.Events->event("module-dispatch")
          .num("module", I)
          .str("name", Spec.Name);
    Results[I] = runModuleGoverned(Spec, Opts);
    Journal.append(I, Results[I]);
    if (Opts.Events)
      Opts.Events->event("module-complete")
          .num("module", I)
          .str("name", Spec.Name)
          .flag("ok", Results[I].R.Ok)
          .str("kind", failureKindName(Results[I].R.Failure))
          .flag("cache_hit", Results[I].Cache == CacheUse::Hit)
          .flag("retried", Results[I].Retried);
    if (Opts.Progress)
      Opts.Progress->noteDone(Results[I].Cache == CacheUse::Hit,
                              Results[I].Retried);
  };

  // Analysis fan-out: each module gets its own AnalysisSession, so the
  // only shared state is the per-module result slot, owned exclusively
  // by one task, and the mutex-guarded journal.
  if (Jobs <= 1 || Corpus.size() <= 1) {
    for (size_t I = 0; I < Corpus.size(); ++I)
      RunOne(I);
  } else {
    ThreadPool Pool(Jobs);
    for (size_t I = 0; I < Corpus.size(); ++I)
      Pool.submit([&RunOne, I] { RunOne(I); });
    Pool.wait();
  }

  if (Opts.CaptureOutcomes)
    *Opts.CaptureOutcomes = Results;
  return aggregateModuleOutcomes(Corpus, Results, Opts.AliasBackend);
}

CorpusSummary
lna::aggregateModuleOutcomes(const std::vector<ModuleSpec> &Corpus,
                             const std::vector<ModuleOutcome> &Results,
                             AliasBackendKind Backend) {
  // Aggregation: always serial and in module order, so summaries (and
  // the rendered reports) are byte-identical for every job count,
  // worker count, and shard split.
  CorpusSummary S;
  S.TotalModules = static_cast<uint32_t>(Corpus.size());
  S.Backend = Backend;
  // Phase-name -> index into S.PhaseTimes: every module reports the same
  // handful of phases, and a linear rescan per phase per module is
  // quadratic at corpus scale. First-seen append order is preserved (the
  // percentile table ordering is golden-tested).
  std::unordered_map<std::string, size_t> PhaseIndex;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    const ModuleSpec &Spec = Corpus[I];
    const ModuleModeResult &R = Results[I].R;
    ModuleResult M;
    M.Name = Spec.Name;
    M.Category = Spec.Category;
    M.Expected = Spec.Expected;
    M.Actual = R.Counts;
    M.Ok = R.Ok;
    M.Failure = R.Failure;
    M.Retried = Results[I].Retried;
    M.Error = R.Error;
    S.Modules.push_back(M);
    S.Stats.merge(R.Stats);
    S.Metrics.merge(R.Metrics);
    // Per-phase wall-time samples, appended in module order so the
    // percentile computation is independent of the job count.
    for (const PhaseStats &PS : R.Stats.phases()) {
      auto [It, Inserted] = PhaseIndex.emplace(PS.Name, S.PhaseTimes.size());
      if (Inserted)
        S.PhaseTimes.emplace_back(PS.Name, std::vector<double>{});
      S.PhaseTimes[It->second].second.push_back(PS.Seconds);
    }
    if (Results[I].TraceWriteFailed)
      ++S.TraceWriteFailures;
    switch (Results[I].Cache) {
    case CacheUse::None:
      break;
    case CacheUse::Hit:
      S.CacheActive = true;
      ++S.CacheHits;
      break;
    case CacheUse::Miss:
      S.CacheActive = true;
      ++S.CacheMisses;
      break;
    case CacheUse::Stale:
      S.CacheActive = true;
      ++S.CacheStale;
      break;
    }
    if (Results[I].CacheStoreFailed)
      ++S.CacheStoreFailures;
    if (Results[I].Resumed)
      ++S.ResumedModules;
    if (Results[I].Retried) {
      ++S.RetriedModules;
      if (R.Ok)
        ++S.RecoveredOnRetry;
    }
    if (!R.Ok) {
      ++S.FailedModules;
      ++S.FailuresByKind[static_cast<unsigned>(R.Failure)];
      continue;
    }

    const ModeCounts &C = R.Counts;
    S.Totals += C;
    if (C.NoConfine == 0) {
      ++S.ErrorFree;
    } else if (C.NoConfine == C.AllStrong) {
      ++S.ErrorsUnrelatedToStrongUpdates;
    } else {
      ++S.ConfineCanMatter;
      if (C.ConfineInference == C.AllStrong)
        ++S.FullyRecovered;
    }
    // Saturating: a mode with strictly more errors than no-confine would
    // indicate an analysis bug; never wrap the aggregate.
    S.PotentialEliminations +=
        C.NoConfine > C.AllStrong ? C.NoConfine - C.AllStrong : 0;
    S.ActualEliminations +=
        C.NoConfine > C.ConfineInference ? C.NoConfine - C.ConfineInference
                                         : 0;
  }
  return S;
}

std::string lna::renderCorpusReport(const CorpusSummary &S) {
  std::string Out;
  char Buf[160];
  auto Row = [&](const char *Label, uint64_t Value) {
    std::snprintf(Buf, sizeof(Buf), "%-52s %10llu\n", Label,
                  static_cast<unsigned long long>(Value));
    Out += Buf;
  };
  Row("modules analyzed", S.TotalModules);
  if (S.FailedModules) {
    Row("modules failed to analyze", S.FailedModules);
    // Category breakdown in fixed enum order; zero categories stay
    // silent so fault-free reports keep their historical shape.
    for (unsigned K = 1; K < NumFailureKinds; ++K)
      if (S.FailuresByKind[K]) {
        std::string Label =
            std::string("  ... ") + failureKindName(static_cast<FailureKind>(K));
        Row(Label.c_str(), S.FailuresByKind[K]);
      }
  }
  if (S.RetriedModules) {
    Row("modules retried after transient failure", S.RetriedModules);
    Row("  ... of which recovered on retry", S.RecoveredOnRetry);
  }
  Row("modules free of type errors", S.ErrorFree);
  Row("modules with errors unrelated to strong updates",
      S.ErrorsUnrelatedToStrongUpdates);
  Row("modules where confine inference can matter", S.ConfineCanMatter);
  Row("  ... of which confine matches all-updates-strong", S.FullyRecovered);
  Row("total errors, no confine", S.Totals.NoConfine);
  Row("total errors, confine inference", S.Totals.ConfineInference);
  Row("total errors, all updates strong", S.Totals.AllStrong);
  Row("potential spurious-error eliminations", S.PotentialEliminations);
  Row("errors eliminated by confine inference", S.ActualEliminations);
  std::snprintf(Buf, sizeof(Buf), "%-52s %9.1f%%\n", "elimination rate",
                S.eliminationRate() * 100.0);
  Out += Buf;
  return Out;
}

std::string lna::corpusReportJSON(const CorpusSummary &S,
                                  bool IncludeTimings) {
  std::string Out = "{\"summary\":{";
  auto Field = [&](const char *Name, uint64_t Value, bool Comma = true) {
    Out += '"';
    Out += Name;
    Out += "\":";
    Out += std::to_string(Value);
    if (Comma)
      Out += ',';
  };
  Field("modules", S.TotalModules);
  Field("failed", S.FailedModules);
  Out += "\"failures_by_kind\":{";
  bool FirstKind = true;
  for (unsigned K = 1; K < NumFailureKinds; ++K) {
    if (!S.FailuresByKind[K])
      continue;
    if (!FirstKind)
      Out += ',';
    FirstKind = false;
    Out += '"';
    Out += failureKindName(static_cast<FailureKind>(K));
    Out += "\":";
    Out += std::to_string(S.FailuresByKind[K]);
  }
  Out += "},";
  Field("retried", S.RetriedModules);
  Field("recovered_on_retry", S.RecoveredOnRetry);
  Field("error_free", S.ErrorFree);
  Field("errors_unrelated_to_strong_updates",
        S.ErrorsUnrelatedToStrongUpdates);
  Field("confine_can_matter", S.ConfineCanMatter);
  Field("fully_recovered", S.FullyRecovered);
  Field("total_errors_no_confine", S.Totals.NoConfine);
  Field("total_errors_confine_inference", S.Totals.ConfineInference);
  Field("total_errors_all_strong", S.Totals.AllStrong);
  Field("potential_eliminations", S.PotentialEliminations);
  Field("actual_eliminations", S.ActualEliminations, /*Comma=*/false);
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), ",\"elimination_rate\":%.4f",
                S.eliminationRate());
  Out += Buf;
  Out += "},\"modules\":[";
  bool First = true;
  for (const ModuleResult &M : S.Modules) {
    if (!First)
      Out += ',';
    First = false;
    Out += "{\"name\":\"";
    Out += jsonEscape(M.Name);
    Out += "\",\"category\":\"";
    Out += moduleCategoryName(M.Category);
    Out += "\",\"ok\":";
    Out += M.Ok ? "true" : "false";
    Out += ",\"no_confine\":";
    Out += std::to_string(M.Actual.NoConfine);
    Out += ",\"confine_inference\":";
    Out += std::to_string(M.Actual.ConfineInference);
    Out += ",\"all_strong\":";
    Out += std::to_string(M.Actual.AllStrong);
    if (!M.Ok) {
      Out += ",\"failure\":\"";
      Out += failureKindName(M.Failure);
      Out += '"';
    }
    if (M.Retried)
      Out += ",\"retried\":true";
    Out += '}';
  }
  Out += ']';
  if (IncludeTimings) {
    // The timed report describes one concrete run, so it names the
    // backend that produced it; the deterministic report's shape stays
    // pinned by the golden tests.
    Out += ",\"backend\":\"";
    Out += aliasBackendName(S.Backend);
    Out += '"';
    if (S.CacheActive) {
      // Fleet-correct cache counters: summed from per-module outcomes,
      // so worker processes and merged shards report what one process
      // would have.
      Out += ",\"cache\":{\"hits\":";
      Out += std::to_string(S.CacheHits);
      Out += ",\"misses\":";
      Out += std::to_string(S.CacheMisses);
      Out += ",\"stale\":";
      Out += std::to_string(S.CacheStale);
      Out += ",\"store_failures\":";
      Out += std::to_string(S.CacheStoreFailures);
      Out += '}';
    }
    Out += ",\"phases\":";
    Out += S.Stats.renderJSON();
    Out += ",\"phase_percentiles\":[";
    bool FirstPhase = true;
    for (const PhasePercentile &P : phaseWallPercentiles(S)) {
      if (!FirstPhase)
        Out += ',';
      FirstPhase = false;
      char PBuf[160];
      std::snprintf(PBuf, sizeof(PBuf),
                    "{\"name\":\"%s\",\"p50_ms\":%.3f,\"p95_ms\":%.3f,"
                    "\"max_ms\":%.3f}",
                    jsonEscape(P.Name).c_str(), P.P50Ms, P.P95Ms, P.MaxMs);
      Out += PBuf;
    }
    Out += ']';
  }
  Out += '}';
  return Out;
}

std::vector<PhasePercentile>
lna::phaseWallPercentiles(const CorpusSummary &S) {
  std::vector<PhasePercentile> Out;
  for (const auto &[Name, Times] : S.PhaseTimes) {
    if (Times.empty())
      continue;
    std::vector<double> Sorted = Times;
    std::sort(Sorted.begin(), Sorted.end());
    // Nearest-rank quantile: the smallest sample with at least q*N
    // samples at or below it.
    auto Rank = [&](double Q) {
      size_t R = static_cast<size_t>(Q * static_cast<double>(Sorted.size()));
      if (static_cast<double>(R) < Q * static_cast<double>(Sorted.size()))
        ++R; // ceil
      if (R < 1)
        R = 1;
      return Sorted[R - 1];
    };
    PhasePercentile P;
    P.Name = Name;
    P.P50Ms = Rank(0.5) * 1e3;
    P.P95Ms = Rank(0.95) * 1e3;
    P.MaxMs = Sorted.back() * 1e3;
    Out.push_back(std::move(P));
  }
  return Out;
}

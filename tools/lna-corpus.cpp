//===- lna-corpus.cpp - Parallel corpus experiment driver -----*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Runs the Section 7 experiment over the bundled 589-module synthetic
// driver corpus (or over module files given as positional arguments),
// fanning modules out over a thread pool:
//
//   lna-corpus [options] [module-file...]
//
//   --jobs=N           worker threads (default 1; 'auto' = one per
//                      hardware thread)
//   --limit=N          analyze only the first N modules (smoke tests)
//   --json=FILE        write the full JSON report to FILE ('-' for stdout)
//   --stats            print the aggregated per-phase timing/counter table
//                      (at --jobs=1 an outside-phases line makes its
//                      total the wall-clock)
//   --timeout-ms=N     per-module wall-clock deadline
//   --max-memory-mb=N  per-module AST arena byte cap
//   --max-steps=N      per-module analysis step cap
//   --checkpoint=FILE  journal completed modules to FILE and resume from
//                      it (kill-safe: a re-run skips finished modules)
//   --metrics-out=FILE write corpus-wide solver metrics (counters +
//                      histograms, merged in module order) as JSON
//                      ('-' for stdout); byte-identical for every --jobs
//   --trace-dir=DIR    write one Chrome trace-event JSON file per module
//                      into DIR (<sanitized-module-name>.trace.json)
//   --cache-dir=DIR    persistent per-module result cache: modules whose
//                      content digest (source + options + tool version)
//                      matches a stored entry are restored instead of
//                      re-analyzed; a warm run's reports are
//                      byte-identical to the cold run's. Conflicts with
//                      --inject-faults.
//   --inject-faults=S  fault-injection spec (testing):
//                      seed=S,bad-alloc=P,internal=P,delay=P,delay-ms=N,
//                      kill=P,exit=P with probabilities in
//                      parts-per-million (kill/exit terminate the worker
//                      process and therefore require --workers)
//   --alias=BACKEND    may-alias backend for every module: 'steensgaard'
//                      (default) or 'andersen'
//
// Fleet observability (all off by default; none of these change any
// report, JSON, checkpoint, shard, or metrics byte):
//
//   --events-out=FILE  JSONL journal of typed run-lifecycle events
//                      (worker spawn/death/restart/backoff/timeout/
//                      quarantine, module dispatch/complete, shard and
//                      cache activity) with monotonic ts_us timestamps
//   --progress[=MS]    throttled live status line on stderr (done/total,
//                      rate, ETA, per-worker state, retry/crash/cache
//                      counters), repainted at most every MS ms
//                      (default 250)
//   --flight-file=FILE internal (requires --worker): persist the phase-
//                      boundary site and the span ring tail to FILE at
//                      every phase boundary; the supervisor assigns one
//                      file per worker slot in a private directory under
//                      $TMPDIR, reads it after a crash to name the phase
//                      the worker died in, and removes it at the end
//
// Under --workers, --trace-dir additionally writes DIR/fleet.trace.json:
// every per-module trace merged with supervisor lifecycle spans into one
// Chrome trace with pid/tid lanes per worker slot and module index.
//
// Process isolation and sharding:
//
//   --workers=N        farm modules out to N worker *processes* under a
//                      crash-supervising scheduler: a worker death
//                      (segfault, OOM kill, injected kill) is classified
//                      and the worker restarted; a module that kills its
//                      worker repeatedly is quarantined as a 'crashed'
//                      row. Conflicts with --jobs.
//   --worker           internal: run as a supervisor's worker process,
//                      speaking the module protocol on stdin/stdout
//   --worker-timeout-ms=N  supervisor-enforced wall deadline per module
//                      dispatch; an overrunning worker is killed and the
//                      death handled like a crash (requires --workers)
//   --max-module-crashes=K quarantine a module after K worker crashes
//                      (default 3; requires --workers)
//   --shard=I/N        analyze only modules with index % N == I (0-based)
//   --shard-out=FILE   write the shard's per-module outcome records
//                      (with corpus-global indices) to FILE for merging
//   --merge-shards     positional arguments are shard record files;
//                      validate that they cover the whole corpus exactly
//                      once under identical options, then aggregate them
//                      into the usual reports without re-analyzing
//
// Results are aggregated in module order, so every output except the
// wall-clock line is byte-identical for every --jobs value, every
// --workers value, and every shard split. Module failures -- parse/type
// errors, budget exhaustion, injected faults, quarantined crashers --
// are categorized rows in the report, not fatal: the run always covers
// the whole corpus.
//
// Exit status:
//   0  run completed (individual module failures are reported, not fatal)
//   1  usage errors
//   2  invalid or conflicting flag value
//   3  every module failed to analyze (or a report/checkpoint/metrics/
//      trace/shard file could not be written, the cache directory could
//      not be created, shard records failed validation, or the
//      supervisor could not run its workers)
//
//===----------------------------------------------------------------------===//

#include "cache/CacheStore.h"
#include "corpus/Supervisor.h"
#include "fuzz/FaultInjector.h"
#include "obs/EventJournal.h"
#include "obs/FlightRecorder.h"
#include "obs/Progress.h"
#include "support/ParseArg.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <unistd.h>

using namespace lna;

namespace {

struct CliOptions {
  unsigned Jobs = 1;
  bool SawJobs = false;
  uint32_t Limit = 0; ///< 0 = whole corpus
  bool PrintStats = false;
  std::string JsonFile;
  std::string CheckpointFile;
  std::string MetricsOutFile;
  std::string TraceDir;
  std::string CacheDir;
  ResourceLimits Limits;
  AliasBackendKind AliasBackend = AliasBackendKind::Steensgaard;
  bool InjectFaults = false;
  FaultSpec Faults;
  unsigned Workers = 0; ///< 0 = in-process run (no supervisor)
  bool WorkerMode = false;
  uint64_t WorkerTimeoutMs = 0;
  unsigned MaxModuleCrashes = 3;
  uint32_t ShardIndex = 0;
  uint32_t ShardCount = 0; ///< 0 = no shard filter
  std::string ShardOutFile;
  bool MergeShards = false;
  std::string EventsOutFile;
  bool Progress = false;
  uint64_t ProgressEveryMs = 250;
  std::string FlightFile; ///< worker-internal (set by the supervisor)
  std::vector<std::string> ModuleFiles;
};

void usage() {
  std::fprintf(stderr,
               "usage: lna-corpus [--jobs=N|auto] [--limit=N] [--json=FILE] "
               "[--stats]\n"
               "                  [--timeout-ms=N] [--max-memory-mb=N] "
               "[--max-steps=N]\n"
               "                  [--checkpoint=FILE] [--metrics-out=FILE] "
               "[--trace-dir=DIR]\n"
               "                  [--cache-dir=DIR] [--inject-faults=SPEC]\n"
               "                  [--alias=steensgaard|andersen]\n"
               "                  [--workers=N] [--worker-timeout-ms=N] "
               "[--max-module-crashes=K]\n"
               "                  [--shard=I/N] [--shard-out=FILE] "
               "[--merge-shards]\n"
               "                  [--events-out=FILE] [--progress[=MS]]\n"
               "                  [module-file... | shard-file...]\n");
}

/// Exit status for an invalid or conflicting flag value, distinct from
/// the general usage status 1.
constexpr int ExitBadFlagValue = 2;
/// Exit status when no module survived analysis (or output could not be
/// written).
constexpr int ExitRunFailed = 3;

/// Parses the command line. Returns 0 to proceed, or the exit status to
/// terminate with.
int parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  bool SawJson = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--jobs=auto") {
      Opts.Jobs = 0; // ExperimentOptions: 0 = hardware concurrency
      Opts.SawJobs = true;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      Opts.SawJobs = true;
      uint64_t Jobs = 0;
      // More workers than any machine has cores is a typo, not a plan.
      if (!parseUnsignedArg(Arg.substr(7), Jobs, 4096) || Jobs == 0) {
        std::fprintf(stderr,
                     "error: invalid value in '%s' (expected an integer "
                     "in [1, 4096], or 'auto')\n",
                     Arg.c_str());
        return ExitBadFlagValue;
      }
      Opts.Jobs = static_cast<unsigned>(Jobs);
    } else if (Arg.rfind("--limit=", 0) == 0) {
      uint64_t Limit = 0;
      if (!parseUnsignedArg(Arg.substr(8), Limit, UINT32_MAX) || Limit == 0) {
        std::fprintf(stderr,
                     "error: invalid value in '%s' (expected a positive "
                     "module count)\n",
                     Arg.c_str());
        return ExitBadFlagValue;
      }
      Opts.Limit = static_cast<uint32_t>(Limit);
    } else if (Arg.rfind("--json=", 0) == 0) {
      std::string Target = Arg.substr(7);
      if (Target.empty()) {
        std::fprintf(stderr, "error: --json needs a file name ('-' for "
                             "stdout)\n");
        return ExitBadFlagValue;
      }
      if (SawJson && Target != Opts.JsonFile) {
        std::fprintf(stderr,
                     "error: conflicting --json targets '%s' and '%s'\n",
                     Opts.JsonFile.c_str(), Target.c_str());
        return ExitBadFlagValue;
      }
      SawJson = true;
      Opts.JsonFile = std::move(Target);
    } else if (Arg == "--stats") {
      Opts.PrintStats = true;
    } else if (Arg.rfind("--timeout-ms=", 0) == 0) {
      if (!parseUnsignedArg(Arg.substr(13), Opts.Limits.TimeoutMillis,
                            UINT64_MAX) ||
          Opts.Limits.TimeoutMillis == 0) {
        std::fprintf(stderr,
                     "error: invalid value in '%s' (expected a positive "
                     "millisecond count)\n",
                     Arg.c_str());
        return ExitBadFlagValue;
      }
    } else if (Arg.rfind("--max-memory-mb=", 0) == 0) {
      uint64_t Mb = 0;
      if (!parseUnsignedArg(Arg.substr(16), Mb, UINT64_MAX / (1024 * 1024)) ||
          Mb == 0) {
        std::fprintf(stderr,
                     "error: invalid value in '%s' (expected a positive "
                     "megabyte count)\n",
                     Arg.c_str());
        return ExitBadFlagValue;
      }
      Opts.Limits.MaxMemoryBytes = Mb * 1024 * 1024;
    } else if (Arg.rfind("--max-steps=", 0) == 0) {
      if (!parseUnsignedArg(Arg.substr(12), Opts.Limits.MaxSteps,
                            UINT64_MAX) ||
          Opts.Limits.MaxSteps == 0) {
        std::fprintf(stderr,
                     "error: invalid value in '%s' (expected a positive "
                     "step count)\n",
                     Arg.c_str());
        return ExitBadFlagValue;
      }
    } else if (Arg.rfind("--checkpoint=", 0) == 0) {
      Opts.CheckpointFile = Arg.substr(13);
      if (Opts.CheckpointFile.empty()) {
        std::fprintf(stderr, "error: --checkpoint needs a file name\n");
        return ExitBadFlagValue;
      }
    } else if (Arg.rfind("--metrics-out=", 0) == 0) {
      std::string Target = Arg.substr(14);
      if (Target.empty()) {
        std::fprintf(stderr, "error: --metrics-out needs a file name "
                             "('-' for stdout)\n");
        return ExitBadFlagValue;
      }
      if (!Opts.MetricsOutFile.empty() && Target != Opts.MetricsOutFile) {
        std::fprintf(stderr,
                     "error: conflicting --metrics-out targets '%s' and "
                     "'%s'\n",
                     Opts.MetricsOutFile.c_str(), Target.c_str());
        return ExitBadFlagValue;
      }
      Opts.MetricsOutFile = std::move(Target);
    } else if (Arg.rfind("--trace-dir=", 0) == 0) {
      Opts.TraceDir = Arg.substr(12);
      if (Opts.TraceDir.empty()) {
        std::fprintf(stderr, "error: --trace-dir needs a directory\n");
        return ExitBadFlagValue;
      }
    } else if (Arg.rfind("--cache-dir=", 0) == 0) {
      Opts.CacheDir = Arg.substr(12);
      if (Opts.CacheDir.empty()) {
        std::fprintf(stderr, "error: --cache-dir needs a directory\n");
        return ExitBadFlagValue;
      }
    } else if (Arg.rfind("--inject-faults=", 0) == 0) {
      std::string Error;
      if (!parseFaultSpec(Arg.substr(16), Opts.Faults, Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return ExitBadFlagValue;
      }
      Opts.InjectFaults = true;
    } else if (Arg.rfind("--workers=", 0) == 0) {
      uint64_t Workers = 0;
      if (!parseUnsignedArg(Arg.substr(10), Workers, 4096) || Workers == 0) {
        std::fprintf(stderr,
                     "error: invalid value in '%s' (expected an integer "
                     "in [1, 4096])\n",
                     Arg.c_str());
        return ExitBadFlagValue;
      }
      Opts.Workers = static_cast<unsigned>(Workers);
    } else if (Arg == "--worker") {
      Opts.WorkerMode = true;
    } else if (Arg.rfind("--worker-timeout-ms=", 0) == 0) {
      if (!parseUnsignedArg(Arg.substr(20), Opts.WorkerTimeoutMs,
                            UINT64_MAX) ||
          Opts.WorkerTimeoutMs == 0) {
        std::fprintf(stderr,
                     "error: invalid value in '%s' (expected a positive "
                     "millisecond count)\n",
                     Arg.c_str());
        return ExitBadFlagValue;
      }
    } else if (Arg.rfind("--max-module-crashes=", 0) == 0) {
      uint64_t K = 0;
      if (!parseUnsignedArg(Arg.substr(21), K, 100) || K == 0) {
        std::fprintf(stderr,
                     "error: invalid value in '%s' (expected an integer "
                     "in [1, 100])\n",
                     Arg.c_str());
        return ExitBadFlagValue;
      }
      Opts.MaxModuleCrashes = static_cast<unsigned>(K);
    } else if (Arg.rfind("--shard=", 0) == 0) {
      unsigned I = 0, N = 0;
      char Extra = 0;
      if (std::sscanf(Arg.c_str() + 8, "%u/%u%c", &I, &N, &Extra) != 2 ||
          N == 0 || N > 4096 || I >= N) {
        std::fprintf(stderr,
                     "error: invalid value in '%s' (expected I/N with "
                     "0 <= I < N <= 4096)\n",
                     Arg.c_str());
        return ExitBadFlagValue;
      }
      Opts.ShardIndex = I;
      Opts.ShardCount = N;
    } else if (Arg.rfind("--shard-out=", 0) == 0) {
      Opts.ShardOutFile = Arg.substr(12);
      if (Opts.ShardOutFile.empty()) {
        std::fprintf(stderr, "error: --shard-out needs a file name\n");
        return ExitBadFlagValue;
      }
    } else if (Arg == "--merge-shards") {
      Opts.MergeShards = true;
    } else if (Arg.rfind("--events-out=", 0) == 0) {
      Opts.EventsOutFile = Arg.substr(13);
      if (Opts.EventsOutFile.empty()) {
        std::fprintf(stderr, "error: --events-out needs a file name\n");
        return ExitBadFlagValue;
      }
    } else if (Arg == "--progress") {
      Opts.Progress = true;
    } else if (Arg.rfind("--progress=", 0) == 0) {
      if (!parseUnsignedArg(Arg.substr(11), Opts.ProgressEveryMs, 3600000) ||
          Opts.ProgressEveryMs == 0) {
        std::fprintf(stderr,
                     "error: invalid value in '%s' (expected a positive "
                     "millisecond interval)\n",
                     Arg.c_str());
        return ExitBadFlagValue;
      }
      Opts.Progress = true;
    } else if (Arg.rfind("--flight-file=", 0) == 0) {
      Opts.FlightFile = Arg.substr(14);
      if (Opts.FlightFile.empty()) {
        std::fprintf(stderr, "error: --flight-file needs a file name\n");
        return ExitBadFlagValue;
      }
    } else if (Arg.rfind("--alias=", 0) == 0) {
      std::optional<AliasBackendKind> K = aliasBackendFromName(Arg.substr(8));
      if (!K) {
        std::fprintf(stderr,
                     "error: invalid value in '%s' (expected "
                     "'steensgaard' or 'andersen')\n",
                     Arg.c_str());
        return ExitBadFlagValue;
      }
      Opts.AliasBackend = *K;
    } else if (!Arg.empty() && Arg[0] != '-') {
      Opts.ModuleFiles.push_back(std::move(Arg));
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return 1;
    }
  }
  return 0;
}

/// The command line a worker process is spawned with: this tool's own
/// argv with the supervisor-only flags stripped (so the worker rebuilds
/// the identical corpus and per-module analysis options but none of the
/// run-level reporting), plus --worker.
std::vector<std::string> buildWorkerArgv(int Argc, char **Argv) {
  std::vector<std::string> Out;
  // argv[0] may be a bare name resolved via PATH; the kernel's record of
  // our own image is unambiguous.
  char Exe[4096];
  ssize_t N = ::readlink("/proc/self/exe", Exe, sizeof(Exe) - 1);
  if (N > 0) {
    Exe[N] = '\0';
    Out.push_back(Exe);
  } else {
    Out.push_back(Argv[0]);
  }
  static const char *DropPrefixes[] = {
      "--workers=",    "--jobs=",      "--json=",
      "--checkpoint=", "--metrics-out=", "--shard-out=",
      "--worker-timeout-ms=", "--max-module-crashes=",
      "--events-out=", "--progress=", "--flight-file=",
  };
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--stats" || A == "--merge-shards" || A == "--worker" ||
        A == "--progress")
      continue;
    bool Drop = false;
    for (const char *P : DropPrefixes)
      if (A.rfind(P, 0) == 0) {
        Drop = true;
        break;
      }
    if (!Drop)
      Out.push_back(std::move(A));
  }
  Out.push_back("--worker");
  return Out;
}

/// Shard record file header. The digest pins the run configuration so
/// shards produced under different options (or a different analyzer)
/// are rejected at merge instead of silently mixed.
constexpr const char *ShardMagic = "lna-shard";
// v2: outcome records carry the per-module cache classification and
// store-failure flag (serializeModuleOutcome "outcome 2").
constexpr unsigned ShardVersion = 2;

bool writeShardFile(const std::string &Path, uint32_t TotalModules,
                    const std::string &Digest,
                    const std::vector<ModuleOutcome> &Outcomes,
                    const std::vector<uint32_t> &GlobalIndex) {
  std::string Bytes = ShardMagic;
  Bytes += ' ';
  Bytes += std::to_string(ShardVersion);
  Bytes += ' ';
  Bytes += std::to_string(TotalModules);
  Bytes += ' ';
  Bytes += Digest;
  Bytes += '\n';
  for (size_t I = 0; I < Outcomes.size(); ++I)
    Bytes += serializeModuleOutcome(Outcomes[I], GlobalIndex[I]);
  std::ofstream Out(Path, std::ios::binary);
  if (Out)
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  if (!Out) {
    std::fprintf(stderr, "error: cannot write shard file '%s'\n",
                 Path.c_str());
    return false;
  }
  return true;
}

/// Loads and validates shard record files against the regenerated
/// corpus: same configuration digest, same module count, and exactly
/// one record per module across all files. On success \p Outcomes holds
/// every module's outcome in corpus order.
bool mergeShardFiles(const std::vector<std::string> &Files,
                     const std::vector<ModuleSpec> &Corpus,
                     const ExperimentOptions &Opts,
                     std::vector<ModuleOutcome> &Outcomes) {
  Outcomes.assign(Corpus.size(), ModuleOutcome{});
  std::vector<char> Seen(Corpus.size(), 0);
  const std::string WantDigest = experimentOptionsDigest(Opts);
  for (const std::string &Path : Files) {
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream Raw;
    Raw << In.rdbuf();
    if (!In) {
      std::fprintf(stderr, "error: cannot read shard file '%s'\n",
                   Path.c_str());
      return false;
    }
    std::string Bytes = Raw.str();
    size_t NL = Bytes.find('\n');
    char Magic[16] = {0};
    unsigned long long Ver = 0, Total = 0;
    char Digest[64] = {0};
    if (NL == std::string::npos ||
        std::sscanf(Bytes.c_str(), "%15s %llu %llu %63s", Magic, &Ver,
                    &Total, Digest) != 4 ||
        std::string_view(Magic) != ShardMagic || Ver != ShardVersion) {
      std::fprintf(stderr, "error: '%s' is not a shard record file\n",
                   Path.c_str());
      return false;
    }
    if (Total != Corpus.size() || WantDigest != Digest) {
      std::fprintf(stderr,
                   "error: shard file '%s' was produced from a different "
                   "corpus or configuration\n",
                   Path.c_str());
      return false;
    }
    std::string_view Rest = std::string_view(Bytes).substr(NL + 1);
    while (!Rest.empty()) {
      size_t Consumed = 0;
      uint32_t Idx = 0;
      ModuleOutcome O;
      switch (parseModuleOutcome(Rest, Consumed, Idx, O)) {
      case WireParse::NeedMore:
        std::fprintf(stderr, "error: shard file '%s' is truncated\n",
                     Path.c_str());
        return false;
      case WireParse::Corrupt:
        std::fprintf(stderr, "error: shard file '%s' is corrupt\n",
                     Path.c_str());
        return false;
      case WireParse::Ok:
        if (Idx >= Corpus.size() || Seen[Idx]) {
          std::fprintf(stderr,
                       "error: shard file '%s' %s module index %u\n",
                       Path.c_str(),
                       Idx >= Corpus.size() ? "has out-of-range"
                                            : "duplicates",
                       Idx);
          return false;
        }
        Seen[Idx] = 1;
        Outcomes[Idx] = std::move(O);
        Rest.remove_prefix(Consumed);
        break;
      }
    }
  }
  uint32_t Missing = 0;
  for (char C : Seen)
    if (!C)
      ++Missing;
  if (Missing != 0) {
    std::fprintf(stderr,
                 "error: shard files cover only %zu of %zu modules "
                 "(%u missing); pass every shard of the split\n",
                 Corpus.size() - Missing, Corpus.size(), Missing);
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  // A closed pipe (supervisor death, `lna-corpus | head`) must surface
  // as a write error, never kill the tool.
  ignoreSigPipe();
  CliOptions Cli;
  if (int Status = parseArgs(Argc, Argv, Cli)) {
    usage();
    return Status;
  }
  // An injected fault must never be memoized as a module's outcome (the
  // library also refuses the combination; rejecting the flags makes the
  // conflict visible instead of silent).
  if (!Cli.CacheDir.empty() && Cli.InjectFaults) {
    std::fprintf(stderr,
                 "error: --cache-dir conflicts with --inject-faults\n");
    return ExitBadFlagValue;
  }
  // Process-kill faults terminate whatever process the injector runs in;
  // only a supervised worker can absorb that.
  if (Cli.InjectFaults && Cli.Faults.lethal() && Cli.Workers == 0 &&
      !Cli.WorkerMode) {
    std::fprintf(stderr,
                 "error: kill/exit fault injection terminates the analyzing "
                 "process; it requires --workers=N process isolation\n");
    return ExitBadFlagValue;
  }
  if (Cli.Workers != 0 && Cli.SawJobs) {
    std::fprintf(stderr, "error: --workers (process-level parallelism) "
                         "conflicts with --jobs (thread-level)\n");
    return ExitBadFlagValue;
  }
  if (Cli.WorkerTimeoutMs != 0 && Cli.Workers == 0) {
    std::fprintf(stderr, "error: --worker-timeout-ms requires --workers\n");
    return ExitBadFlagValue;
  }
  if (Cli.WorkerMode &&
      (Cli.Workers != 0 || Cli.MergeShards || !Cli.ShardOutFile.empty() ||
       !Cli.JsonFile.empty() || Cli.PrintStats ||
       !Cli.MetricsOutFile.empty() || !Cli.CheckpointFile.empty() ||
       !Cli.EventsOutFile.empty() || Cli.Progress)) {
    std::fprintf(stderr, "error: --worker is an internal mode; run-level "
                         "flags belong to the supervisor\n");
    return ExitBadFlagValue;
  }
  // The black box is a per-worker artifact managed by the supervisor; a
  // user pointing the whole fleet (or an in-process run) at one file
  // would silently interleave writers.
  if (!Cli.FlightFile.empty() && !Cli.WorkerMode) {
    std::fprintf(stderr, "error: --flight-file is internal to --worker "
                         "processes (the supervisor assigns one per "
                         "worker)\n");
    return ExitBadFlagValue;
  }
  if (Cli.MergeShards) {
    if (Cli.Workers != 0 || Cli.ShardCount != 0 ||
        !Cli.ShardOutFile.empty() || Cli.InjectFaults ||
        !Cli.CacheDir.empty() || !Cli.CheckpointFile.empty() ||
        !Cli.TraceDir.empty()) {
      std::fprintf(stderr, "error: --merge-shards only aggregates existing "
                           "shard record files; it cannot analyze\n");
      return ExitBadFlagValue;
    }
    if (Cli.ModuleFiles.empty()) {
      std::fprintf(stderr,
                   "error: --merge-shards needs shard record files\n");
      return ExitBadFlagValue;
    }
  }

  // Positional module files replace the generated corpus (except under
  // --merge-shards, where they are shard record files and the corpus is
  // always the generated one); an unloadable file becomes a categorized
  // failure row, never a crash.
  std::vector<ModuleSpec> Corpus;
  if (!Cli.ModuleFiles.empty() && !Cli.MergeShards) {
    for (const std::string &Path : Cli.ModuleFiles)
      Corpus.push_back(loadModuleFile(Path));
  } else {
    Corpus = generateCorpus();
  }
  if (Cli.Limit != 0 && Cli.Limit < Corpus.size())
    Corpus.resize(Cli.Limit);

  // The shard filter keeps every N-th module; GlobalIndex maps the
  // filtered positions back to corpus-global indices for --shard-out.
  const uint32_t TotalModules = static_cast<uint32_t>(Corpus.size());
  std::vector<uint32_t> GlobalIndex(Corpus.size());
  std::iota(GlobalIndex.begin(), GlobalIndex.end(), 0u);
  if (Cli.ShardCount != 0) {
    std::vector<ModuleSpec> Filtered;
    std::vector<uint32_t> FilteredIndex;
    for (uint32_t I = 0; I < Corpus.size(); ++I)
      if (I % Cli.ShardCount == Cli.ShardIndex) {
        Filtered.push_back(std::move(Corpus[I]));
        FilteredIndex.push_back(I);
      }
    Corpus = std::move(Filtered);
    GlobalIndex = std::move(FilteredIndex);
  }

  ExperimentOptions Opts;
  Opts.Jobs = Cli.WorkerMode ? 1 : Cli.Jobs;
  Opts.Limits = Cli.Limits;
  Opts.AliasBackend = Cli.AliasBackend;
  Opts.CheckpointFile = Cli.CheckpointFile;
  Opts.CollectMetrics = !Cli.MetricsOutFile.empty();
  Opts.TraceDir = Cli.TraceDir;
  if (Cli.InjectFaults && Cli.Faults.any()) {
    FaultSpec Base = Cli.Faults;
    Opts.FaultSeed = Base.Seed;
    Opts.Faults = [Base](uint64_t Seed) {
      FaultSpec S = Base;
      S.Seed = Seed;
      return std::make_unique<FaultInjector>(S);
    };
  }

  // Surface an unusable cache directory before analyzing anything. The
  // store outlives the run (ExperimentOptions::Cache is borrowed).
  std::unique_ptr<CacheStore> Cache;
  if (!Cli.CacheDir.empty()) {
    Cache = std::make_unique<CacheStore>(Cli.CacheDir);
    if (!Cache->ok()) {
      std::fprintf(stderr, "error: cannot use cache directory '%s'\n",
                   Cli.CacheDir.c_str());
      return ExitRunFailed;
    }
    Opts.Cache = Cache.get();
  }

  // Worker mode: no reports, no aggregation -- just the module protocol
  // on stdin/stdout until the supervisor says quit. An unopenable black
  // box degrades to running without one (the supervisor just recovers
  // nothing): observability must never fail the analysis.
  FlightRecorder Flight;
  if (Cli.WorkerMode) {
    if (!Cli.FlightFile.empty()) {
      if (Flight.open(Cli.FlightFile))
        Opts.Flight = &Flight;
      else
        std::fprintf(stderr,
                     "lna-corpus: warning: cannot open flight file '%s'\n",
                     Cli.FlightFile.c_str());
    }
    return runWorkerLoop(Corpus, Opts, STDIN_FILENO, STDOUT_FILENO);
  }

  // The event journal truncates on open, so a crashed run's journal is
  // still a complete JSONL prefix of what happened before the crash.
  EventJournal Events;
  if (!Cli.EventsOutFile.empty()) {
    if (!Events.open(Cli.EventsOutFile)) {
      std::fprintf(stderr, "error: cannot write events file '%s'\n",
                   Cli.EventsOutFile.c_str());
      return ExitRunFailed;
    }
    Opts.Events = &Events;
  }
  ProgressMeter Progress;
  if (Cli.Progress) {
    Progress.start(Corpus.size(), Cli.ProgressEveryMs);
    Opts.Progress = &Progress;
  }
  Events.event("run-start")
      .num("modules", Corpus.size())
      .num("workers", Cli.Workers)
      .num("jobs", Cli.Workers != 0 ? 0 : Cli.Jobs)
      .flag("merge_shards", Cli.MergeShards);

  // Surface an unwritable checkpoint path before analyzing anything.
  if (!Cli.CheckpointFile.empty()) {
    std::ofstream Probe(Cli.CheckpointFile, std::ios::app);
    if (!Probe) {
      std::fprintf(stderr, "error: cannot write checkpoint file '%s'\n",
                   Cli.CheckpointFile.c_str());
      return ExitRunFailed;
    }
  }

  std::vector<ModuleOutcome> Captured;
  if (!Cli.ShardOutFile.empty())
    Opts.CaptureOutcomes = &Captured;

  Timer Wall;
  CorpusSummary S;
  std::string WallSuffix;
  bool FleetTraceFailed = false;
  if (Cli.MergeShards) {
    std::vector<ModuleOutcome> Outcomes;
    if (!mergeShardFiles(Cli.ModuleFiles, Corpus, Opts, Outcomes))
      return ExitRunFailed;
    S = aggregateModuleOutcomes(Corpus, Outcomes, Opts.AliasBackend);
    Progress.finish();
    Events.event("shard-merge")
        .num("shards", Cli.ModuleFiles.size())
        .num("outcomes", Outcomes.size());
    WallSuffix = "(" + std::to_string(Cli.ModuleFiles.size()) +
                 " shard(s) merged)";
  } else if (Cli.Workers != 0) {
    SupervisorOptions Sup;
    Sup.Workers = Cli.Workers;
    Sup.WorkerArgv = buildWorkerArgv(Argc, Argv);
    Sup.MaxModuleCrashes = Cli.MaxModuleCrashes;
    Sup.WorkerTimeoutMs = Cli.WorkerTimeoutMs;
    if (!Cli.TraceDir.empty())
      Sup.FleetTracePath = Cli.TraceDir + "/fleet.trace.json";
    SupervisedResult Res = runSupervisedExperiment(Corpus, Opts, Sup);
    Progress.finish();
    std::fprintf(stderr,
                 "lna-corpus: supervisor: %u worker crash(es), %u "
                 "restart(s), %u timeout kill(s), %u quarantined "
                 "module(s)\n",
                 Res.Stats.WorkerCrashes, Res.Stats.WorkerRestarts,
                 Res.Stats.TimeoutKills, Res.Stats.QuarantinedModules);
    if (!Res.Ok) {
      std::fprintf(stderr, "error: %s\n", Res.Error.c_str());
      return ExitRunFailed;
    }
    FleetTraceFailed = Res.FleetTraceFailed;
    S = std::move(Res.Summary);
    WallSuffix = "(" + std::to_string(Cli.Workers) + " worker" +
                 (Cli.Workers == 1 ? "" : "s") + ")";
  } else {
    S = runCorpusExperiment(Corpus, Opts);
    Progress.finish();
    if (Cli.Jobs == 0)
      WallSuffix = "(auto jobs)";
    else
      WallSuffix = "(" + std::to_string(Cli.Jobs) + " job" +
                   (Cli.Jobs == 1 ? "" : "s") + ")";
  }
  double Elapsed = Wall.seconds();

  if (!Cli.ShardOutFile.empty()) {
    if (!writeShardFile(Cli.ShardOutFile, TotalModules,
                        experimentOptionsDigest(Opts), Captured, GlobalIndex))
      return ExitRunFailed;
    Events.event("shard-write")
        .str("path", Cli.ShardOutFile)
        .num("outcomes", Captured.size());
  }

  // With --json=- the JSON report owns stdout: keep it machine-parseable
  // by routing the human-readable output to stderr instead.
  std::FILE *Text = Cli.JsonFile == "-" ? stderr : stdout;
  std::fprintf(Text, "%s", renderCorpusReport(S).c_str());
  std::fprintf(Text, "%-52s %9.3f s  %s\n", "wall-clock", Elapsed,
               WallSuffix.c_str());

  if (Cli.PrintStats) {
    // A single in-process thread spends the whole wall-clock either in
    // a phase or between phases (session set-up, cache and fault scopes,
    // aggregation), so the remainder gets a named line and the table's
    // total is the wall-clock. Parallel phase sums are wall time summed
    // across modules (descheduling included) and cannot be reconciled
    // with the wall-clock this way.
    SessionStats Ledger = S.Stats;
    if (!Cli.MergeShards && Cli.Workers == 0 && Cli.Jobs == 1)
      Ledger.phase("outside-phases").Seconds =
          std::max(0.0, Elapsed - S.Stats.totalSeconds());
    std::fprintf(Text,
                 "\nper-phase totals (wall time summed across modules):\n%s",
                 Ledger.renderText().c_str());
    std::fprintf(Text, "\nper-phase wall time across modules:\n");
    std::fprintf(Text, "  %-28s %10s %10s %10s\n", "phase", "p50 ms",
                 "p95 ms", "max ms");
    for (const PhasePercentile &P : phaseWallPercentiles(S))
      std::fprintf(Text, "  %-28s %10.3f %10.3f %10.3f\n", P.Name.c_str(),
                   P.P50Ms, P.P95Ms, P.MaxMs);
    if (!S.Metrics.empty())
      std::fprintf(Text, "\ncorpus solver metrics:\n%s",
                   S.Metrics.renderText().c_str());
  }

  int Exit = 0;
  // Cache effectiveness is aggregated from the per-outcome classification
  // (CacheUse on the wire), so the counters are exact under --workers and
  // --merge-shards too, where the store object doing the I/O lives in
  // another process.
  if (S.CacheActive) {
    std::fprintf(stderr, "lna-corpus: cache: %" PRIu64 " hit(s), %" PRIu64
                         " miss(es), %" PRIu64 " stale\n",
                 S.CacheHits, S.CacheMisses, S.CacheStale);
    Events.event("cache-summary")
        .num("hits", S.CacheHits)
        .num("misses", S.CacheMisses)
        .num("stale", S.CacheStale)
        .num("store_failures", S.CacheStoreFailures);
    // Cache effectiveness counters ride along in the exported metrics.
    // They are injected after the deterministic report/stats rendering,
    // so cold and warm report output stays byte-identical.
    if (!Cli.MetricsOutFile.empty()) {
      S.Metrics.addCounter("cache.hits", S.CacheHits);
      S.Metrics.addCounter("cache.misses", S.CacheMisses);
      S.Metrics.addCounter("cache.stale", S.CacheStale);
      S.Metrics.addCounter("cache.store-failures", S.CacheStoreFailures);
    }
  }
  if (!Cli.MetricsOutFile.empty()) {
    std::string Json = S.Metrics.renderJSON();
    if (Cli.MetricsOutFile == "-") {
      std::printf("%s", Json.c_str());
    } else {
      std::ofstream MOut(Cli.MetricsOutFile);
      if (MOut)
        MOut << Json;
      if (!MOut) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     Cli.MetricsOutFile.c_str());
        Exit = ExitRunFailed;
      }
    }
  }
  if (S.TraceWriteFailures) {
    std::fprintf(stderr, "error: %u module trace file(s) could not be "
                         "written to '%s'\n",
                 S.TraceWriteFailures, Cli.TraceDir.c_str());
    Exit = ExitRunFailed;
  }
  if (FleetTraceFailed)
    Exit = ExitRunFailed;

  if (!Cli.JsonFile.empty()) {
    std::string Json = corpusReportJSON(S);
    if (Cli.JsonFile == "-") {
      std::printf("%s\n", Json.c_str());
    } else {
      std::ofstream Out(Cli.JsonFile);
      if (!Out) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     Cli.JsonFile.c_str());
        return ExitRunFailed;
      }
      Out << Json << '\n';
    }
  }

  // Fault isolation means per-module failures are data, not a failed
  // run: report each one, and only fail the run when nothing survived.
  for (const ModuleResult &M : S.Modules)
    if (!M.Ok) {
      // Detail (for quarantined modules: how the worker died, the last
      // phase it reported, which crash sealed the verdict) is stderr
      // forensics only; the deterministic report carries the category.
      if (M.Error.empty())
        std::fprintf(stderr, "error: module '%s' failed to analyze (%s)\n",
                     M.Name.c_str(), failureKindName(M.Failure));
      else
        std::fprintf(stderr, "error: module '%s' failed to analyze (%s): %s\n",
                     M.Name.c_str(), failureKindName(M.Failure),
                     M.Error.c_str());
    }
  if (S.TotalModules != 0 && S.FailedModules == S.TotalModules)
    Exit = ExitRunFailed;
  Events.event("run-end")
      .num("modules", S.TotalModules)
      .num("failed", S.FailedModules)
      .num("wall_ms", static_cast<uint64_t>(Elapsed * 1000.0))
      .num("exit", static_cast<uint64_t>(Exit));
  return Exit;
}

//===- Invocation.h - One lna-analyze invocation as a library --*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole observable behavior of one `lna-analyze` invocation --
/// flag parsing, the analysis itself, every line it prints, its exit
/// status, and its invocation-cache identity -- factored out of the
/// CLI so that a resident process can run many invocations
/// concurrently.
///
/// The one-shot tool used to be the unit of isolation: it wrote to the
/// process's stdout/stderr, captured them by dup2-ing the real file
/// descriptors, and died before any state could leak into the next
/// request. A daemon gets none of that for free, so the contract here
/// is **per-request safety**: runInvocation() writes into
/// caller-provided strings, owns no process-global state, installs its
/// observability sinks (trace, metrics) and resource budget through the
/// existing thread-local RAII scopes only for its own duration, and
/// leaves the thread exactly as it found it. Two requests on one pooled
/// thread produce byte-for-byte the outputs of two fresh processes --
/// that is the property tools/lna-serve's replies are diffed against,
/// and lna-analyze itself now runs through the same function, so the
/// two faces cannot drift.
///
/// The invocation cache key ("a-..." entries) also lives here: both the
/// CLI's --cache-dir replay and the daemon's cold tier key the same
/// digest of (analyzer version, pipeline-option fingerprint,
/// output-shaping flags, source bytes), so they share one on-disk
/// store. Every flag that can change a single output byte must be in
/// invocationKey() or force bypassesResultCache() -- ServeTest sweeps
/// the full flag surface to keep that audit honest.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_SERVE_INVOCATION_H
#define LNA_SERVE_INVOCATION_H

#include "cache/CacheStore.h"
#include "core/Session.h"

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace lna {

/// Every knob of one lna-analyze invocation (the CLI flag surface).
struct InvocationOptions {
  PipelineMode Mode = PipelineMode::Infer;
  bool AllStrong = false;
  bool PrintAnnotated = false;
  bool RunLocks = true;
  bool RunProgramToo = false;
  uint64_t RunSeed = 1;
  unsigned InlineDepth = 0;
  bool ApplyDown = true;
  bool Backwards = false;
  bool PrintStats = false;
  std::string StatsJsonFile;
  std::string TraceOutFile;
  std::string MetricsOutFile;
  std::string CacheDir;
  bool Explain = false;
  AliasBackendKind AliasBackend = AliasBackendKind::Steensgaard;
  ResourceLimits Limits;
};

/// Incremental flag parser: feed each argument in order; duplicate and
/// conflict detection spans the whole sequence. Shared by the CLI
/// (argv) and the daemon (the request's "flags" array), so the wire
/// protocol accepts exactly the CLI's flag language.
class InvocationArgParser {
public:
  InvocationOptions Opts;
  /// The positional input file (CLI only; at most one).
  std::string File;
  /// The daemon passes source bytes in-band and refuses positionals.
  bool AllowPositional = true;
  /// The daemon runs requests in-memory and refuses flags that write
  /// server-side files (--trace-out, --stats-json=FILE,
  /// --metrics-out=FILE); the '-' stdout targets stay allowed.
  bool AllowFileOutputs = true;

  /// Consumes one argument. Returns 0 to continue, or the lna-analyze
  /// exit status to fail with (1 usage, 5 bad flag value), with the
  /// exact CLI error text (newline-terminated) in \p Err.
  int parse(const std::string &Arg, std::string &Err);

  /// Parses a whole argument sequence; first failure wins.
  int parseAll(const std::vector<std::string> &Args, std::string &Err);

private:
  bool SawStatsJson = false;
  bool SawTraceOut = false;
  bool SawMetricsOut = false;
};

/// What one invocation observably did: the exit status and every byte
/// of its two output streams.
struct InvocationResult {
  int Exit = 0;
  std::string Out;
  std::string Err;
};

/// The canonical pipeline options of one invocation.
PipelineOptions invocationPipelineOptions(const InvocationOptions &Opts);

/// The invocation-cache key ("a-<digest>") of one run: a digest of
/// everything that determines the deterministic output -- analyzer
/// version, the pipeline option fingerprint, the output-shaping CLI
/// flags, and the source bytes.
std::string invocationKey(const InvocationOptions &Opts,
                          const std::string &Source);

/// True when the invocation requests live observability output
/// (--stats/--stats-json/--trace-out/--metrics-out), which replaying a
/// recorded run would fabricate. Such invocations bypass the result
/// cache (hot and cold) with a note.
bool bypassesResultCache(const InvocationOptions &Opts);

/// The stderr note emitted when the cache is bypassed.
std::string resultCacheBypassNote();

/// Only the deterministic outcomes (exit 0..3) are worth replaying:
/// budget exhaustion (6) and internal errors (7) may not recur, and
/// environment (4) / flag (5) errors are not analysis results.
bool invocationCacheable(int Exit);

/// Entry codec for the "a-" invocation-cache entries (shared by the
/// CLI warm replay and the daemon's cold tier).
std::string encodeInvocation(const InvocationResult &R);
bool decodeInvocation(const std::string &Entry, InvocationResult &R);

/// Runs one invocation over \p Source, uncached: one AnalysisSession,
/// every output byte and the exit status. Caching belongs to the caller
/// (runInvocationWithStore, the daemon's tiers), keyed by
/// invocationKey(). The third parameter is unused; it only keeps
/// perfbench/Serve.cpp's `runInvocation(..., nullptr)` compiling until
/// that file next changes.
InvocationResult runInvocation(const InvocationOptions &Opts,
                               std::string_view Source,
                               std::nullptr_t = nullptr);

/// The full cached flow over an open store: bypass check (note + live
/// run), warm "a-" replay, or run-and-record. Exactly what
/// `lna-analyze --cache-dir=` does after opening the store.
InvocationResult runInvocationWithStore(const InvocationOptions &Opts,
                                        const std::string &Source,
                                        CacheStore &Store);

} // namespace lna

#endif // LNA_SERVE_INVOCATION_H

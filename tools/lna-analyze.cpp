//===- lna-analyze.cpp - Command-line driver ------------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The command-line face of the library:
//
//   lna-analyze [options] file.lna
//
//   --check             verify explicit restrict/confine annotations only
//   --infer             restrict + confine inference (default)
//   --all-strong        lock analysis assumes every update is strong
//   --inline-depth=N    bounded inlining (per-call-site polymorphism)
//   --no-down           disable the (Down) rule (ablation)
//   --backwards         use the Section 6.2 backwards-search solver
//   --print-annotated   print the program with inferred annotations
//   --no-locks          skip the flow-sensitive lock analysis
//   --run[=SEED]        also evaluate the program (Section 3.2 semantics)
//   --stats             print per-phase timings and counters
//   --stats-json=FILE   write per-phase stats as JSON ('-' for stdout)
//   --trace-out=FILE    write spans as Chrome trace-event JSON
//   --metrics-out=FILE  write solver metrics (counters + histograms) as
//                       JSON ('-' for stdout)
//   --explain           print the constraint derivation path behind each
//                       restrict/confine violation
//   --alias=BACKEND     may-alias backend: 'steensgaard' (the paper's
//                       unification analysis; default) or 'andersen'
//                       (inclusion-based refinement)
//   --timeout-ms=N      abort the analysis after N wall-clock milliseconds
//   --max-memory-mb=N   cap the AST arena at N megabytes
//   --max-steps=N       cap constraint/confine/evaluation steps
//   --cache-dir=DIR     persistent result cache: an invocation whose
//                       content digest (source + flags + tool version)
//                       matches a stored entry replays its recorded
//                       stdout/stderr/exit status without re-analyzing.
//                       Bypassed (with a note) under --stats,
//                       --stats-json, --trace-out, or --metrics-out;
//                       budget and internal failures are never cached.
//
// Exit status:
//   0  clean
//   1  usage/parse/type errors
//   2  annotation violations
//   3  lock-state type errors reported
//   4  input file could not be opened (or --cache-dir unusable)
//   5  invalid or conflicting flag value (e.g. a non-numeric
//      --inline-depth, or two --stats-json flags naming different files)
//   6  a resource budget was exhausted (timeout / memory cap / step cap)
//   7  internal analyzer error (contained; nothing crashed)
//
// Everything behind the flag surface lives in serve/Invocation.{h,cpp}:
// the same runInvocation() also answers requests inside the resident
// daemon (tools/lna-serve), which is what keeps a daemon reply
// byte-identical to this tool's output for the same flags and source.
// This file only reads argv and the input file, then prints the
// invocation's recorded stdout bytes followed by its stderr bytes.
//
//===----------------------------------------------------------------------===//

#include "serve/Invocation.h"
#include "support/Subprocess.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace lna;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: lna-analyze [--check|--infer] [--all-strong]\n"
      "                   [--inline-depth=N] [--no-down] [--backwards]\n"
      "                   [--print-annotated] [--no-locks] [--run[=SEED]]\n"
      "                   [--stats] [--stats-json=FILE]\n"
      "                   [--trace-out=FILE] [--metrics-out=FILE] "
      "[--explain]\n"
      "                   [--timeout-ms=N] [--max-memory-mb=N] "
      "[--max-steps=N]\n"
      "                   [--alias=steensgaard|andersen] [--cache-dir=DIR] "
      "file.lna\n");
}

/// Prints the invocation's two output streams onto the real
/// stdout/stderr and returns its exit status.
int deliver(const InvocationResult &R) {
  if (!R.Out.empty())
    std::fwrite(R.Out.data(), 1, R.Out.size(), stdout);
  if (!R.Err.empty())
    std::fwrite(R.Err.data(), 1, R.Err.size(), stderr);
  return R.Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  // A closed pipe (`lna-analyze ... | head`) must surface as a write
  // error, never kill the tool.
  ignoreSigPipe();
  InvocationArgParser Parser;
  for (int I = 1; I < Argc; ++I) {
    std::string Err;
    if (int Status = Parser.parse(Argv[I], Err)) {
      std::fprintf(stderr, "%s", Err.c_str());
      usage();
      return Status;
    }
  }
  if (Parser.File.empty()) {
    std::fprintf(stderr, "no input file\n");
    usage();
    return 1;
  }
  const InvocationOptions &Cli = Parser.Opts;

  std::ifstream In(Parser.File);
  if (!In) {
    // A missing/unreadable input is an environment error, not a parse
    // error: report it distinctly and use a dedicated exit status.
    std::fprintf(stderr, "lna-analyze: error: cannot open '%s': %s\n",
                 Parser.File.c_str(), std::strerror(errno));
    return 4;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Source = Buf.str();

  if (Cli.CacheDir.empty())
    return deliver(runInvocation(Cli, Source));

  CacheStore Store(Cli.CacheDir);
  if (!Store.ok()) {
    std::fprintf(stderr,
                 "lna-analyze: error: cannot use cache directory '%s'\n",
                 Cli.CacheDir.c_str());
    return 4;
  }
  return deliver(runInvocationWithStore(Cli, Source, Store));
}

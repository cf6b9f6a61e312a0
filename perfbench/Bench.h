//===- Bench.h - Shared pieces of the end-to-end benchmark ------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark driver measures the analyzer from the outside: every
/// number comes from timing the benchmark's own calls into a layer's
/// public functions (or the daemon's wire), never from instrumentation
/// inside the program. This header holds what the three workloads share:
/// the run configuration, the result they report, order statistics, and
/// the in-memory span ledger of traced runs.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_PERFBENCH_BENCH_H
#define LNA_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

inline double secondsSince(Clock::time_point A) {
  return secondsBetween(A, Clock::now());
}

/// One benchmark invocation, as parsed from the command line.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Load threads, connections and corpus jobs: the machine's cores.
  unsigned Threads = 1;
  /// The lna-serve binary the serve workload spawns.
  std::string ServeBinary;
  /// Scratch directory inside the checkout for sockets and cache tiers.
  std::string WorkDir;
  /// Self-test hooks: corrupt one expected triple, or point the serve
  /// client at a fake peer that withholds a reply.
  bool PerturbExpected = false;
  bool FakePeer = false;
};

/// A named number with its unit and the sample count behind it.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  uint64_t Samples = 0;
};

/// What a workload hands back to main().
struct Report {
  /// False when any output differed from its reference.
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The metrics BENCHMARK.json lists (untraced runs: end-to-end;
  /// traced runs: per-layer).
  std::vector<Metric> Metrics;
  /// The workload-specific end-to-end readings, printed as a table.
  std::vector<Metric> Readings;
  /// Human-readable lines explaining failures or provenance.
  std::vector<std::string> Notes;

  void fail(const std::string &Why) {
    ++Failed;
    Correct = false;
    if (Notes.size() < 20)
      Notes.push_back(Why);
  }
};

/// Median of \p V (0 when empty).
double median(std::vector<double> V);
/// The \p Q quantile (0..1) of \p V by linear interpolation.
double quantile(std::vector<double> V, double Q);
/// Peak resident set size of process \p Pid (0 = self) in MiB, from
/// VmHWM in /proc; 0 when unreadable.
double peakRssMb(int Pid = 0);

/// Seconds one run of a fixed host probe takes: open-addressing hashing,
/// pointer chasing and sorting over buffers allocated once, so it shares
/// no code with the analyzer and calls no allocator. On a shared machine
/// the host's speed drifts by tens of percent over minutes; a timing
/// divided by the probe taken next to it keeps the program's cost and
/// cancels most of the drift.
double hostProbe();
/// The probe time that normalized latencies are scaled to: a normalized
/// latency is what the work would take on a host where hostProbe()
/// takes this long.
constexpr double NominalProbeSeconds = 0.05;

/// In-memory span ledger of a traced run. Spans are recorded around the
/// benchmark's own calls into a layer; the ledger sums them per layer and
/// per pass, and is read out once at the end of the run.
class Ledger {
public:
  /// Recording is off in the untraced comparison passes; then span()
  /// costs one branch.
  bool Enabled = true;

  struct Span {
    const char *Layer;
    Clock::time_point Start;
    Clock::time_point End;
  };

  /// Times one call into a layer.
  template <typename F> auto span(const char *Layer, F &&Fn) {
    if (!Enabled)
      return Fn();
    Clock::time_point Start = Clock::now();
    struct Closer {
      Ledger &L;
      const char *Layer;
      Clock::time_point Start;
      ~Closer() { L.Spans.push_back({Layer, Start, Clock::now()}); }
    } C{*this, Layer, Start};
    return Fn();
  }

  /// Adds a work count (counts are per pass, so they repeat exactly).
  void count(const char *Name, uint64_t N) {
    if (Enabled)
      Counts[Name] += N;
  }

  /// Closes a pass: folds its spans into per-layer busy seconds and
  /// keeps the pass's counts.
  void endPass();

  /// Median over closed passes of one layer's busy seconds.
  double layerSeconds(const std::string &Layer) const;
  /// Median over closed passes of the sum of all layers' busy seconds.
  double coveredSeconds() const;
  /// A count as the first closed pass recorded it (see countsRepeat()).
  uint64_t passCount(const std::string &Name) const;
  /// True when every closed pass recorded identical counts.
  bool countsRepeat() const;
  size_t passes() const { return PassSeconds.size(); }

private:
  std::vector<Span> Spans;
  std::map<std::string, uint64_t> Counts;
  std::vector<std::map<std::string, double>> PassSeconds;
  std::vector<std::map<std::string, uint64_t>> PassCounts;
};

/// corpus-s7 and solver-big (Analysis.cpp).
Report runBatchWorkload(const Config &C);
/// serve-mixed (Serve.cpp).
Report runServeWorkload(const Config &C);

} // namespace perfbench

#endif // LNA_PERFBENCH_BENCH_H

//===- Trace.h - Span tracing with thread-local sinks ---------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The span tracer of the observability layer. The per-phase sums of
/// support/Stats.h say *how long* a phase took; spans say *where inside
/// it* the time went: every AnalysisSession phase and the solver hot
/// paths (unification, effect normalization, CHECK-SAT DFS queries,
/// least-solution propagation, conditional resolution) open a RAII Span,
/// and a TraceSink collects the closed spans into a bounded ring buffer
/// exportable as Chrome trace_event JSON (chrome://tracing, Perfetto).
///
/// The design follows the thread-local scope idiom of support/Budget.h:
///
///  * a TraceScope installs a sink as the current thread's sink for its
///    lifetime (saving and restoring any enclosing sink), exactly like
///    BudgetScope -- sessions do not own tracing state, callers opt in;
///  * Span's constructor is a thread-local load and a branch when no
///    sink is installed: no clock reads, no allocation, nothing -- hot
///    paths can be instrumented unconditionally.
///
/// The ring buffer bounds memory for arbitrarily long analyses: when it
/// fills, the oldest spans are overwritten and counted as dropped (the
/// export records the drop count). Sinks are single-threaded by design:
/// the thread that installs the TraceScope records into it. The parallel
/// corpus runner gives every module analysis its own sink on whichever
/// worker runs it, so traces never interleave across modules.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_OBS_TRACE_H
#define LNA_OBS_TRACE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace lna {

/// Raw ticks of the span clock. On x86-64 this is the TSC -- a span
/// records two timestamps, and at the span densities the solver hot
/// paths produce, two clock_gettime round trips per span are the bulk
/// of a sink's recording cost. The containers this runs in all have
/// invariant TSC; elsewhere the steady clock is the tick source.
inline uint64_t traceClockTicks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Microseconds per traceClockTicks() tick: the steady clock's period
/// where that is the tick source, a once-per-process calibration of the
/// TSC against the steady clock on x86-64 (a few per-mille of accuracy,
/// plenty for trace timestamps).
double traceClockMicrosPerTick();

/// One recorded span, exported for incremental consumers (the worker
/// flight recorder drains newly closed spans at phase boundaries). The
/// name points at the string literal the Span was opened with.
struct SpanRecord {
  const char *Name = nullptr;
  uint64_t Start = 0;
  uint64_t Dur = 0;
  uint32_t Depth = 0;
};

/// Collects closed spans into a fixed-capacity ring buffer and renders
/// them as Chrome trace_event JSON. One sink per traced analysis; see
/// the file comment for the threading contract.
class TraceSink {
public:
  /// \p Capacity is the ring size in spans; once exceeded, the oldest
  /// spans are overwritten (and counted by numDropped()).
  explicit TraceSink(size_t Capacity = DefaultCapacity);

  /// Rewinds the sink to empty with a fresh epoch, reallocating only
  /// when \p Capacity differs from the current ring size. Lets the
  /// per-module runner reuse one sink instead of constructing a fresh
  /// ring (and churning the heap) for every module.
  void reset(size_t Capacity);

  /// Microseconds since this sink was created (the trace's time origin).
  uint64_t nowMicros() const {
    return static_cast<uint64_t>(
        static_cast<double>(traceClockTicks() - EpochTicks) * MicrosPerTick);
  }

  /// Appends one closed span. \p Name must outlive the sink (span names
  /// are string literals).
  void record(const char *Name, uint64_t StartMicros, uint64_t DurMicros,
              uint32_t Depth) {
    Ring[static_cast<size_t>(Total % Ring.size())] = {Name, StartMicros,
                                                      DurMicros, Depth};
    ++Total;
  }

  /// Spans currently held (min(recorded, capacity)).
  size_t numRecorded() const {
    return Total < Ring.size() ? static_cast<size_t>(Total) : Ring.size();
  }
  /// Spans overwritten because the ring was full.
  uint64_t numDropped() const {
    return Total < Ring.size() ? 0 : Total - Ring.size();
  }
  /// All spans ever recorded (held + dropped).
  uint64_t numTotal() const { return Total; }

  /// Absolute index of the oldest span still in the ring.
  uint64_t oldestIndex() const { return Total - numRecorded(); }

  /// The span at absolute index \p I, which must be in
  /// [oldestIndex(), numTotal()). Copy-free incremental access for the
  /// flight recorder's per-phase drains.
  SpanRecord spanAt(uint64_t I) const {
    const Event &E = Ring[static_cast<size_t>(I % Ring.size())];
    return {E.Name, E.Start, E.Dur, E.Depth};
  }

  /// Chrome trace_event JSON: {"traceEvents":[...]} with one complete
  /// ("ph":"X") event per span, timestamps in microseconds since the
  /// sink's creation. Loadable by chrome://tracing and Perfetto.
  std::string renderChromeJSON() const;

  // Span bookkeeping (used by Span only).
  uint32_t enterSpan() { return Depth++; }
  void exitSpan() { --Depth; }

  static constexpr size_t DefaultCapacity = 1 << 15;

private:
  struct Event {
    const char *Name = nullptr;
    uint64_t Start = 0;
    uint64_t Dur = 0;
    uint32_t Depth = 0;
  };

  std::vector<Event> Ring;
  uint64_t Total = 0;
  uint32_t Depth = 0;
  uint64_t EpochTicks = 0;
  double MicrosPerTick = 0.0;
};

/// The sink the current thread's spans record into, or nullptr.
TraceSink *currentTraceSink() noexcept;

/// Replaces the thread's current sink, returning the previous one. The
/// reset primitive for request boundaries on pooled threads: a server
/// worker clears the slot (nullptr) before running a request and
/// restores the captured value after, so a sink leaked by earlier work
/// on the same thread can never receive a later request's spans.
/// TraceScope remains the right tool for scoped installation; this
/// exists for boundary scrubbing, where the code deliberately does not
/// own the sink being displaced.
TraceSink *exchangeThreadTraceSink(TraceSink *S) noexcept;

/// Installs a sink as the thread's current one for the scope's lifetime
/// (saving and restoring any enclosing sink).
class TraceScope {
public:
  explicit TraceScope(TraceSink &S);
  ~TraceScope();
  TraceScope(const TraceScope &) = delete;
  TraceScope &operator=(const TraceScope &) = delete;

private:
  TraceSink *Prev;
};

/// A RAII span: opened at construction, recorded into the current
/// thread's sink at destruction. With no sink installed both ends are a
/// thread-local load and a branch -- no clock read, no allocation -- so
/// hot paths (unification, CHECK-SAT queries) carry Spans
/// unconditionally. \p Name must be a string literal (it is stored, not
/// copied).
class Span {
public:
  explicit Span(const char *Name) : Name(Name) {
    if (TraceSink *S = currentTraceSink()) {
      Sink = S;
      Start = S->nowMicros();
      Depth = S->enterSpan();
    }
  }
  ~Span() {
    if (Sink) {
      Sink->exitSpan();
      Sink->record(Name, Start, Sink->nowMicros() - Start, Depth);
    }
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  TraceSink *Sink = nullptr;
  uint64_t Start = 0;
  uint32_t Depth = 0;
};

} // namespace lna

#endif // LNA_OBS_TRACE_H

//===- Trace.cpp - Span tracing with thread-local sinks -------------------===//

#include "obs/Trace.h"

#include "support/Stats.h"

#include <cinttypes>
#include <cstdio>

namespace lna {

namespace {
thread_local TraceSink *CurSink = nullptr;
} // namespace

TraceSink *currentTraceSink() noexcept { return CurSink; }

TraceSink *exchangeThreadTraceSink(TraceSink *S) noexcept {
  TraceSink *Prev = CurSink;
  CurSink = S;
  return Prev;
}

TraceScope::TraceScope(TraceSink &S) : Prev(CurSink) { CurSink = &S; }
TraceScope::~TraceScope() { CurSink = Prev; }

double traceClockMicrosPerTick() {
#if defined(__x86_64__)
  // Calibrate the TSC rate against the steady clock, once per process.
  // A ~2ms window bounds the error from the bracketing clock reads to a
  // few per-mille; the spin only runs when the first sink is built.
  static const double MPT = [] {
    using Clock = std::chrono::steady_clock;
    Clock::time_point T0 = Clock::now();
    uint64_t K0 = __rdtsc();
    while (Clock::now() - T0 < std::chrono::milliseconds(2)) {
    }
    Clock::time_point T1 = Clock::now();
    uint64_t K1 = __rdtsc();
    double Us = std::chrono::duration<double, std::micro>(T1 - T0).count();
    return K1 > K0 ? Us / static_cast<double>(K1 - K0) : 1e-3;
  }();
  return MPT;
#else
  using Period = std::chrono::steady_clock::period;
  return 1e6 * static_cast<double>(Period::num) /
         static_cast<double>(Period::den);
#endif
}

TraceSink::TraceSink(size_t Capacity)
    : Ring(Capacity ? Capacity : 1), EpochTicks(traceClockTicks()),
      MicrosPerTick(traceClockMicrosPerTick()) {}

void TraceSink::reset(size_t Capacity) {
  if (Capacity == 0)
    Capacity = 1;
  // Stale entries past Total are never read back, so the ring needs no
  // re-zeroing -- only a resize when the requested capacity changed.
  if (Ring.size() != Capacity)
    Ring.assign(Capacity, Event{});
  Total = 0;
  Depth = 0;
  EpochTicks = traceClockTicks();
}

std::string TraceSink::renderChromeJSON() const {
  std::string Out;
  Out.reserve(numRecorded() * 96 + 64);
  Out += "{\"traceEvents\":[";
  // Oldest surviving span first. Spans land in the ring in completion
  // order; the viewer reconstructs nesting from ts/dur, so completion
  // order is fine, but a stable oldest-first order keeps the file
  // deterministic for a given set of recorded spans.
  size_t N = numRecorded();
  size_t First = Total > Ring.size()
                     ? static_cast<size_t>(Total % Ring.size())
                     : 0;
  char Buf[192];
  for (size_t I = 0; I < N; ++I) {
    const Event &E = Ring[(First + I) % Ring.size()];
    if (I)
      Out += ',';
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"cat\":\"lna\",\"ph\":\"X\",\"ts\":%" PRIu64
                  ",\"dur\":%" PRIu64
                  ",\"pid\":1,\"tid\":1,\"args\":{\"depth\":%u}}",
                  jsonEscape(E.Name ? E.Name : "").c_str(), E.Start, E.Dur,
                  E.Depth);
    Out += Buf;
  }
  Out += "],\"displayTimeUnit\":\"ms\",\"droppedEvents\":";
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, numDropped());
  Out += Buf;
  Out += "}\n";
  return Out;
}

} // namespace lna

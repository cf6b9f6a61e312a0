//===- FlightRecorder.h - Worker black-box span persistence ----*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker flight recorder: a black-box file each `--worker` process
/// keeps current so the supervisor can answer "where was the worker, and
/// what was it *doing*" after a SIGKILL or OOM death -- the one failure
/// shape where the worker cannot report anything itself. The black box
/// is the only record of a dead worker's position: the supervisor takes
/// the quarantine row's phase and the `worker-death` event's `phase`
/// field from it.
///
/// At every phase boundary (the same hook fault injection uses) the
/// worker records two things:
///
///  * the boundary's site name, overwriting a fixed slot at the start of
///    the file -- so the site survives even when no span closed since
///    the previous boundary or the frames have filled the mapping;
///  * the spans closed since the previous flush, drained straight out of
///    the sink's ring and appended as one length-framed frame.
///
/// Storage is a fixed-size file mapped once with mmap(2): a flush is a
/// formatted memcpy into the mapping plus a NUL sentinel after the last
/// committed byte -- zero syscalls on the per-phase hot path, which
/// keeps the recorder's overhead negligible even for sub-millisecond
/// modules. Durability against SIGKILL is the same as write(2)'s:
/// dirty pages of a shared file mapping live in the page cache and
/// survive the death of the process that wrote them. Only the frames a
/// module writes past the mapping's capacity are dropped (the box keeps
/// the oldest frames; capacity fits thousands of spans).
///
/// File format (single writer, one file per worker slot):
///
///   <site>\0...                            -- SiteSlotBytes-byte slot
///   lna-blackbox 2 <name-len>\n<name>      -- per-module header
///   F <span-count> <payload-len>\n<payload> -- zero or more frames
///
/// where the payload is span-count lines of `<start> <dur> <depth>
/// <name>\n` (microseconds since the module's sink epoch). The slot
/// holds the last phase-boundary site as a NUL-terminated name (empty
/// before the first boundary). beginModule empties the slot, rewinds
/// the frames to just past it and rewrites the header, so the file
/// always describes the most recent module -- exactly the one in flight
/// when a worker dies. The NUL sentinel fences off whatever stale bytes
/// of the previous module sit beyond the committed region.
///
/// The loader is torn-tail-tolerant in the style of the PR 8 checkpoint
/// journal: a frame whose declared length runs past the sentinel, or
/// whose payload does not parse, ends the recording there and keeps
/// every complete frame before it. A missing or torn header yields an
/// invalid recording (Valid == false).
///
//===----------------------------------------------------------------------===//

#ifndef LNA_OBS_FLIGHTRECORDER_H
#define LNA_OBS_FLIGHTRECORDER_H

#include "obs/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lna {

/// Writer side, used inside `--worker` processes. Single-threaded like
/// the TraceSink it drains.
class FlightRecorder {
public:
  FlightRecorder() = default;
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  /// Opens (and truncates) the black-box file. False when it cannot be
  /// created; the recorder then stays inert.
  bool open(const std::string &Path);
  bool isOpen() const { return Fd >= 0; }
  void close();

  /// Starts recording \p ModuleName: empties the site slot, rewinds the
  /// frames and writes a fresh header. Call once per analysis attempt,
  /// before any flush.
  void beginModule(const std::string &ModuleName);

  /// Appends the spans \p Sink closed since the previous flush as one
  /// frame. Pure memory writes; cheap when nothing new closed.
  void flush(const TraceSink &Sink);

  /// Overwrites the site slot with \p Site, the phase boundary the
  /// worker just passed (truncated to SiteSlotBytes - 1 bytes). A death
  /// mid-update leaves the slot empty, never a torn name.
  void noteSite(const char *Site);

  /// Size of the mapped black-box file.
  static constexpr size_t MapBytes = 1 << 16;
  /// Size of the site slot at the start of the file.
  static constexpr size_t SiteSlotBytes = 64;

private:
  void append(const char *Data, size_t Len);

  int Fd = -1;
  char *Map = nullptr;
  size_t Offset = 0;   ///< committed bytes of the current module
  bool Full = false;   ///< current module overflowed the mapping
  uint64_t Cursor = 0; ///< absolute span index already persisted
};

/// One recovered black box.
struct FlightRecording {
  struct Span {
    std::string Name;
    uint64_t Start = 0;
    uint64_t Dur = 0;
    uint32_t Depth = 0;
  };
  bool Valid = false;  ///< header parsed; Site and Spans meaningful
  std::string Module;  ///< module the worker was analyzing
  std::string Site;    ///< last phase-boundary site passed (empty: none)
  std::vector<Span> Spans; ///< complete frames' spans, oldest first
};

/// Reads a black-box file, keeping every complete frame before the
/// first torn or malformed one. Missing/unreadable file or torn header
/// yields Valid == false.
FlightRecording loadFlightRecording(const std::string &Path);

/// Renders the tail of \p R (up to \p MaxSpans most recent spans) as a
/// compact one-line forensics summary for quarantine rows and stderr,
/// e.g. `solve +120us/45us, check-sat +180us/12us`. Empty when there is
/// nothing to show.
std::string summarizeFlightTail(const FlightRecording &R, size_t MaxSpans);

} // namespace lna

#endif // LNA_OBS_FLIGHTRECORDER_H

//===- FlightRecorder.cpp - Worker black-box span persistence -------------===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

using namespace lna;

FlightRecorder::~FlightRecorder() { close(); }

bool FlightRecorder::open(const std::string &Path) {
  close();
  Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;
  if (::ftruncate(Fd, static_cast<off_t>(MapBytes)) != 0) {
    close();
    return false;
  }
  void *M =
      ::mmap(nullptr, MapBytes, PROT_READ | PROT_WRITE, MAP_SHARED, Fd, 0);
  if (M == MAP_FAILED) {
    close();
    return false;
  }
  Map = static_cast<char *>(M);
  Map[0] = '\0';
  Map[SiteSlotBytes] = '\0';
  return true;
}

void FlightRecorder::close() {
  if (Map) {
    ::munmap(Map, MapBytes);
    Map = nullptr;
  }
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Offset = 0;
  Full = false;
  Cursor = 0;
}

void FlightRecorder::append(const char *Data, size_t Len) {
  // The sentinel byte after the committed region needs one spare slot.
  if (Full || Offset + Len + 1 > MapBytes) {
    Full = true;
    return;
  }
  std::memcpy(Map + Offset, Data, Len);
  Offset += Len;
  // NUL sentinel: whatever stale bytes of a previous module sit beyond
  // the committed region must never parse as this module's frames.
  Map[Offset] = '\0';
}

void FlightRecorder::beginModule(const std::string &ModuleName) {
  if (!Map)
    return;
  // The black box describes one module at a time: the most recent one.
  Map[0] = '\0';
  Offset = SiteSlotBytes;
  Full = false;
  Cursor = 0;
  Map[Offset] = '\0';
  char Hdr[64];
  int N = std::snprintf(Hdr, sizeof(Hdr), "lna-blackbox 2 %zu\n",
                        ModuleName.size());
  append(Hdr, static_cast<size_t>(N));
  append(ModuleName.data(), ModuleName.size());
}

void FlightRecorder::noteSite(const char *Site) {
  if (!Map)
    return;
  size_t Len = std::min(std::strlen(Site), SiteSlotBytes - 1);
  // The first byte commits the slot: it is cleared before the rest is
  // rewritten and set last, so a kill mid-update leaves an empty slot
  // rather than a mix of two names. The fences keep the compiler from
  // merging or reordering those stores.
  Map[0] = '\0';
  std::atomic_signal_fence(std::memory_order_seq_cst);
  if (Len > 1)
    std::memcpy(Map + 1, Site + 1, Len - 1);
  Map[Len] = '\0';
  std::atomic_signal_fence(std::memory_order_seq_cst);
  if (Len)
    Map[0] = Site[0];
}

namespace {

/// Writes \p V in decimal at \p Out followed by \p Suffix; returns one
/// past the suffix. std::to_chars, not snprintf: this runs at every
/// phase boundary of every module, and format-string parsing is the
/// bulk of snprintf's cost at that rate.
char *putNum(char *Out, uint64_t V, char Suffix) {
  auto [End, Ec] = std::to_chars(Out, Out + 20, V);
  (void)Ec; // 20 digits always fit a uint64_t
  *End = Suffix;
  return End + 1;
}

/// Overwrites the \p Width bytes before \p FieldEnd with \p V in
/// zero-padded decimal (the loader's %llu ignores the padding).
void patchNum(char *FieldEnd, int Width, uint64_t V) {
  for (int I = 0; I < Width; ++I) {
    FieldEnd[-1 - I] = static_cast<char>('0' + V % 10);
    V /= 10;
  }
}

} // namespace

void FlightRecorder::flush(const TraceSink &Sink) {
  if (!Map)
    return;
  uint64_t From = std::max(Cursor, Sink.oldestIndex());
  uint64_t Newest = Sink.numTotal();
  Cursor = Newest;
  if (From >= Newest || Full)
    return;
  // The frame is formatted straight into the mapping -- no bounce
  // buffer, so a flush touches only the map's tail page plus the
  // recorder itself. The header's count/length fields cannot be known
  // before the payload is written, so they start as '?' placeholders
  // (unparseable: a death mid-flush leaves a frame the loader drops as
  // torn) and are patched to zero-padded decimals afterwards. Only then
  // does the sentinel commit the frame.
  //
  // Header shape: "F ccccc llllll\n" (5-digit count, 6-digit length).
  char *Base = Map + Offset, *End = Map + MapBytes;
  char *P = Base;
  constexpr size_t HdrLen = 15;
  if (End - P < static_cast<ptrdiff_t>(HdrLen + 1)) {
    Full = true;
    return;
  }
  std::memcpy(P, "F ????? ??????\n", HdrLen);
  P += HdrLen;
  for (uint64_t I = From; I < Newest; ++I) {
    SpanRecord S = Sink.spanAt(I);
    size_t NameLen = S.Name ? std::strlen(S.Name) : 0;
    // Worst case: three 20-digit numbers, three separators, the name,
    // the newline, and the trailing sentinel byte.
    if (static_cast<size_t>(End - P) < 64 + NameLen + 2) {
      // Overflow drops the whole frame (the box keeps the oldest
      // frames): restore the sentinel the header overwrote.
      Full = true;
      Base[0] = '\0';
      return;
    }
    P = putNum(P, S.Start, ' ');
    P = putNum(P, S.Dur, ' ');
    P = putNum(P, S.Depth, ' ');
    std::memcpy(P, S.Name ? S.Name : "", NameLen);
    P += NameLen;
    *P++ = '\n';
  }
  patchNum(Base + 7, 5, Newest - From);
  patchNum(Base + 14, 6, static_cast<size_t>(P - (Base + HdrLen)));
  *P = '\0'; // sentinel: commits the frame
  Offset = static_cast<size_t>(P - Map);
}

FlightRecording lna::loadFlightRecording(const std::string &Path) {
  FlightRecording R;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return R;
  std::string Data;
  char Buf[4096];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Data.append(Buf, Got);
  std::fclose(F);

  // Site slot, then the header "lna-blackbox 2 <name-len>\n<name>".
  if (Data.size() <= FlightRecorder::SiteSlotBytes)
    return R;
  std::string Site =
      Data.substr(0, std::min(Data.find('\0'), FlightRecorder::SiteSlotBytes));
  size_t Pos = Data.find('\n', FlightRecorder::SiteSlotBytes);
  if (Pos == std::string::npos)
    return R;
  unsigned long long NameLen = 0;
  if (std::sscanf(Data.c_str() + FlightRecorder::SiteSlotBytes,
                  "lna-blackbox 2 %llu", &NameLen) != 1)
    return R;
  size_t NameStart = Pos + 1;
  if (NameStart + NameLen > Data.size())
    return R; // torn header: name truncated by the death
  R.Module = Data.substr(NameStart, static_cast<size_t>(NameLen));
  R.Site = std::move(Site);
  R.Valid = true;
  Pos = NameStart + static_cast<size_t>(NameLen);

  // Frames, until the first torn or malformed one.
  while (Pos < Data.size()) {
    size_t Eol = Data.find('\n', Pos);
    if (Eol == std::string::npos)
      break;
    unsigned long long Count = 0, PayloadLen = 0;
    if (std::sscanf(Data.c_str() + Pos, "F %llu %llu", &Count, &PayloadLen) !=
        2)
      break;
    size_t Payload = Eol + 1;
    if (Payload + PayloadLen > Data.size())
      break; // torn frame: declared length runs past end-of-file
    // Parse the payload lines; a malformed payload invalidates only
    // this frame (and, being the writer's last, ends the recording).
    std::vector<FlightRecording::Span> Frame;
    size_t P = Payload, End = Payload + static_cast<size_t>(PayloadLen);
    bool Ok = true;
    for (unsigned long long I = 0; I < Count; ++I) {
      size_t LineEnd = Data.find('\n', P);
      if (LineEnd == std::string::npos || LineEnd >= End) {
        Ok = false;
        break;
      }
      unsigned long long Start = 0, Dur = 0;
      unsigned Depth = 0;
      int Used = 0;
      if (std::sscanf(Data.c_str() + P, "%llu %llu %u %n", &Start, &Dur,
                      &Depth, &Used) != 3 ||
          P + static_cast<size_t>(Used) > LineEnd) {
        Ok = false;
        break;
      }
      FlightRecording::Span S;
      S.Start = Start;
      S.Dur = Dur;
      S.Depth = Depth;
      S.Name = Data.substr(P + static_cast<size_t>(Used),
                           LineEnd - P - static_cast<size_t>(Used));
      Frame.push_back(std::move(S));
      P = LineEnd + 1;
    }
    if (!Ok || P != End)
      break;
    for (FlightRecording::Span &S : Frame)
      R.Spans.push_back(std::move(S));
    Pos = End;
  }
  return R;
}

std::string lna::summarizeFlightTail(const FlightRecording &R,
                                     size_t MaxSpans) {
  if (!R.Valid || R.Spans.empty() || MaxSpans == 0)
    return {};
  size_t First = R.Spans.size() > MaxSpans ? R.Spans.size() - MaxSpans : 0;
  std::string Out;
  char Buf[64];
  for (size_t I = First; I < R.Spans.size(); ++I) {
    const FlightRecording::Span &S = R.Spans[I];
    if (!Out.empty())
      Out += ", ";
    Out += S.Name;
    std::snprintf(Buf, sizeof(Buf), " +%" PRIu64 "us/%" PRIu64 "us", S.Start,
                  S.Dur);
    Out += Buf;
  }
  return Out;
}

//===- CacheStore.h - Persistent content-addressed result cache -*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent result cache behind `--cache-dir`. The analysis is a
/// pure function of (module source bytes, canonicalized pipeline-options
/// fingerprint, analyzer version), so repeated corpus runs can skip every
/// module whose inputs are unchanged: the paper's O(kn) CHECK-SAT cost is
/// paid once per distinct input, and warm runs are limited by I/O.
///
/// Design points:
///
///  * **Content-addressed.** Keys are 128-bit digests (support/Hash.h)
///    of the full input identity; there is no invalidation protocol.
///    Anything that can change an outcome -- source edit, option change,
///    analyzer upgrade (support/Version.h) -- changes the key, and the
///    old entry simply becomes unreachable. A short namespace prefix
///    lets one directory serve both layers that memoize through it:
///    "m-" corpus module outcomes (corpus/Experiment.h) and "a-" whole
///    lna-analyze invocations (serve/Invocation.h). Values are opaque
///    byte strings; serialization belongs to the layer that owns the
///    cached type. The analysis core itself knows nothing of caching.
///
///  * **Atomic publication.** store() writes a private temp file in the
///    cache directory and renames it into place. rename(2) is atomic on
///    POSIX, so concurrent `--jobs=N` writers (or two concurrent corpus
///    runs sharing a directory) can race freely: readers see either no
///    entry or a complete one, never a torn write. Losing a race is
///    harmless -- both writers publish identical bytes.
///
///  * **Corruption is a miss.** Every entry carries a header with the
///    payload length and its FNV-1a checksum. A truncated, garbage, or
///    wrong-version entry fails validation and load() reports a miss
///    (counted as stale), so a damaged cache can cost time but never
///    correctness.
///
///  * **Counted.** Hits / misses / stale entries / failed stores are
///    atomic counters; lna-corpus surfaces them on stderr and in the
///    metrics registry. They live outside the deterministic corpus
///    report on purpose: a warm run's report must be byte-identical to
///    a cold run's.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_CACHE_CACHESTORE_H
#define LNA_CACHE_CACHESTORE_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lna {

/// Directory-backed content-addressed byte store. One file per entry,
/// named by key. Safe to call from multiple threads concurrently (the
/// parallel corpus runner's workers share one store).
class CacheStore {
public:
  /// Minimum age (by mtime) before an orphaned temp file is considered
  /// abandoned and swept. A quarter hour is far beyond any legitimate
  /// in-flight write (temps live for one fwrite+rename) while still
  /// reclaiming crash garbage promptly on the next open.
  static constexpr uint64_t DefaultSweepMinAgeSeconds = 900;

  /// Uses (and creates, if needed) \p Dir. Check ok() before relying on
  /// the store; a store that failed to open degrades to all-miss /
  /// store-failure behavior rather than throwing. Opening also sweeps
  /// orphaned ".tmp-*" files left behind by writers that died between
  /// the temp write and the rename (a crashed worker, a power cut) --
  /// they are private unpublished garbage by construction, never
  /// reachable entries. Only temps older than \p SweepMinAgeSeconds are
  /// removed: several processes may share one cache directory (corpus
  /// jobs, CLI runs, a resident daemon), and a fresh ".tmp-*" may be
  /// another process's in-flight write, about to be renamed into place
  /// -- deleting it would make that writer's publication fail. Pass 0
  /// to sweep unconditionally (tests only).
  explicit CacheStore(std::string Dir,
                      uint64_t SweepMinAgeSeconds = DefaultSweepMinAgeSeconds);

  /// The directory exists and is usable.
  bool ok() const { return Usable; }
  const std::string &directory() const { return Dir; }

  /// The value published under \p Key, or nullopt (entry absent, or
  /// present but failed integrity checks -- a corrupt entry is a miss,
  /// never an error).
  std::optional<std::string> load(std::string_view Key);

  /// Atomically publishes \p Value under \p Key. Returns false on I/O
  /// failure; callers treat a failed store as "not cached", never as a
  /// run failure.
  bool store(std::string_view Key, std::string_view Value);

  /// Tells the store that a successfully loaded value was semantically
  /// unusable (deserialization failed, required section missing): the
  /// caller re-ran the work, so the hit is reclassified as stale.
  void noteSemanticStale();

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t stale() const { return Stale.load(std::memory_order_relaxed); }
  uint64_t storeFailures() const {
    return StoreFailures.load(std::memory_order_relaxed);
  }
  /// Orphaned temp files removed when the store was opened.
  uint64_t sweptTempFiles() const { return SweptTempFiles; }
  /// Whether publishing was disabled after a persistent I/O failure
  /// (disk full, quota, read-only or unwritable directory, I/O error).
  /// Reads keep working: a full disk degrades the cache to read-only
  /// with a single stderr warning instead of failing every store --
  /// and, crucially, instead of failing the *run*.
  bool writesDisabled() const {
    return WritesDisabled.load(std::memory_order_relaxed);
  }

private:
  std::string entryPath(std::string_view Key) const;
  /// Counts a failed store; \p Err (an errno) decides whether the
  /// failure is persistent enough to stop trying altogether.
  bool noteStoreFailure(int Err);

  std::string Dir;
  bool Usable = false;
  uint64_t SweptTempFiles = 0;
  std::atomic<bool> WritesDisabled{false};
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Stale{0};
  std::atomic<uint64_t> StoreFailures{0};
  std::atomic<uint64_t> TempSeq{0};
};

} // namespace lna

#endif // LNA_CACHE_CACHESTORE_H

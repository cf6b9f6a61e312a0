//===- HotStore.h - In-memory invocation result cache ---------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hot tier of the resident daemon's result cache: an LRU map from
/// invocation keys ("a-<digest>", serve/Invocation.h) to the finished
/// invocation in reply form. The exit status and the JSON-escaped
/// stdout/stderr are encoded once, when the entry is published, so a
/// hot hit costs one lookup plus one concatenation onto the request's
/// "id" echo.
///
/// Incremental re-analysis falls out of content addressing: the key
/// digests the source bytes, so an unchanged module is answered from
/// memory without touching the parser or the solver, and an *edited*
/// module simply hashes to a new key -- it invalidates exactly itself,
/// while every other module's entry stays hot. There is no invalidation
/// protocol to get wrong; superseded entries age out through the LRU.
///
/// Thread safety: one mutex around the map and every counter. Entries
/// are immutable and shared: get() hands out a reference-counted
/// pointer, so eviction never frees bytes a writer is still copying.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_SERVE_HOTSTORE_H
#define LNA_SERVE_HOTSTORE_H

#include "serve/Invocation.h"

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace lna {

/// The reply fields that follow `"ok":true,` for a finished invocation
/// answered from \p Tier:
///   "exit":N,"cache":"<Tier>","out":"<escaped>","err":"<escaped>"}
/// (closing brace included). Every analyze/infer/explain reply is
/// "{" + id echo + "\"ok\":true," + this.
std::string encodeReplyTail(const InvocationResult &R, const char *Tier);

/// Bounded LRU of finished invocations, keyed by invocation key.
class HotStore {
public:
  /// One published entry: encodeReplyTail(Result, "hot").
  using Reply = std::shared_ptr<const std::string>;

  explicit HotStore(size_t Capacity) : Capacity(Capacity ? Capacity : 1) {}

  /// The encoded reply tail recorded for \p Key, refreshing its
  /// recency; null on miss.
  Reply get(const std::string &Key);

  /// Publishes \p R under \p Key (last writer wins; concurrent workers
  /// that raced on the same miss publish identical bytes). The third
  /// parameter is vestigial -- entries no longer retain a session -- and
  /// only keeps perfbench/Serve.cpp's `put(Key, Result, nullptr)`
  /// compiling until that file next changes.
  void put(const std::string &Key, const InvocationResult &R,
           std::nullptr_t = nullptr);

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

private:
  struct Entry {
    Reply Bytes;
    std::list<std::string>::iterator LruIt;
  };

  size_t Capacity;
  mutable std::mutex Mutex;
  std::map<std::string, Entry> Entries;
  /// Most-recently-used first; values are keys into Entries.
  std::list<std::string> Lru;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
};

} // namespace lna

#endif // LNA_SERVE_HOTSTORE_H

//===- HotStore.cpp - In-memory invocation result cache -------------------===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "serve/HotStore.h"

#include "support/Stats.h"

using namespace lna;

std::string lna::encodeReplyTail(const InvocationResult &R,
                                 const char *Tier) {
  std::string S = "\"exit\":";
  S += std::to_string(R.Exit);
  S += ",\"cache\":\"";
  S += Tier;
  S += "\",\"out\":\"";
  S += jsonEscape(R.Out);
  S += "\",\"err\":\"";
  S += jsonEscape(R.Err);
  S += "\"}";
  return S;
}

HotStore::Reply HotStore::get(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Key);
  if (It == Entries.end()) {
    ++Misses;
    return nullptr;
  }
  Lru.splice(Lru.begin(), Lru, It->second.LruIt);
  ++Hits;
  return It->second.Bytes;
}

void HotStore::put(const std::string &Key, const InvocationResult &R,
                   std::nullptr_t) {
  // Encode outside the lock; readers only ever see finished bytes.
  Reply Bytes = std::make_shared<const std::string>(encodeReplyTail(R, "hot"));
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Key);
  if (It != Entries.end()) {
    It->second.Bytes = std::move(Bytes);
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    return;
  }
  Lru.push_front(Key);
  Entries.emplace(Key, Entry{std::move(Bytes), Lru.begin()});
  while (Entries.size() > Capacity) {
    Entries.erase(Lru.back());
    Lru.pop_back();
    ++Evictions;
  }
}

size_t HotStore::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

uint64_t HotStore::hits() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits;
}

uint64_t HotStore::misses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Misses;
}

uint64_t HotStore::evictions() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Evictions;
}

//===- Metrics.cpp - Counters and deterministic histograms ----------------===//

#include "obs/Metrics.h"

#include "support/Stats.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>

namespace lna {

namespace {
thread_local MetricsRegistry *CurMetrics = nullptr;
} // namespace

MetricsRegistry *currentMetrics() noexcept { return CurMetrics; }

MetricsRegistry *exchangeThreadMetrics(MetricsRegistry *R) noexcept {
  MetricsRegistry *Prev = CurMetrics;
  CurMetrics = R;
  return Prev;
}

MetricsScope::MetricsScope(MetricsRegistry &R) : Prev(CurMetrics) {
  CurMetrics = &R;
}
MetricsScope::~MetricsScope() { CurMetrics = Prev; }

uint64_t Histogram::quantile(double Q) const {
  if (!N)
    return 0;
  // Rank of the quantile in 1..N; ceil without going past N.
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(N));
  if (static_cast<double>(Rank) < Q * static_cast<double>(N))
    ++Rank;
  if (Rank < 1)
    Rank = 1;
  if (Rank > N)
    Rank = N;
  uint64_t Seen = 0;
  for (unsigned B = 0; B < NumBuckets; ++B) {
    Seen += Buckets[B];
    if (Seen >= Rank) {
      uint64_t V = bucketUpperBound(B);
      if (V < Lo)
        V = Lo;
      if (V > Hi)
        V = Hi;
      return V;
    }
  }
  return Hi;
}

bool Histogram::operator==(const Histogram &O) const {
  return N == O.N && Total == O.Total && min() == O.min() &&
         max() == O.max() &&
         std::memcmp(Buckets, O.Buckets, sizeof(Buckets)) == 0;
}

Histogram Histogram::fromRaw(const uint64_t *Buckets, uint64_t N,
                             uint64_t Total, uint64_t Lo, uint64_t Hi) {
  Histogram H;
  std::memcpy(H.Buckets, Buckets, sizeof(H.Buckets));
  H.N = N;
  H.Total = Total;
  H.Lo = Lo;
  H.Hi = Hi;
  return H;
}

namespace {

/// Process-wide metric-name interner behind metricId(). A deque keeps
/// the name strings at stable addresses for the handles to point at.
struct MetricInterner {
  std::mutex M;
  std::deque<std::string> Names;
  std::unordered_map<std::string_view, uint32_t> Ids;
};

MetricInterner &interner() {
  static MetricInterner I;
  return I;
}

} // namespace

MetricId metricId(std::string_view Name) {
  MetricInterner &I = interner();
  std::lock_guard<std::mutex> Lock(I.M);
  auto It = I.Ids.find(Name);
  if (It != I.Ids.end())
    return MetricId(It->second, &I.Names[It->second]);
  uint32_t Id = static_cast<uint32_t>(I.Names.size());
  I.Names.emplace_back(Name);
  I.Ids.emplace(I.Names.back(), Id);
  return MetricId(Id, &I.Names.back());
}

void MetricsRegistry::addCounter(std::string_view Name, uint64_t Delta) {
  for (auto &C : Counters)
    if (C.first == Name) {
      C.second += Delta;
      return;
    }
  Counters.emplace_back(std::string(Name), Delta);
}

void MetricsRegistry::recordValue(std::string_view Name, uint64_t V) {
  for (auto &H : Histograms)
    if (H.first == Name) {
      H.second.record(V);
      return;
    }
  Histograms.emplace_back(std::string(Name), Histogram());
  Histograms.back().second.record(V);
}

void MetricsRegistry::recordValue(MetricId Id, uint64_t V) {
  if (Id.Id < HistogramIdx.size()) {
    if (uint32_t Slot = HistogramIdx[Id.Id]) {
      Histograms[Slot - 1].second.record(V);
      return;
    }
  } else {
    HistogramIdx.resize(Id.Id + 1, 0);
  }
  // First touch of this registry: resolve against entries the string
  // path (or deserialize) may already have created, else append --
  // exactly what recordValue(Name) would do, preserving first-seen order.
  for (size_t I = 0; I < Histograms.size(); ++I)
    if (Histograms[I].first == *Id.NamePtr) {
      HistogramIdx[Id.Id] = static_cast<uint32_t>(I + 1);
      Histograms[I].second.record(V);
      return;
    }
  Histograms.emplace_back(*Id.NamePtr, Histogram());
  HistogramIdx[Id.Id] = static_cast<uint32_t>(Histograms.size());
  Histograms.back().second.record(V);
}

uint64_t MetricsRegistry::counter(std::string_view Name) const {
  for (const auto &C : Counters)
    if (C.first == Name)
      return C.second;
  return 0;
}

const Histogram *MetricsRegistry::findHistogram(std::string_view Name) const {
  for (const auto &H : Histograms)
    if (H.first == Name)
      return &H.second;
  return nullptr;
}

void MetricsRegistry::merge(const MetricsRegistry &Other) {
  for (const auto &C : Other.Counters)
    addCounter(C.first, C.second);
  for (const auto &OH : Other.Histograms) {
    bool Found = false;
    for (auto &H : Histograms)
      if (H.first == OH.first) {
        H.second.merge(OH.second);
        Found = true;
        break;
      }
    if (!Found)
      Histograms.push_back(OH);
  }
}

std::string MetricsRegistry::renderText() const {
  std::string Out;
  char Buf[192];
  if (!Counters.empty()) {
    Out += "  counters:\n";
    for (const auto &C : Counters) {
      std::snprintf(Buf, sizeof(Buf), "    %-28s %12" PRIu64 "\n",
                    C.first.c_str(), C.second);
      Out += Buf;
    }
  }
  if (!Histograms.empty()) {
    std::snprintf(Buf, sizeof(Buf), "  histograms: %-17s %12s %8s %8s %8s\n",
                  "", "count", "p50", "p95", "max");
    Out += Buf;
    for (const auto &H : Histograms) {
      std::snprintf(Buf, sizeof(Buf),
                    "    %-28s %12" PRIu64 " %8" PRIu64 " %8" PRIu64
                    " %8" PRIu64 "\n",
                    H.first.c_str(), H.second.count(), H.second.quantile(0.50),
                    H.second.quantile(0.95), H.second.max());
      Out += Buf;
    }
  }
  return Out;
}

std::string MetricsRegistry::renderJSON() const {
  std::string Out = "{\"counters\":{";
  char Buf[96];
  bool First = true;
  for (const auto &C : Counters) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    Out += jsonEscape(C.first);
    Out += "\":";
    std::snprintf(Buf, sizeof(Buf), "%" PRIu64, C.second);
    Out += Buf;
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &H : Histograms) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    Out += jsonEscape(H.first);
    Out += "\":{";
    std::snprintf(Buf, sizeof(Buf),
                  "\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"min\":%" PRIu64
                  ",\"max\":%" PRIu64 ",\"p50\":%" PRIu64 ",\"p95\":%" PRIu64
                  ",\"buckets\":{",
                  H.second.count(), H.second.sum(), H.second.min(),
                  H.second.max(), H.second.quantile(0.50),
                  H.second.quantile(0.95));
    Out += Buf;
    bool FirstB = true;
    const uint64_t *Bs = H.second.buckets();
    for (unsigned B = 0; B < Histogram::NumBuckets; ++B) {
      if (!Bs[B])
        continue;
      if (!FirstB)
        Out += ',';
      FirstB = false;
      std::snprintf(Buf, sizeof(Buf), "\"%" PRIu64 "\":%" PRIu64,
                    Histogram::bucketUpperBound(B), Bs[B]);
      Out += Buf;
    }
    Out += "}}";
  }
  Out += "}}\n";
  return Out;
}

// Serialized form (deterministic, self-delimiting, versioned):
//
//   metrics 1 <num-counters> <num-histograms>\n
//   c <value> <name-len>\n<name-bytes>
//   h <n> <total> <lo> <hi> <k> <bucket>:<count> ... <name-len>\n<name-bytes>
//
// Names are length-framed raw bytes (they may contain anything);
// histograms list only their k non-zero buckets as index:count pairs.
std::string MetricsRegistry::serialize() const {
  std::string Out = "metrics 1 ";
  Out += std::to_string(Counters.size());
  Out += ' ';
  Out += std::to_string(Histograms.size());
  Out += '\n';
  for (const auto &C : Counters) {
    Out += "c ";
    Out += std::to_string(C.second);
    Out += ' ';
    Out += std::to_string(C.first.size());
    Out += '\n';
    Out += C.first;
  }
  for (const auto &H : Histograms) {
    const Histogram &G = H.second;
    const uint64_t *Bs = G.buckets();
    unsigned K = 0;
    for (unsigned B = 0; B < Histogram::NumBuckets; ++B)
      if (Bs[B])
        ++K;
    Out += "h ";
    Out += std::to_string(G.count());
    Out += ' ';
    Out += std::to_string(G.sum());
    // Raw Lo/Hi, not min()/max(): an empty histogram's Lo is UINT64_MAX
    // and must round-trip so later record() calls behave identically.
    Out += ' ';
    Out += std::to_string(G.count() ? G.min() : UINT64_MAX);
    Out += ' ';
    Out += std::to_string(G.max());
    Out += ' ';
    Out += std::to_string(K);
    for (unsigned B = 0; B < Histogram::NumBuckets; ++B) {
      if (!Bs[B])
        continue;
      Out += ' ';
      Out += std::to_string(B);
      Out += ':';
      Out += std::to_string(Bs[B]);
    }
    Out += ' ';
    Out += std::to_string(H.first.size());
    Out += '\n';
    Out += H.first;
  }
  return Out;
}

bool MetricsRegistry::deserialize(std::string_view Bytes) {
  Counters.clear();
  Histograms.clear();
  // Cached-handle slot maps refer to the cleared storage.
  HistogramIdx.clear();
  std::string S(Bytes);
  size_t Pos = 0;
  auto Fail = [this] {
    Counters.clear();
    Histograms.clear();
    HistogramIdx.clear();
    return false;
  };
  auto ReadName = [&S, &Pos](unsigned long long Len, std::string &Name) {
    if (Len > S.size() - Pos)
      return false;
    Name = S.substr(Pos, Len);
    Pos += Len;
    return true;
  };

  unsigned long long Ver = 0, NC = 0, NH = 0;
  int Used = 0;
  if (std::sscanf(S.c_str(), "metrics %llu %llu %llu\n%n", &Ver, &NC, &NH,
                  &Used) != 3 ||
      Ver != 1 || Used <= 0)
    return Fail();
  Pos = static_cast<size_t>(Used);

  for (unsigned long long I = 0; I < NC; ++I) {
    unsigned long long V = 0, Len = 0;
    Used = 0;
    if (std::sscanf(S.c_str() + Pos, "c %llu %llu\n%n", &V, &Len, &Used) != 2 ||
        Used <= 0)
      return Fail();
    Pos += static_cast<size_t>(Used);
    std::string Name;
    if (!ReadName(Len, Name))
      return Fail();
    Counters.emplace_back(std::move(Name), V);
  }

  for (unsigned long long I = 0; I < NH; ++I) {
    unsigned long long N = 0, Total = 0, Lo = 0, Hi = 0, K = 0;
    Used = 0;
    if (std::sscanf(S.c_str() + Pos, "h %llu %llu %llu %llu %llu%n", &N, &Total,
                    &Lo, &Hi, &K, &Used) != 5 ||
        Used <= 0)
      return Fail();
    Pos += static_cast<size_t>(Used);
    uint64_t Buckets[Histogram::NumBuckets] = {};
    for (unsigned long long P = 0; P < K; ++P) {
      unsigned long long B = 0, Count = 0;
      Used = 0;
      if (std::sscanf(S.c_str() + Pos, " %llu:%llu%n", &B, &Count, &Used) !=
              2 ||
          Used <= 0 || B >= Histogram::NumBuckets)
        return Fail();
      Pos += static_cast<size_t>(Used);
      Buckets[B] = Count;
    }
    unsigned long long Len = 0;
    Used = 0;
    if (std::sscanf(S.c_str() + Pos, " %llu\n%n", &Len, &Used) != 1 ||
        Used <= 0)
      return Fail();
    Pos += static_cast<size_t>(Used);
    std::string Name;
    if (!ReadName(Len, Name))
      return Fail();
    Histograms.emplace_back(std::move(Name),
                            Histogram::fromRaw(Buckets, N, Total, Lo, Hi));
  }
  if (Pos != S.size())
    return Fail();
  return true;
}

} // namespace lna

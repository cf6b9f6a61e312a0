//===- Metrics.h - Counters and deterministic histograms ------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural metrics of the analyses: counters plus log2-bucketed
/// histograms of the distributions that the paper's complexity claims
/// are about -- effect-set sizes, unification chain depths, CHECK-SAT
/// visit counts per query, constraint-graph out-degrees.
///
/// Everything here is *deterministic by construction* so that corpus
/// reports are byte-identical regardless of `--jobs`:
///
///  * metrics record structure (sizes, depths, visit counts), never
///    wall-clock time;
///  * histograms use power-of-two buckets, so merging is bucket-wise
///    addition -- associative and commutative -- and quantiles computed
///    from buckets do not depend on merge order;
///  * the registry keeps names in first-seen order (like SessionStats),
///    and the corpus runner merges per-module registries serially in
///    module order after the parallel fan-out.
///
/// Recording goes through the same thread-local scope idiom as
/// support/Budget.h and obs/Trace.h: a MetricsScope installs a registry
/// for the current thread, and obsHistogram() is a thread-local load
/// and a branch when no registry is installed -- hot paths record
/// unconditionally at no cost when observability is off. Counters are
/// added to a registry directly (the corpus tool's cache counters).
///
//===----------------------------------------------------------------------===//

#ifndef LNA_OBS_METRICS_H
#define LNA_OBS_METRICS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lna {

/// A histogram over uint64 values with power-of-two buckets: bucket 0
/// holds the value 0 and bucket B >= 1 holds [2^(B-1), 2^B). Bucket
/// counts merge by addition, so merging is associative and commutative
/// and quantile estimates are independent of merge order.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 65;

  /// The bucket value \p V lands in.
  static unsigned bucketOf(uint64_t V) {
    unsigned B = 0;
    while (V) {
      ++B;
      V >>= 1;
    }
    return B;
  }
  /// The largest value bucket \p B can hold (its reported quantile
  /// value): 0 for bucket 0, 2^B - 1 otherwise.
  static uint64_t bucketUpperBound(unsigned B) {
    return B == 0 ? 0 : (B >= 64 ? UINT64_MAX : (uint64_t(1) << B) - 1);
  }

  void record(uint64_t V) {
    ++Buckets[bucketOf(V)];
    ++N;
    Total += V;
    if (V < Lo)
      Lo = V;
    if (V > Hi)
      Hi = V;
  }

  /// Bucket-wise addition; associative and commutative.
  void merge(const Histogram &O) {
    for (unsigned B = 0; B < NumBuckets; ++B)
      Buckets[B] += O.Buckets[B];
    N += O.N;
    Total += O.Total;
    if (O.Lo < Lo)
      Lo = O.Lo;
    if (O.Hi > Hi)
      Hi = O.Hi;
  }

  uint64_t count() const { return N; }
  uint64_t sum() const { return Total; }
  uint64_t min() const { return N ? Lo : 0; }
  uint64_t max() const { return N ? Hi : 0; }
  const uint64_t *buckets() const { return Buckets; }

  /// The upper bound of the bucket containing the ceil(Q*count)-th
  /// smallest value, clamped to [min, max]. Coarse (power-of-two
  /// resolution) but exactly reproducible across merge orders.
  uint64_t quantile(double Q) const;

  bool operator==(const Histogram &O) const;

  /// Reconstructs a histogram from previously serialized raw state (the
  /// result cache stores per-module registries; a deserialized histogram
  /// must merge and render exactly like the original). \p Buckets must
  /// point at NumBuckets counts. \p Lo / \p Hi are the raw stored fields
  /// (Lo is UINT64_MAX for an empty histogram).
  static Histogram fromRaw(const uint64_t *Buckets, uint64_t N, uint64_t Total,
                           uint64_t Lo, uint64_t Hi);

private:
  uint64_t Buckets[NumBuckets] = {};
  uint64_t N = 0;
  uint64_t Total = 0;
  uint64_t Lo = UINT64_MAX;
  uint64_t Hi = 0;
};

class MetricsRegistry;

/// An interned metric name: a process-wide id resolved once (typically
/// into a function-local static at the call site) so hot-loop recording
/// indexes straight into the registry instead of linearly comparing
/// names per event. The id is registry-independent; each registry lazily
/// maps it to its own slot, so cached handles survive the per-module
/// registry swaps of the corpus runner.
class MetricId {
public:
  uint32_t id() const { return Id; }
  std::string_view name() const { return *NamePtr; }

private:
  friend MetricId metricId(std::string_view Name);
  friend class MetricsRegistry;
  MetricId(uint32_t Id, const std::string *NamePtr)
      : Id(Id), NamePtr(NamePtr) {}

  uint32_t Id;
  const std::string *NamePtr; ///< stable storage in the interner
};

/// Interns \p Name (thread-safe; idempotent).
MetricId metricId(std::string_view Name);

/// Named counters and histograms in first-seen order, with a
/// deterministic merge (same discipline as SessionStats).
class MetricsRegistry {
public:
  /// Find-or-create; new names append.
  void addCounter(std::string_view Name, uint64_t Delta);
  void recordValue(std::string_view Name, uint64_t V);

  /// Cached-handle fast path: O(1) after the handle's first touch of
  /// this registry. Appends exactly like the string overload, so name
  /// order -- and therefore merge/text/JSON output -- is byte-identical
  /// whichever path records first.
  void recordValue(MetricId Id, uint64_t V);

  /// The counter's value, 0 if never recorded.
  uint64_t counter(std::string_view Name) const;
  /// The histogram, or nullptr if never recorded.
  const Histogram *findHistogram(std::string_view Name) const;

  bool empty() const { return Counters.empty() && Histograms.empty(); }

  /// Merges \p Other into this by name; unseen names append in
  /// \p Other's order. Histogram contents merge bucket-wise, so the
  /// result's *values* are independent of merge order (name order
  /// follows the merge sequence, which the corpus runner keeps in
  /// module order).
  void merge(const MetricsRegistry &Other);

  const std::vector<std::pair<std::string, uint64_t>> &counters() const {
    return Counters;
  }
  const std::vector<std::pair<std::string, Histogram>> &histograms() const {
    return Histograms;
  }

  /// Aligned text table: counters, then histograms with
  /// count/p50/p95/max columns.
  std::string renderText() const;
  /// {"counters":{...},"histograms":{name:{count,sum,min,max,p50,p95,
  /// buckets:{upper-bound:count,...}},...}}
  std::string renderJSON() const;

  /// A deterministic, self-delimiting byte encoding of the full registry
  /// state (names in order, counter values, raw histogram fields and
  /// non-zero buckets). deserialize() restores a registry that renders
  /// and merges identically; it returns false and leaves the registry
  /// empty when \p Bytes does not parse (truncation, version skew).
  std::string serialize() const;
  bool deserialize(std::string_view Bytes);

private:
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, Histogram>> Histograms;
  /// MetricId -> histogram slot index + 1 (0 = not yet resolved against
  /// this registry). Indexes stay valid across appends; deserialize()
  /// clears them along with the slots.
  std::vector<uint32_t> HistogramIdx;
};

/// The registry the current thread's metrics record into, or nullptr.
MetricsRegistry *currentMetrics() noexcept;

/// Replaces the thread's current registry, returning the previous one.
/// The request-boundary reset primitive (see exchangeThreadTraceSink in
/// obs/Trace.h): pooled server threads scrub the slot around each
/// request so no ambient registry from earlier work can absorb a later
/// request's samples.
MetricsRegistry *exchangeThreadMetrics(MetricsRegistry *R) noexcept;

/// Installs a registry as the thread's current one for the scope's
/// lifetime (saving and restoring any enclosing registry).
class MetricsScope {
public:
  explicit MetricsScope(MetricsRegistry &R);
  ~MetricsScope();
  MetricsScope(const MetricsScope &) = delete;
  MetricsScope &operator=(const MetricsScope &) = delete;

private:
  MetricsRegistry *Prev;
};

/// Records \p V into histogram \p Name in the current thread's
/// registry; no-op (a thread-local load and a branch) when none is
/// installed.
inline void obsHistogram(std::string_view Name, uint64_t V) {
  if (MetricsRegistry *R = currentMetrics())
    R->recordValue(Name, V);
}

/// Cached-handle variant for hot call sites:
/// \code
///   static const MetricId Visits = metricId("checksat-visits");
///   obsHistogram(Visits, N);
/// \endcode
inline void obsHistogram(const MetricId &Id, uint64_t V) {
  if (MetricsRegistry *R = currentMetrics())
    R->recordValue(Id, V);
}

} // namespace lna

#endif // LNA_OBS_METRICS_H

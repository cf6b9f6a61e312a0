//===- ObsTest.cpp - Observability layer tests ----------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Covers src/obs: span tracing (ring buffer, Chrome JSON export, scope
// routing, the zero-cost disabled path), metrics (histogram bucketing,
// merge associativity/commutativity, registry merge determinism), the
// provenance/explain layer end to end through a failing restrict and a
// failing confine, corpus metrics determinism across job counts, and the
// JSON escaping the emitters share.
//
//===----------------------------------------------------------------------===//

#include "corpus/Experiment.h"
#include "core/Session.h"
#include "obs/EventJournal.h"
#include "obs/FleetTrace.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Progress.h"
#include "obs/Provenance.h"
#include "obs/Trace.h"
#include "support/Stats.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <set>
#include <sstream>

using namespace lna;

//===----------------------------------------------------------------------===//
// Allocation counting (for the tracer-disabled zero-allocation check).
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GAllocs{0};
} // namespace

// GCC's inliner pairs the malloc in the replaced operator new with the
// free in operator delete and misreports a mismatch; the replacement is
// well-formed ([new.delete.single]).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *operator new(std::size_t Size) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(4), 3u);
  EXPECT_EQ(Histogram::bucketOf(UINT64_MAX), 64u);
  EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::bucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::bucketUpperBound(64), UINT64_MAX);
}

TEST(Histogram, EmptyAndBasicStats) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.quantile(0.5), 0u);
  H.record(3);
  H.record(5);
  H.record(100);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.sum(), 108u);
  EXPECT_EQ(H.min(), 3u);
  EXPECT_EQ(H.max(), 100u);
  // p50 lands in the bucket of 5 ([4,8) -> upper bound 7), p100 clamps
  // to the observed max.
  EXPECT_EQ(H.quantile(0.5), 7u);
  EXPECT_EQ(H.quantile(1.0), 100u);
  // Quantiles never report below the observed minimum.
  EXPECT_GE(H.quantile(0.0), 3u);
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  // Three histograms with pseudo-random (LCG) contents.
  Histogram A, B, C;
  uint64_t X = 12345;
  auto Next = [&X] {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    return X >> 33;
  };
  for (int I = 0; I < 200; ++I)
    A.record(Next() % 1000);
  for (int I = 0; I < 150; ++I)
    B.record(Next() % 50);
  for (int I = 0; I < 75; ++I)
    C.record(Next());

  Histogram AB_C = A;
  AB_C.merge(B);
  AB_C.merge(C);
  Histogram BC = B;
  BC.merge(C);
  Histogram A_BC = A;
  A_BC.merge(BC);
  EXPECT_TRUE(AB_C == A_BC);

  Histogram BA = B;
  BA.merge(A);
  Histogram AB = A;
  AB.merge(B);
  EXPECT_TRUE(AB == BA);
  EXPECT_EQ(AB.quantile(0.5), BA.quantile(0.5));
  EXPECT_EQ(AB.quantile(0.95), BA.quantile(0.95));
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(MetricsRegistry, CountersAndHistogramsByName) {
  MetricsRegistry R;
  EXPECT_TRUE(R.empty());
  R.addCounter("a", 2);
  R.addCounter("a", 3);
  R.addCounter("b", 1);
  R.recordValue("h", 7);
  R.recordValue("h", 9);
  EXPECT_FALSE(R.empty());
  EXPECT_EQ(R.counter("a"), 5u);
  EXPECT_EQ(R.counter("b"), 1u);
  EXPECT_EQ(R.counter("missing"), 0u);
  ASSERT_NE(R.findHistogram("h"), nullptr);
  EXPECT_EQ(R.findHistogram("h")->count(), 2u);
  EXPECT_EQ(R.findHistogram("missing"), nullptr);
}

TEST(MetricsRegistry, MergeSumsAndAppendsInOrder) {
  MetricsRegistry A, B;
  A.addCounter("x", 1);
  A.recordValue("h", 2);
  B.addCounter("y", 10);
  B.addCounter("x", 4);
  B.recordValue("h", 8);
  A.merge(B);
  EXPECT_EQ(A.counter("x"), 5u);
  EXPECT_EQ(A.counter("y"), 10u);
  ASSERT_EQ(A.counters().size(), 2u);
  // First-seen order: x (from A), then y (appended from B).
  EXPECT_EQ(A.counters()[0].first, "x");
  EXPECT_EQ(A.counters()[1].first, "y");
  EXPECT_EQ(A.findHistogram("h")->count(), 2u);
  EXPECT_EQ(A.findHistogram("h")->sum(), 10u);
}

TEST(MetricsRegistry, ScopeRoutesRecordingAndRestores) {
  EXPECT_EQ(currentMetrics(), nullptr);
  MetricsRegistry Outer, Inner;
  {
    MetricsScope SO(Outer);
    obsHistogram("c", 1);
    {
      MetricsScope SI(Inner);
      obsHistogram("c", 1);
      obsHistogram("h", 42);
    }
    obsHistogram("c", 1);
  }
  EXPECT_EQ(currentMetrics(), nullptr);
  ASSERT_NE(Outer.findHistogram("c"), nullptr);
  ASSERT_NE(Inner.findHistogram("c"), nullptr);
  EXPECT_EQ(Outer.findHistogram("c")->count(), 2u);
  EXPECT_EQ(Inner.findHistogram("c")->count(), 1u);
  EXPECT_EQ(Outer.findHistogram("h"), nullptr);
  ASSERT_NE(Inner.findHistogram("h"), nullptr);
  EXPECT_EQ(Inner.findHistogram("h")->max(), 42u);
}

TEST(MetricsRegistry, RenderJSONEscapesNames) {
  MetricsRegistry R;
  R.addCounter("we\"ird\\name", 1);
  std::string Json = R.renderJSON();
  EXPECT_NE(Json.find("we\\\"ird\\\\name"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Disabled-path cost: no sink, no registry -> no allocation.
//===----------------------------------------------------------------------===//

TEST(ObsDisabled, NoSinkMeansNoAllocation) {
  ASSERT_EQ(currentTraceSink(), nullptr);
  ASSERT_EQ(currentMetrics(), nullptr);
  static const MetricId Noop = metricId("noop");
  uint64_t Before = GAllocs.load(std::memory_order_relaxed);
  for (int I = 0; I < 1000; ++I) {
    Span Sp("noop");
    obsHistogram(Noop, static_cast<uint64_t>(I));
    obsHistogram("noop", static_cast<uint64_t>(I));
  }
  EXPECT_EQ(GAllocs.load(std::memory_order_relaxed), Before);
}

//===----------------------------------------------------------------------===//
// TraceSink
//===----------------------------------------------------------------------===//

TEST(TraceSink, RecordsSpansThroughScope) {
  TraceSink Sink;
  {
    TraceScope Scope(Sink);
    Span Outer("outer");
    { Span InnerSpan("inner"); }
  }
  EXPECT_EQ(Sink.numTotal(), 2u);
  EXPECT_EQ(Sink.numDropped(), 0u);
  std::string Json = Sink.renderChromeJSON();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"outer\""), std::string::npos);
  EXPECT_NE(Json.find("\"inner\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  // The inner span closed first and nests one level deeper.
  EXPECT_NE(Json.find("\"depth\":1"), std::string::npos);
}

TEST(TraceSink, RingOverwritesOldestAndCountsDropped) {
  TraceSink Sink(4);
  {
    TraceScope Scope(Sink);
    for (int I = 0; I < 6; ++I)
      Span Sp(I < 2 ? "old" : "new");
  }
  EXPECT_EQ(Sink.numTotal(), 6u);
  EXPECT_EQ(Sink.numRecorded(), 4u);
  EXPECT_EQ(Sink.numDropped(), 2u);
  std::string Json = Sink.renderChromeJSON();
  EXPECT_EQ(Json.find("\"old\""), std::string::npos);
  EXPECT_NE(Json.find("\"new\""), std::string::npos);
  EXPECT_NE(Json.find("\"droppedEvents\":2"), std::string::npos);
}

TEST(TraceSink, ScopeRestoresEnclosingSink) {
  ASSERT_EQ(currentTraceSink(), nullptr);
  TraceSink A, B;
  {
    TraceScope SA(A);
    EXPECT_EQ(currentTraceSink(), &A);
    {
      TraceScope SB(B);
      EXPECT_EQ(currentTraceSink(), &B);
    }
    EXPECT_EQ(currentTraceSink(), &A);
  }
  EXPECT_EQ(currentTraceSink(), nullptr);
}

//===----------------------------------------------------------------------===//
// Session integration: phases and solver internals produce spans and
// metrics.
//===----------------------------------------------------------------------===//

const char *DemoProgram = R"(
fun f(q : ptr int) : int {
  restrict p = q in {
    *p;
    *q
  }
}
)";

TEST(ObsSession, PhasesAndSolverSpansAppearInTrace) {
  TraceSink Sink;
  {
    TraceScope Scope(Sink);
    AnalysisSession S(PipelineOptions{});
    ASSERT_TRUE(S.run(DemoProgram));
  }
  std::string Json = Sink.renderChromeJSON();
  for (const char *Name : {"parse", "confine-placement", "typing",
                           "effect-constraints", "inference", "unify",
                           "solve", "propagate"})
    EXPECT_NE(Json.find(std::string("\"") + Name + "\""), std::string::npos)
        << "missing span " << Name;
}

TEST(ObsSession, SolverMetricsAppearInRegistry) {
  MetricsRegistry R;
  {
    MetricsScope Scope(R);
    AnalysisSession S(PipelineOptions{});
    ASSERT_TRUE(S.run(DemoProgram));
  }
  for (const char *Name :
       {"unify-chain-depth", "constraint-out-degree", "effect-set-size"}) {
    const Histogram *H = R.findHistogram(Name);
    ASSERT_NE(H, nullptr) << "missing histogram " << Name;
    EXPECT_GT(H->count(), 0u) << Name;
  }
}

TEST(ObsSession, CheckSatVisitsRecordedPerQuery) {
  MetricsRegistry R;
  {
    MetricsScope Scope(R);
    PipelineOptions Opts;
    Opts.Mode = PipelineMode::CheckAnnotations;
    AnalysisSession S(Opts);
    ASSERT_TRUE(S.run(DemoProgram));
  }
  const Histogram *H = R.findHistogram("checksat-visits");
  ASSERT_NE(H, nullptr);
  EXPECT_GT(H->count(), 0u);
}

//===----------------------------------------------------------------------===//
// Provenance / explain
//===----------------------------------------------------------------------===//

TEST(Explain, FailingRestrictYieldsConstraintPath) {
  PipelineOptions Opts;
  Opts.Mode = PipelineMode::CheckAnnotations;
  Opts.TrackProvenance = true;
  AnalysisSession S(Opts);
  ASSERT_TRUE(S.run(DemoProgram));
  const RestrictCheckResult &Checks = S.result().Checks;
  ASSERT_FALSE(Checks.ok());
  const RestrictViolation &V = Checks.Violations.front();
  EXPECT_EQ(V.K, RestrictViolation::Kind::AccessedInScope);
  ASSERT_NE(V.ExplainRho, InvalidLocId);
  ASSERT_NE(V.ExplainTarget, InvalidEffVar);
  std::vector<ExplainStep> Path =
      S.result().State->CS.explainReachAnyKind(V.ExplainRho, V.ExplainTarget);
  ASSERT_GE(Path.size(), 2u);
  // The path ends at the access that seeded the conflicting location.
  unsigned LocatedSteps = 0;
  for (const ExplainStep &Step : Path)
    if (Step.Loc.isValid())
      ++LocatedSteps;
  EXPECT_GE(LocatedSteps, 2u);
  EXPECT_TRUE(Path.back().Loc.isValid());
  std::string Rendered = renderConstraintPath(Path);
  EXPECT_NE(Rendered.find("1. "), std::string::npos);
  EXPECT_NE(Rendered.find(" at "), std::string::npos);
}

TEST(Explain, FailingConfineYieldsConstraintPath) {
  const char *Confine = R"(
var locks : array lock;
fun f(i : int, j : int) : int {
  confine locks[i] in {
    spin_lock(locks[i]);
    spin_unlock(locks[j]);
    0
  }
}
)";
  PipelineOptions Opts;
  Opts.Mode = PipelineMode::CheckAnnotations;
  Opts.TrackProvenance = true;
  AnalysisSession S(Opts);
  ASSERT_TRUE(S.run(Confine));
  const RestrictCheckResult &Checks = S.result().Checks;
  ASSERT_FALSE(Checks.ok());
  bool Found = false;
  for (const RestrictViolation &V : Checks.Violations) {
    if (V.K != RestrictViolation::Kind::AccessedInScope)
      continue;
    Found = true;
    ASSERT_NE(V.ExplainRho, InvalidLocId);
    std::vector<ExplainStep> Path = S.result().State->CS.explainReachAnyKind(
        V.ExplainRho, V.ExplainTarget);
    EXPECT_GE(Path.size(), 2u);
    EXPECT_TRUE(Path.back().Loc.isValid());
  }
  EXPECT_TRUE(Found);
}

TEST(Explain, ProvenanceOffStillReplaysReachability) {
  // Without TrackProvenance the fields still identify the query; the
  // path simply carries no origin notes/locations beyond defaults. The
  // reachability replay itself must still terminate and agree with
  // reaches().
  PipelineOptions Opts;
  Opts.Mode = PipelineMode::CheckAnnotations;
  AnalysisSession S(Opts);
  ASSERT_TRUE(S.run(DemoProgram));
  const RestrictCheckResult &Checks = S.result().Checks;
  ASSERT_FALSE(Checks.ok());
  const RestrictViolation &V = Checks.Violations.front();
  std::vector<ExplainStep> Path =
      S.result().State->CS.explainReachAnyKind(V.ExplainRho, V.ExplainTarget);
  EXPECT_FALSE(Path.empty());
}

TEST(Explain, RenderConstraintPathFormatsSteps) {
  std::vector<ExplainStep> Path;
  Path.push_back({SourceLoc{3, 7}, "effect of statement"});
  Path.push_back({SourceLoc{}, "synthetic step"});
  std::string Out = renderConstraintPath(Path, ">>");
  EXPECT_NE(Out.find(">>1. effect of statement at 3:7"), std::string::npos);
  EXPECT_NE(Out.find(">>2. synthetic step"), std::string::npos);
  // Invalid locations render without a location suffix.
  EXPECT_EQ(Out.find("synthetic step at"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Corpus determinism: metrics identical across job counts.
//===----------------------------------------------------------------------===//

TEST(ObsCorpus, MetricsIdenticalAcrossJobCounts) {
  std::vector<ModuleSpec> Corpus = generateCorpus();
  Corpus.resize(24);
  ExperimentOptions O1;
  O1.Jobs = 1;
  O1.CollectMetrics = true;
  ExperimentOptions O4 = O1;
  O4.Jobs = 4;
  CorpusSummary S1 = runCorpusExperiment(Corpus, O1);
  CorpusSummary S4 = runCorpusExperiment(Corpus, O4);
  EXPECT_FALSE(S1.Metrics.empty());
  EXPECT_EQ(S1.Metrics.renderJSON(), S4.Metrics.renderJSON());
  EXPECT_EQ(S1.Metrics.renderText(), S4.Metrics.renderText());
}

namespace {

/// Fails at the first effect-constraints phase boundary when armed:
/// deep enough into the pipeline that the aborted attempt has already
/// recorded typing metrics (unify-chain-depth) and parse/typing spans --
/// exactly the observability state the retry must discard.
class FailFirstAttempt final : public FaultHook {
public:
  explicit FailFirstAttempt(bool Fire) : Fire(Fire) {}
  void at(const char *Site) override {
    if (Fire && std::string_view(Site) == "effect-constraints")
      throw AnalysisAbort(FailureKind::InternalError,
                          "synthetic first-attempt fault");
  }

private:
  bool Fire;
};

/// Options whose fault hook fires on exactly the first attempt of every
/// module in \p Corpus: every module retries once and recovers.
ExperimentOptions failFirstOptions(const std::vector<ModuleSpec> &Corpus) {
  ExperimentOptions Opts;
  Opts.FaultSeed = 13;
  std::set<uint64_t> FirstAttemptSeeds;
  for (const ModuleSpec &M : Corpus)
    FirstAttemptSeeds.insert(moduleFaultSeed(Opts.FaultSeed, M.Name, 0));
  Opts.Faults = [FirstAttemptSeeds](uint64_t Seed) {
    return std::make_unique<FailFirstAttempt>(FirstAttemptSeeds.count(Seed) !=
                                              0);
  };
  return Opts;
}

/// The number of times a span named \p Name occurs in a Chrome
/// trace-event JSON string.
size_t countSpans(const std::string &Json, const std::string &Name) {
  std::string Needle = "{\"name\":\"" + Name + "\"";
  size_t Count = 0;
  for (size_t Pos = Json.find(Needle); Pos != std::string::npos;
       Pos = Json.find(Needle, Pos + 1))
    ++Count;
  return Count;
}

std::string slurpFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

} // namespace

TEST(ObsCorpus, RetriedModuleMetricsMatchACleanRun) {
  // Regression: the aborted first attempt's registry deltas were merged
  // into the kept attempt's, double-counting typing metrics for every
  // retried module. Whether the retry fired must be invisible in the
  // merged metrics.
  std::vector<ModuleSpec> Corpus = generateCorpus();
  Corpus.resize(6);
  ExperimentOptions Clean;
  Clean.CollectMetrics = true;
  CorpusSummary Base = runCorpusExperiment(Corpus, Clean);
  ExperimentOptions Faulted = failFirstOptions(Corpus);
  Faulted.CollectMetrics = true;
  CorpusSummary Retried = runCorpusExperiment(Corpus, Faulted);
  ASSERT_EQ(Retried.RetriedModules, 6u);
  ASSERT_EQ(Retried.FailedModules, 0u);
  ASSERT_FALSE(Base.Metrics.empty());
  EXPECT_EQ(Base.Metrics.renderJSON(), Retried.Metrics.renderJSON());
  EXPECT_EQ(Base.Metrics.renderText(), Retried.Metrics.renderText());
}

TEST(ObsCorpus, RetriedModuleTraceShowsOnlyTheKeptAttempt) {
  // Regression: a retried module's trace file used to contain the
  // aborted attempt's spans followed by the kept attempt's. The aborted
  // pipeline produced no outcome, so its spans must be discarded.
  std::vector<ModuleSpec> Corpus = generateCorpus();
  Corpus.resize(1);
  std::string Dir = testing::TempDir() + "lna_retry_trace";
  std::filesystem::create_directories(Dir);
  std::string TraceFile = Dir + "/" + Corpus[0].Name + ".trace.json";

  ExperimentOptions Clean;
  Clean.TraceDir = Dir;
  CorpusSummary Base = runCorpusExperiment(Corpus, Clean);
  ASSERT_EQ(Base.TraceWriteFailures, 0u);
  std::string CleanTrace = slurpFile(TraceFile);

  ExperimentOptions Faulted = failFirstOptions(Corpus);
  Faulted.TraceDir = Dir;
  CorpusSummary Retried = runCorpusExperiment(Corpus, Faulted);
  ASSERT_EQ(Retried.RetriedModules, 1u);
  ASSERT_EQ(Retried.FailedModules, 0u);
  std::string RetriedTrace = slurpFile(TraceFile);

  ASSERT_GT(countSpans(CleanTrace, "parse"), 0u);
  EXPECT_EQ(countSpans(RetriedTrace, "parse"),
            countSpans(CleanTrace, "parse"));
  EXPECT_EQ(countSpans(RetriedTrace, "typing"),
            countSpans(CleanTrace, "typing"));
  EXPECT_EQ(countSpans(RetriedTrace, "effect-constraints"),
            countSpans(CleanTrace, "effect-constraints"));
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// JSON escaping shared by the emitters (satellite: SessionStats dumps).
//===----------------------------------------------------------------------===//

TEST(JsonEscape, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(jsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(jsonEscape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

TEST(JsonEscape, SessionStatsDumpEscapesNames) {
  SessionStats Stats;
  Stats.phase("odd\"phase").add("odd\\counter", 1);
  std::string Json = Stats.renderJSON();
  EXPECT_NE(Json.find("odd\\\"phase"), std::string::npos);
  EXPECT_NE(Json.find("odd\\\\counter"), std::string::npos);
  EXPECT_EQ(Json.find("odd\"phase"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Incremental span drain (the flight recorder's read primitive).
//===----------------------------------------------------------------------===//

namespace {

/// The flight recorder's drain loop: the spans after absolute index
/// \p Cursor that the ring still holds, oldest first; advances Cursor.
std::vector<SpanRecord> drainSince(const TraceSink &Sink, uint64_t &Cursor) {
  std::vector<SpanRecord> Out;
  for (uint64_t I = std::max(Cursor, Sink.oldestIndex()); I < Sink.numTotal();
       ++I)
    Out.push_back(Sink.spanAt(I));
  Cursor = Sink.numTotal();
  return Out;
}

} // namespace

TEST(TraceSink, SpanAtDrainsIncrementallyAndSkipsOverwritten) {
  TraceSink Sink(4);
  Sink.record("a", 10, 1, 0);
  Sink.record("b", 20, 2, 1);
  Sink.record("c", 30, 3, 0);
  uint64_t Cursor = 0;
  std::vector<SpanRecord> Out = drainSince(Sink, Cursor);
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Cursor, 3u);
  EXPECT_EQ(Sink.oldestIndex(), 0u);
  EXPECT_STREQ(Out[0].Name, "a");
  EXPECT_EQ(Out[1].Depth, 1u);
  EXPECT_STREQ(Out[2].Name, "c");

  // Nothing new: no growth, cursor unchanged.
  EXPECT_TRUE(drainSince(Sink, Cursor).empty());
  EXPECT_EQ(Cursor, 3u);

  // Overflow the 4-slot ring: the drain resumes at the oldest span the
  // ring still holds, never re-reading or fabricating overwritten ones.
  for (int I = 0; I < 6; ++I)
    Sink.record("x", 100 + I, 1, 0);
  EXPECT_EQ(Sink.oldestIndex(), 5u);
  Out = drainSince(Sink, Cursor);
  EXPECT_EQ(Cursor, 9u);
  ASSERT_EQ(Out.size(), 4u);
  EXPECT_EQ(Out.front().Start, 102u);
  EXPECT_EQ(Out.back().Start, 105u);
}

//===----------------------------------------------------------------------===//
// Flight recorder: black-box round trip and torn-tail recovery.
//===----------------------------------------------------------------------===//

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + Name;
}

} // namespace

TEST(FlightRecorder, RoundTripRecoversFlushedSpans) {
  std::string Path = tempPath("lna_flight_roundtrip.blackbox");
  FlightRecorder Rec;
  ASSERT_TRUE(Rec.open(Path));
  Rec.beginModule("mod_alpha");

  TraceSink Sink(64);
  Sink.record("parse", 5, 10, 0);
  Sink.record("typing", 20, 30, 0);
  Rec.flush(Sink);
  Sink.record("solve", 60, 7, 1);
  Rec.flush(Sink);
  Rec.close();

  FlightRecording R = loadFlightRecording(Path);
  ASSERT_TRUE(R.Valid);
  EXPECT_EQ(R.Module, "mod_alpha");
  ASSERT_EQ(R.Spans.size(), 3u);
  EXPECT_EQ(R.Spans[0].Name, "parse");
  EXPECT_EQ(R.Spans[0].Start, 5u);
  EXPECT_EQ(R.Spans[0].Dur, 10u);
  EXPECT_EQ(R.Spans[2].Name, "solve");
  EXPECT_EQ(R.Spans[2].Depth, 1u);
  std::filesystem::remove(Path);
}

TEST(FlightRecorder, TornTailKeepsEveryCompleteFrame) {
  std::string Path = tempPath("lna_flight_torn.blackbox");
  FlightRecorder Rec;
  ASSERT_TRUE(Rec.open(Path));
  Rec.beginModule("mod_torn");
  TraceSink Sink(64);
  Sink.record("first", 1, 2, 0);
  Rec.flush(Sink); // frame 1: complete
  Sink.record("second", 10, 20, 0);
  Rec.flush(Sink); // frame 2: about to be torn
  Rec.close();

  // A SIGKILL mid-flush leaves a prefix of the last frame in the
  // mapping: clobber the second frame one byte into its payload, as an
  // interrupted in-place format would (the header is 15 bytes,
  // "F ccccc llllll\n").
  std::string Bytes = slurpFile(Path);
  size_t Frame1 = Bytes.find("F 00001 ");
  ASSERT_NE(Frame1, std::string::npos);
  size_t Frame2 = Bytes.find("F 00001 ", Frame1 + 1);
  ASSERT_NE(Frame2, std::string::npos);
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::in);
    Out.seekp(static_cast<std::streamoff>(Frame2 + 16));
    Out.put('\0');
  }

  FlightRecording R = loadFlightRecording(Path);
  ASSERT_TRUE(R.Valid);
  EXPECT_EQ(R.Module, "mod_torn");
  ASSERT_EQ(R.Spans.size(), 1u);
  EXPECT_EQ(R.Spans[0].Name, "first");
  std::filesystem::remove(Path);
}

TEST(FlightRecorder, BeginModuleResetsTheRecording) {
  // The black box always describes the module in flight: a new
  // beginModule must discard the previous module's frames wholesale.
  std::string Path = tempPath("lna_flight_reset.blackbox");
  FlightRecorder Rec;
  ASSERT_TRUE(Rec.open(Path));
  TraceSink S1(64);
  Rec.beginModule("mod_old");
  S1.record("stale", 1, 1, 0);
  Rec.flush(S1);

  TraceSink S2(64);
  Rec.beginModule("mod_new");
  S2.record("fresh", 2, 3, 0);
  Rec.flush(S2);
  Rec.close();

  FlightRecording R = loadFlightRecording(Path);
  ASSERT_TRUE(R.Valid);
  EXPECT_EQ(R.Module, "mod_new");
  ASSERT_EQ(R.Spans.size(), 1u);
  EXPECT_EQ(R.Spans[0].Name, "fresh");
  std::filesystem::remove(Path);
}

TEST(FlightRecorder, SiteSlotKeepsLastSiteAcrossEmptyFramesAndOverflow) {
  std::string Path = tempPath("lna_flight_site.blackbox");
  FlightRecorder Rec;
  ASSERT_TRUE(Rec.open(Path));
  Rec.beginModule("mod_site");
  EXPECT_EQ(loadFlightRecording(Path).Site, "");

  // A boundary with no span closed since the last flush writes no
  // frame, but the site is still recorded.
  TraceSink Sink(1 << 12);
  Rec.flush(Sink);
  Rec.noteSite("corpus:module");
  FlightRecording R = loadFlightRecording(Path);
  ASSERT_TRUE(R.Valid);
  EXPECT_EQ(R.Site, "corpus:module");
  EXPECT_TRUE(R.Spans.empty());

  Sink.record("parse", 1, 1, 0);
  Rec.flush(Sink);
  Rec.noteSite("typing");

  // Overflow the mapping (~200 KB of spans in one frame): that frame and
  // every later one are dropped, but the slot keeps moving.
  for (int I = 0; I < 4000; ++I)
    Sink.record("a-span-name-long-enough-to-fill-the-box", 1, 1, 0);
  Rec.flush(Sink);
  Rec.noteSite("check-sat");
  Sink.record("late", 2, 2, 0);
  Rec.flush(Sink);
  Rec.noteSite("inference");
  R = loadFlightRecording(Path);
  ASSERT_TRUE(R.Valid);
  EXPECT_EQ(R.Module, "mod_site");
  EXPECT_EQ(R.Site, "inference");
  ASSERT_EQ(R.Spans.size(), 1u);
  EXPECT_EQ(R.Spans[0].Name, "parse");

  // A shorter site fully replaces a longer one; a new module starts
  // with an empty slot.
  Rec.noteSite("x");
  EXPECT_EQ(loadFlightRecording(Path).Site, "x");
  Rec.beginModule("mod_next");
  R = loadFlightRecording(Path);
  EXPECT_EQ(R.Module, "mod_next");
  EXPECT_EQ(R.Site, "");
  Rec.close();
  std::filesystem::remove(Path);
}

TEST(FlightRecorder, MissingOrGarbageFileIsInvalid) {
  EXPECT_FALSE(loadFlightRecording(tempPath("lna_flight_nope")).Valid);
  std::string Path = tempPath("lna_flight_garbage.blackbox");
  {
    std::ofstream Out(Path);
    Out << "not a black box at all\n";
  }
  EXPECT_FALSE(loadFlightRecording(Path).Valid);
  std::filesystem::remove(Path);
}

TEST(FlightRecorder, SummarizeTailShowsMostRecentSpans) {
  FlightRecording R;
  R.Valid = true;
  R.Module = "m";
  for (int I = 0; I < 8; ++I) {
    FlightRecording::Span S;
    S.Name = "s";
    S.Name += std::to_string(I);
    S.Start = static_cast<uint64_t>(I * 10);
    S.Dur = static_cast<uint64_t>(I);
    R.Spans.push_back(std::move(S));
  }
  std::string Tail = summarizeFlightTail(R, 3);
  // Only the last three spans, oldest of them first.
  EXPECT_EQ(Tail.find("s4"), std::string::npos);
  EXPECT_NE(Tail.find("s5 +50us/5us"), std::string::npos);
  EXPECT_NE(Tail.find("s7 +70us/7us"), std::string::npos);
  EXPECT_TRUE(summarizeFlightTail(FlightRecording{}, 3).empty());
}

//===----------------------------------------------------------------------===//
// Event journal: JSONL shape, ordering, escaping, no-op when closed.
//===----------------------------------------------------------------------===//

TEST(EventJournal, LinesAreWellFormedAndOrdered) {
  std::string Path = tempPath("lna_events.jsonl");
  {
    EventJournal J;
    ASSERT_TRUE(J.open(Path));
    J.event("run-start").num("modules", 3).flag("chaos", true);
    J.event("worker-death")
        .num("worker", 2)
        .str("status", "signal 9 \"oom\"")
        .flag("timed_out", false);
    J.event("run-end").num("exit", 0);
  }
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  ASSERT_EQ(Lines.size(), 3u);
  uint64_t PrevTs = 0;
  for (const std::string &L : Lines) {
    // Every line is one object with the ts_us/event envelope first.
    ASSERT_EQ(L.rfind("{\"ts_us\":", 0), 0u) << L;
    EXPECT_EQ(L.back(), '}');
    uint64_t Ts = 0;
    ASSERT_EQ(std::sscanf(L.c_str(), "{\"ts_us\":%" SCNu64, &Ts), 1);
    EXPECT_GE(Ts, PrevTs);
    PrevTs = Ts;
  }
  EXPECT_NE(Lines[0].find("\"event\":\"run-start\",\"modules\":3,"
                          "\"chaos\":true"),
            std::string::npos);
  // Embedded quotes in field values arrive escaped.
  EXPECT_NE(Lines[1].find("\"status\":\"signal 9 \\\"oom\\\"\""),
            std::string::npos);
  EXPECT_NE(Lines[1].find("\"timed_out\":false"), std::string::npos);
  std::filesystem::remove(Path);
}

TEST(EventJournal, ClosedJournalIsANoOp) {
  EventJournal J;
  EXPECT_FALSE(J.isOpen());
  // Must neither crash nor create any file.
  J.event("worker-spawn").num("worker", 0).str("s", "x").flag("f", true);
}

//===----------------------------------------------------------------------===//
// Fleet trace: merging per-module traces onto supervisor lanes.
//===----------------------------------------------------------------------===//

TEST(FleetTrace, MergesModuleTraceOntoLaneWithOffset) {
  // A real per-module trace, exactly as workers write them.
  TraceSink Sink(64);
  Sink.record("parse", 100, 5, 0);
  Sink.record("solve", 200, 50, 1);
  std::string ModulePath = tempPath("lna_fleet_module.trace.json");
  {
    std::ofstream Out(ModulePath);
    Out << Sink.renderChromeJSON();
  }

  FleetTraceBuilder B;
  B.processName(0, "supervisor");
  B.processName(3, "worker 2");
  B.threadName(3, 7, "mod_seven");
  B.span(0, 1, "dispatch mod_seven", 1000, 0);
  ASSERT_TRUE(B.mergeModuleTrace(ModulePath, 3, 7, 1000));

  std::string FleetPath = tempPath("lna_fleet_merged.trace.json");
  ASSERT_TRUE(B.write(FleetPath));
  std::string Json = slurpFile(FleetPath);
  EXPECT_EQ(Json.rfind("{\"traceEvents\":[", 0), 0u);
  // Module spans landed in the worker lane with shifted timestamps.
  EXPECT_NE(Json.find("\"name\":\"parse\",\"cat\":\"lna\",\"ph\":\"X\","
                      "\"ts\":1100,\"dur\":5,\"pid\":3,\"tid\":7"),
            std::string::npos);
  EXPECT_NE(Json.find("\"ts\":1200,\"dur\":50,\"pid\":3,\"tid\":7"),
            std::string::npos);
  // Supervisor metadata and spans kept their own lanes.
  EXPECT_NE(Json.find("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3"),
            std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"dispatch mod_seven\""), std::string::npos);
  std::filesystem::remove(ModulePath);
  std::filesystem::remove(FleetPath);
}

TEST(FleetTrace, RejectsUnparseableModuleTraceWholesale) {
  std::string Path = tempPath("lna_fleet_bad.trace.json");
  {
    std::ofstream Out(Path);
    Out << "{\"traceEvents\":[{\"name\":\"ok\",\"cat\":\"lna\",\"ph\":\"X\","
           "\"ts\":1,\"dur\":1,\"pid\":1,\"tid\":1,\"args\":{\"depth\":0}},"
           "{\"garbage\":true}]}";
  }
  FleetTraceBuilder B;
  size_t Before = B.numEvents();
  // All-or-nothing: a malformed event rejects the whole file rather
  // than merging a silently truncated lane.
  EXPECT_FALSE(B.mergeModuleTrace(Path, 2, 2, 0));
  EXPECT_EQ(B.numEvents(), Before);
  EXPECT_FALSE(B.mergeModuleTrace(tempPath("lna_fleet_missing"), 2, 2, 0));
  std::filesystem::remove(Path);
}

// The first repaint fires immediately (LastPaint is backdated), so the
// formatter used to divide by an elapsed time of ~0 and print "inf/s"
// followed by a garbage ETA. Every snapshot must render finite text.
TEST(Progress, FirstRepaintPrintsNoInfOrNan) {
  ProgressSnapshot S;
  S.Done = 3;
  S.Total = 100;
  S.ElapsedSeconds = 0.0;
  std::string Line = formatProgressLine(S);
  EXPECT_EQ(Line.find("inf"), std::string::npos) << Line;
  EXPECT_EQ(Line.find("nan"), std::string::npos) << Line;
  EXPECT_NE(Line.find("3/100 0.0/s"), std::string::npos) << Line;
  EXPECT_EQ(Line.find("eta"), std::string::npos) << Line;
}

TEST(Progress, ZeroDoneAndNegativeElapsedYieldZeroRate) {
  ProgressSnapshot S;
  S.Total = 8;
  S.ElapsedSeconds = 5.0;
  EXPECT_NE(formatProgressLine(S).find("0/8 0.0/s"), std::string::npos);
  // A stepped/adjusted clock can report negative elapsed time.
  S.Done = 4;
  S.ElapsedSeconds = -1.0;
  std::string Line = formatProgressLine(S);
  EXPECT_NE(Line.find("4/8 0.0/s"), std::string::npos) << Line;
  EXPECT_EQ(Line.find("eta"), std::string::npos) << Line;
}

TEST(Progress, EtaSuppressedUntilRateIsMeaningful) {
  ProgressSnapshot S;
  S.Done = 2;
  S.Total = 10;
  // Below the warm-up threshold the rate estimate is noise; no ETA.
  S.ElapsedSeconds = 0.5;
  EXPECT_EQ(formatProgressLine(S).find("eta"), std::string::npos);
  // Past it, the ETA appears and is finite.
  S.ElapsedSeconds = 2.0;
  std::string Line = formatProgressLine(S);
  EXPECT_NE(Line.find(" eta 8s"), std::string::npos) << Line;
}

TEST(Progress, AbsurdEtaClampsToCeilingMarker) {
  ProgressSnapshot S;
  S.Done = 1;
  S.Total = UINT64_MAX;
  S.ElapsedSeconds = 1e9; // one module per ~31 years
  std::string Line = formatProgressLine(S);
  EXPECT_NE(Line.find(" eta >30d"), std::string::npos) << Line;
  EXPECT_EQ(Line.find("inf"), std::string::npos) << Line;
}

TEST(Progress, CompleteRunPrintsNoEta) {
  ProgressSnapshot S;
  S.Done = 10;
  S.Total = 10;
  S.ElapsedSeconds = 5.0;
  S.Workers = "ii";
  S.Retries = 1;
  std::string Line = formatProgressLine(S);
  EXPECT_EQ(Line.find("eta"), std::string::npos) << Line;
  EXPECT_NE(Line.find("workers ii"), std::string::npos) << Line;
  EXPECT_NE(Line.find("retry 1"), std::string::npos) << Line;
}

} // namespace

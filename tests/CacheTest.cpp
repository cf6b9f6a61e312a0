//===- CacheTest.cpp - Persistent result cache tests ----------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Covers the result-cache stack end to end: the content digest and the
// pinned option fingerprint it is built from, the on-disk CacheStore
// (round trip, corruption tolerance, counters), metrics registry
// serialization, and the corpus-level promise that cold, warm, and
// parallel cached runs render byte-identical reports.
//
//===----------------------------------------------------------------------===//

#include "cache/CacheStore.h"
#include "core/Pipeline.h"
#include "corpus/Experiment.h"
#include "obs/Metrics.h"
#include "support/Hash.h"
#include "support/Version.h"

#include "gtest/gtest.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace lna;

namespace {

std::string tempDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + Name;
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  return Dir;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Content digests and fingerprints
//===----------------------------------------------------------------------===//

TEST(CacheHash, DigestIsStableAndContentSensitive) {
  ContentDigest A, B;
  A.update("alpha");
  A.update("beta");
  B.update("alpha");
  B.update("beta");
  EXPECT_EQ(A.hex(), B.hex());
  EXPECT_EQ(A.hex().size(), 32u);
  for (char C : A.hex())
    EXPECT_TRUE((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f'));

  ContentDigest Differs;
  Differs.update("alpha");
  Differs.update("betb");
  EXPECT_NE(A.hex(), Differs.hex());

  // Length framing: ("ab","c") and ("a","bc") must not collide.
  ContentDigest Split1, Split2;
  Split1.update("ab");
  Split1.update("c");
  Split2.update("a");
  Split2.update("bc");
  EXPECT_NE(Split1.hex(), Split2.hex());
}

TEST(CacheHash, OptionsFingerprintIsPinned) {
  // The fingerprint format is a compatibility surface: existing cache
  // entries are keyed by it. Extending PipelineOptions requires
  // extending canonicalOptionsFingerprint *and* this expectation.
  PipelineOptions Opts;
  EXPECT_EQ(canonicalOptionsFingerprint(Opts),
            "mode=infer;confines=1;down=1;backwards=0;inline=0;liberal=0;"
            "provenance=0;timeout-ms=0;max-memory=0;max-steps=0;"
            "max-ast-nodes=0;alias=steensgaard;");
}

TEST(CacheHash, OptionsFingerprintSeparatesOptions) {
  PipelineOptions A, B;
  B.Mode = PipelineMode::CheckAnnotations;
  EXPECT_NE(canonicalOptionsFingerprint(A), canonicalOptionsFingerprint(B));
  PipelineOptions C;
  C.Limits.MaxSteps = 12345;
  EXPECT_NE(canonicalOptionsFingerprint(A), canonicalOptionsFingerprint(C));
  PipelineOptions D;
  D.InlineDepth = 2;
  EXPECT_NE(canonicalOptionsFingerprint(A), canonicalOptionsFingerprint(D));
  // A cache directory shared between backends must never serve one
  // backend's reports to the other.
  PipelineOptions E;
  E.AliasBackend = AliasBackendKind::Andersen;
  EXPECT_NE(canonicalOptionsFingerprint(A), canonicalOptionsFingerprint(E));
}

//===----------------------------------------------------------------------===//
// CacheStore
//===----------------------------------------------------------------------===//

TEST(CacheStore, RoundTripAndCounters) {
  CacheStore Store(tempDir("lna_cache_rt"));
  ASSERT_TRUE(Store.ok());

  EXPECT_FALSE(Store.load("m-absent").has_value());
  EXPECT_EQ(Store.misses(), 1u);

  std::string Value = "payload with\nnewlines and \0 bytes";
  Value.push_back('\0');
  ASSERT_TRUE(Store.store("m-key1", Value));
  std::optional<std::string> Back = Store.load("m-key1");
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, Value);
  EXPECT_EQ(Store.hits(), 1u);
  EXPECT_EQ(Store.stale(), 0u);
  EXPECT_EQ(Store.storeFailures(), 0u);

  // Overwrite wins.
  ASSERT_TRUE(Store.store("m-key1", "second"));
  EXPECT_EQ(Store.load("m-key1"), std::optional<std::string>("second"));
}

TEST(CacheStore, RejectsUnsafeKeys) {
  CacheStore Store(tempDir("lna_cache_keys"));
  ASSERT_TRUE(Store.ok());
  EXPECT_FALSE(Store.store("../escape", "x"));
  EXPECT_FALSE(Store.store("has/slash", "x"));
  EXPECT_FALSE(Store.store("", "x"));
  EXPECT_EQ(Store.storeFailures(), 3u);
  EXPECT_FALSE(Store.load("../escape").has_value());
}

TEST(CacheStore, CorruptEntriesAreStaleNeverFatal) {
  std::string Dir = tempDir("lna_cache_corrupt");
  CacheStore Store(Dir);
  ASSERT_TRUE(Store.ok());
  ASSERT_TRUE(Store.store("m-victim", "the real payload"));

  // Find the entry file and truncate it mid-payload.
  std::string Entry;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    Entry = E.path().string();
  ASSERT_FALSE(Entry.empty());
  std::string Bytes = slurp(Entry);
  ASSERT_GT(Bytes.size(), 4u);
  {
    std::ofstream Out(Entry, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() - 4));
  }
  EXPECT_FALSE(Store.load("m-victim").has_value());
  EXPECT_EQ(Store.stale(), 1u);

  // Pure garbage is equally a miss.
  {
    std::ofstream Out(Entry, std::ios::binary | std::ios::trunc);
    Out << "not a cache entry at all";
  }
  EXPECT_FALSE(Store.load("m-victim").has_value());
  EXPECT_EQ(Store.stale(), 2u);

  // The slot is still writable afterwards.
  ASSERT_TRUE(Store.store("m-victim", "recovered"));
  EXPECT_EQ(Store.load("m-victim"), std::optional<std::string>("recovered"));
}

TEST(CacheStore, UnusableDirectoryDegradesGracefully) {
  // A path whose parent is a *file* cannot become a directory.
  std::string File = testing::TempDir() + "lna_cache_blocker";
  {
    std::ofstream Out(File);
    Out << "occupied";
  }
  CacheStore Store(File + "/sub");
  EXPECT_FALSE(Store.ok());
  EXPECT_FALSE(Store.store("m-k", "v"));
  EXPECT_FALSE(Store.load("m-k").has_value());
  EXPECT_GE(Store.storeFailures(), 1u);
  std::remove(File.c_str());
}

TEST(CacheStore, SweepsOrphanedTempFilesOnOpen) {
  std::string Dir = tempDir("lna_cache_sweep");
  {
    CacheStore Seed(Dir);
    ASSERT_TRUE(Seed.ok());
    ASSERT_TRUE(Seed.store("m-live", "payload"));
    EXPECT_EQ(Seed.sweptTempFiles(), 0u);
  }
  // A writer that died between the temp write and the rename leaves
  // private unpublished garbage behind; opening the store removes it
  // without touching published entries. Backdate the temps past the
  // sweep age gate -- a freshly written temp is indistinguishable from
  // another process's in-flight store and must survive (see
  // SweepSparesFreshTempFiles).
  std::ofstream(Dir + "/.tmp-m-dead-1") << "torn";
  std::ofstream(Dir + "/.tmp-m-dead-2") << "torn";
  auto Old = std::filesystem::file_time_type::clock::now() -
             std::chrono::seconds(2 * CacheStore::DefaultSweepMinAgeSeconds);
  std::filesystem::last_write_time(Dir + "/.tmp-m-dead-1", Old);
  std::filesystem::last_write_time(Dir + "/.tmp-m-dead-2", Old);
  CacheStore Store(Dir);
  ASSERT_TRUE(Store.ok());
  EXPECT_EQ(Store.sweptTempFiles(), 2u);
  EXPECT_FALSE(std::filesystem::exists(Dir + "/.tmp-m-dead-1"));
  EXPECT_FALSE(std::filesystem::exists(Dir + "/.tmp-m-dead-2"));
  EXPECT_EQ(Store.load("m-live"), std::optional<std::string>("payload"));
}

TEST(CacheStore, SweepSparesFreshTempFiles) {
  // The orphan sweep used to remove *every* .tmp-* on open, racing a
  // concurrent writer: process B opening the directory could delete
  // process A's in-flight temp between A's write and A's rename, so A
  // published nothing (or rename failed) and the entry silently never
  // appeared. A temp younger than the age gate must be left alone.
  std::string Dir = tempDir("lna_cache_sweep_fresh");
  {
    CacheStore Seed(Dir);
    ASSERT_TRUE(Seed.ok());
  }
  std::ofstream(Dir + "/.tmp-m-inflight-7") << "half-written";
  CacheStore Store(Dir);
  ASSERT_TRUE(Store.ok());
  EXPECT_EQ(Store.sweptTempFiles(), 0u);
  EXPECT_TRUE(std::filesystem::exists(Dir + "/.tmp-m-inflight-7"));

  // Age zero keeps the old sweep-everything behavior for tests that
  // need deterministic cleanup.
  CacheStore Eager(Dir, /*SweepMinAgeSeconds=*/0);
  ASSERT_TRUE(Eager.ok());
  EXPECT_EQ(Eager.sweptTempFiles(), 1u);
  EXPECT_FALSE(std::filesystem::exists(Dir + "/.tmp-m-inflight-7"));
}

TEST(CacheStore, PersistentWriteFailureDisablesWritesReadsKeepWorking) {
  std::string Dir = tempDir("lna_cache_rodir");
  {
    CacheStore Seed(Dir);
    ASSERT_TRUE(Seed.ok());
    ASSERT_TRUE(Seed.store("m-seeded", "payload"));
  }
  ASSERT_EQ(::chmod(Dir.c_str(), 0555), 0);

  // Six independent facts, one bit each: the store opens, the first
  // store fails with a persistent errno (EACCES) and disables writes,
  // the second store short-circuits, both are counted, and reads of
  // published entries keep working.
  auto Probe = [&Dir]() -> int {
    CacheStore Store(Dir);
    int Bits = 0;
    if (Store.ok())
      Bits |= 1;
    if (!Store.store("m-first", "v"))
      Bits |= 2;
    if (Store.writesDisabled())
      Bits |= 4;
    if (!Store.store("m-second", "v"))
      Bits |= 8;
    if (Store.storeFailures() == 2)
      Bits |= 16;
    if (Store.load("m-seeded") == std::optional<std::string>("payload"))
      Bits |= 32;
    return Bits;
  };

  int Bits = 0;
  if (::geteuid() == 0) {
    // Permission bits do not bind root; probe from an unprivileged
    // child instead (uid/gid nobody).
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      if (::setgid(65534) != 0 || ::setuid(65534) != 0)
        ::_exit(99);
      ::_exit(Probe());
    }
    int St = 0;
    ASSERT_EQ(::waitpid(Pid, &St, 0), Pid);
    ASSERT_TRUE(WIFEXITED(St));
    if (WEXITSTATUS(St) == 99) {
      ::chmod(Dir.c_str(), 0755);
      GTEST_SKIP() << "cannot drop privileges to probe permission checks";
    }
    Bits = WEXITSTATUS(St);
  } else {
    Bits = Probe();
  }
  EXPECT_EQ(Bits, 63);
  ::chmod(Dir.c_str(), 0755);
}

TEST(CacheStore, LostRenameIsTransientNotDisabling) {
  std::string Dir = tempDir("lna_cache_transient");
  CacheStore Store(Dir);
  ASSERT_TRUE(Store.ok());
  // Occupy the entry path with a non-empty directory: publication's
  // rename fails, but not with a condition that dooms every later
  // store, so writes stay enabled and the temp file is cleaned up.
  std::filesystem::create_directories(Dir + "/m-blocked.lnac/sub");
  EXPECT_FALSE(Store.store("m-blocked", "v"));
  EXPECT_FALSE(Store.writesDisabled());
  EXPECT_EQ(Store.storeFailures(), 1u);
  EXPECT_TRUE(Store.store("m-other", "v"));
  unsigned Temps = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().filename().string().rfind(".tmp-", 0) == 0)
      ++Temps;
  EXPECT_EQ(Temps, 0u);
}

//===----------------------------------------------------------------------===//
// Metrics serialization
//===----------------------------------------------------------------------===//

TEST(CacheMetrics, SerializeRoundTripsCountersAndHistograms) {
  MetricsRegistry R;
  R.addCounter("alpha", 7);
  R.addCounter("name with spaces\n", 42);
  R.recordValue("depth", 1);
  R.recordValue("depth", 100);
  R.recordValue("depth", 1000000);

  MetricsRegistry Back;
  ASSERT_TRUE(Back.deserialize(R.serialize()));
  EXPECT_EQ(Back.renderJSON(), R.renderJSON());
  EXPECT_EQ(Back.renderText(), R.renderText());

  // Round-tripped histograms keep recording identically.
  R.recordValue("depth", 50);
  Back.recordValue("depth", 50);
  EXPECT_EQ(Back.renderJSON(), R.renderJSON());
}

TEST(CacheMetrics, SerializeRoundTripsEmptyRegistry) {
  MetricsRegistry R;
  MetricsRegistry Back;
  Back.addCounter("leftover", 1);
  ASSERT_TRUE(Back.deserialize(R.serialize()));
  EXPECT_TRUE(Back.empty());
  EXPECT_EQ(Back.renderJSON(), R.renderJSON());
}

TEST(CacheMetrics, DeserializeRejectsMalformedBytes) {
  MetricsRegistry R;
  EXPECT_FALSE(R.deserialize(""));
  EXPECT_FALSE(R.deserialize("metrics 2 0 0\n"));
  EXPECT_FALSE(R.deserialize("metrics 1 1 0\nc 5 3\nab")); // short name
  MetricsRegistry Valid;
  Valid.addCounter("x", 1);
  std::string Bytes = Valid.serialize();
  EXPECT_TRUE(R.deserialize(Bytes));
  Bytes += "trailing";
  EXPECT_FALSE(R.deserialize(Bytes));
  EXPECT_TRUE(R.empty()); // failed deserialize leaves nothing behind
}

//===----------------------------------------------------------------------===//
// Corpus-level cache
//===----------------------------------------------------------------------===//

namespace {

ExperimentOptions cachedOptions(CacheStore &Store) {
  ExperimentOptions Opts;
  Opts.Cache = &Store;
  Opts.CollectMetrics = true;
  return Opts;
}

std::vector<ModuleSpec> corpusSlice(size_t N) {
  std::vector<ModuleSpec> Corpus = generateCorpus();
  Corpus.resize(N);
  return Corpus;
}

} // namespace

TEST(CacheCorpus, WarmRunsRenderByteIdenticalReports) {
  std::vector<ModuleSpec> Corpus = corpusSlice(24);
  CacheStore Store(tempDir("lna_cache_corpus"));
  ASSERT_TRUE(Store.ok());

  CorpusSummary Cold = runCorpusExperiment(Corpus, cachedOptions(Store));
  uint64_t ColdHits = Store.hits();
  CorpusSummary Warm = runCorpusExperiment(Corpus, cachedOptions(Store));
  EXPECT_EQ(Store.hits() - ColdHits, 24u);

  EXPECT_EQ(renderCorpusReport(Cold), renderCorpusReport(Warm));
  EXPECT_EQ(corpusReportJSON(Cold, false), corpusReportJSON(Warm, false));
  EXPECT_EQ(Cold.Metrics.renderJSON(), Warm.Metrics.renderJSON());

  // Parallel warm run: same bytes again.
  ExperimentOptions Par = cachedOptions(Store);
  Par.Jobs = 3;
  CorpusSummary WarmPar = runCorpusExperiment(Corpus, Par);
  EXPECT_EQ(renderCorpusReport(Cold), renderCorpusReport(WarmPar));
  EXPECT_EQ(corpusReportJSON(Cold, false), corpusReportJSON(WarmPar, false));
  EXPECT_EQ(Cold.Metrics.renderJSON(), WarmPar.Metrics.renderJSON());
}

TEST(CacheCorpus, CorruptEntryIsReanalyzedCorrectly) {
  std::vector<ModuleSpec> Corpus = corpusSlice(6);
  std::string Dir = tempDir("lna_cache_corpus_corrupt");
  CacheStore Store(Dir);
  ASSERT_TRUE(Store.ok());
  CorpusSummary Cold = runCorpusExperiment(Corpus, cachedOptions(Store));

  // Vandalize every stored entry a different way.
  unsigned I = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    std::string Bytes = slurp(E.path().string());
    std::ofstream Out(E.path(), std::ios::binary | std::ios::trunc);
    if (I++ % 2 == 0)
      Out << "garbage";
    else
      Out.write(Bytes.data(),
                static_cast<std::streamsize>(Bytes.size() / 2));
  }

  CorpusSummary Warm = runCorpusExperiment(Corpus, cachedOptions(Store));
  EXPECT_EQ(renderCorpusReport(Cold), renderCorpusReport(Warm));
  EXPECT_EQ(corpusReportJSON(Cold, false), corpusReportJSON(Warm, false));
  EXPECT_EQ(Cold.Metrics.renderJSON(), Warm.Metrics.renderJSON());
  EXPECT_GT(Store.stale(), 0u);
}

TEST(CacheCorpus, MutatedModuleMissesItsOldEntry) {
  std::vector<ModuleSpec> Corpus = corpusSlice(4);
  CacheStore Store(tempDir("lna_cache_corpus_mut"));
  ASSERT_TRUE(Store.ok());
  (void)runCorpusExperiment(Corpus, cachedOptions(Store));
  uint64_t Hits0 = Store.hits();

  std::vector<ModuleSpec> Mutated = Corpus;
  Mutated[0].Source =
      "var mutated : int;\nfun mutated_clash() { mutated(1) }\n" +
      Mutated[0].Source;
  CorpusSummary Warm = runCorpusExperiment(Mutated, cachedOptions(Store));
  // The three untouched modules hit; the mutated one re-analyzed and
  // matches a fresh run of the mutated corpus.
  EXPECT_EQ(Store.hits() - Hits0, 3u);
  CorpusSummary Fresh = runCorpusExperiment(Mutated, ExperimentOptions{});
  EXPECT_EQ(renderCorpusReport(Warm), renderCorpusReport(Fresh));
}

TEST(CacheCorpus, FaultInjectedRunsBypassTheCache) {
  std::vector<ModuleSpec> Corpus = corpusSlice(3);
  CacheStore Store(tempDir("lna_cache_corpus_faults"));
  ASSERT_TRUE(Store.ok());
  ExperimentOptions Opts = cachedOptions(Store);
  Opts.Faults = [](uint64_t) { return nullptr; };
  (void)runCorpusExperiment(Corpus, Opts);
  EXPECT_EQ(Store.hits(), 0u);
  EXPECT_EQ(Store.misses(), 0u);
  EXPECT_TRUE(std::filesystem::is_empty(Store.directory()));
}

TEST(CacheCorpus, DigestMatchesCheckpointDigest) {
  // One digest, two consumers: the "m-" cache key and the checkpoint
  // journal row must agree on what "unchanged" means.
  std::vector<ModuleSpec> Corpus = corpusSlice(1);
  ExperimentOptions Opts;
  std::string D = moduleContentDigest(Corpus[0], Opts);
  EXPECT_EQ(D.size(), 32u);
  EXPECT_EQ(D, moduleContentDigest(Corpus[0], Opts));
  ModuleSpec Changed = Corpus[0];
  Changed.Source += "\n";
  EXPECT_NE(D, moduleContentDigest(Changed, Opts));
}

TEST(CacheCorpus, LegacyModuleEntryCountsStaleOnceThenHits) {
  // Entries in the retired "module 1" format (same key, same analyzer
  // version) cannot be read back: the first run counts one stale entry
  // and overwrites it, and the next run hits.
  std::vector<ModuleSpec> Corpus = corpusSlice(1);
  CacheStore Store(tempDir("lna_cache_corpus_legacy"));
  ASSERT_TRUE(Store.ok());
  ExperimentOptions Opts = cachedOptions(Store);
  ASSERT_TRUE(Store.store("m-" + moduleContentDigest(Corpus[0], Opts),
                          "module 1 1 none 9 9 9 0 0 0\n"));
  CorpusSummary First = runCorpusExperiment(Corpus, Opts);
  EXPECT_EQ(First.CacheStale, 1u);
  EXPECT_EQ(First.CacheHits, 0u);
  CorpusSummary Second = runCorpusExperiment(Corpus, Opts);
  EXPECT_EQ(Second.CacheStale, 0u);
  EXPECT_EQ(Second.CacheHits, 1u);
  CorpusSummary Fresh = runCorpusExperiment(Corpus, ExperimentOptions{});
  EXPECT_EQ(renderCorpusReport(First), renderCorpusReport(Fresh));
  EXPECT_EQ(renderCorpusReport(Second), renderCorpusReport(Fresh));
}

TEST(CacheCorpus, ParseErrorModuleWarmUnderMetricsIsAHit) {
  // A parse error collects an empty metrics registry. The entry must
  // still record that metrics were collected, or every warm metrics run
  // would count it stale and re-analyze it.
  ModuleSpec Broken;
  Broken.Name = "drv_broken";
  Broken.Source = "fun (";
  std::vector<ModuleSpec> Corpus{Broken};
  CacheStore Store(tempDir("lna_cache_corpus_parse_error"));
  ASSERT_TRUE(Store.ok());
  CorpusSummary Cold = runCorpusExperiment(Corpus, cachedOptions(Store));
  ASSERT_EQ(Cold.FailuresByKind[static_cast<unsigned>(FailureKind::ParseError)],
            1u);
  EXPECT_TRUE(Cold.Metrics.empty());
  EXPECT_EQ(Cold.CacheMisses, 1u);
  CorpusSummary Warm = runCorpusExperiment(Corpus, cachedOptions(Store));
  EXPECT_EQ(Warm.CacheHits, 1u);
  EXPECT_EQ(Warm.CacheStale, 0u);
  EXPECT_EQ(corpusReportJSON(Cold, false), corpusReportJSON(Warm, false));
  EXPECT_EQ(Warm.Modules[0].Error, Cold.Modules[0].Error);
}

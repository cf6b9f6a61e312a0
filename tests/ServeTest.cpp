//===- ServeTest.cpp - Resident daemon and invocation-library tests -------===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Covers the resident-service stack: the strict JSON request parser, the
// hot-tier LRU, the invocation library's flag parsing / cache-key
// construction / byte-identity guarantees, the cross-request
// observability-isolation regression, and the lna-serve daemon end to
// end over a real Unix-domain socket against the real lna-analyze
// binary (byte-identical replies, hot/cold/bypass attribution, warm
// restart, concurrent clients, protocol errors, and a lossless wire:
// pipelined slow readers, half-closed clients, shutdown with a backlog).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/HotStore.h"
#include "serve/Invocation.h"
#include "serve/Json.h"
#include "support/Socket.h"
#include "support/Stats.h"
#include "support/Subprocess.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace lna;

namespace {

std::string fixturePath(const std::string &Name) {
  return std::string(LNA_SERVE_FIXTURE_DIR) + "/" + Name;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string tempDir(const std::string &Stem) {
  std::string Dir = testing::TempDir() + Stem + "." + std::to_string(getpid());
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Parses CLI-spelled flags into InvocationOptions via the daemon-side
/// parser configuration; fails the test on a parse error.
InvocationOptions optsFor(const std::vector<std::string> &Flags) {
  InvocationArgParser P;
  std::string Err;
  EXPECT_EQ(P.parseAll(Flags, Err), 0) << Err;
  return P.Opts;
}

//===----------------------------------------------------------------------===//
// JSON request parser
//===----------------------------------------------------------------------===//

TEST(ServeJson, ParsesScalarsAndStructure) {
  auto V = JsonValue::parse(
      " {\"s\":\"x\",\"n\":-2.5e1,\"t\":true,\"f\":false,\"z\":null,"
      "\"a\":[1,\"two\",[3]],\"o\":{\"k\":0}} ");
  ASSERT_TRUE(V.has_value());
  ASSERT_NE(V->field("s"), nullptr);
  EXPECT_EQ(*V->field("s")->asString(), "x");
  EXPECT_EQ(V->field("n")->asNumber(), -25.0);
  EXPECT_EQ(V->field("t")->asBool(), true);
  EXPECT_EQ(V->field("f")->asBool(), false);
  EXPECT_TRUE(V->field("z")->isNull());
  const std::vector<JsonValue> *A = V->field("a")->asArray();
  ASSERT_NE(A, nullptr);
  ASSERT_EQ(A->size(), 3u);
  EXPECT_EQ((*A)[0].asNumber(), 1.0);
  EXPECT_EQ(*(*A)[1].asString(), "two");
  EXPECT_EQ(V->field("o")->field("k")->asNumber(), 0.0);
  // Type-mismatch accessors read as absence, never throw.
  EXPECT_EQ(V->field("s")->asNumber(), std::nullopt);
  EXPECT_EQ(V->field("n")->asString(), nullptr);
  EXPECT_EQ(V->field("missing"), nullptr);
}

TEST(ServeJson, DecodesStringEscapes) {
  auto V = JsonValue::parse(R"({"e":"a\"b\\c\/d\n\t\r\b\f","u":"\u0041\u00e9",
                               "sp":"\ud83d\ude00"})");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V->field("e")->asString(), "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(*V->field("u")->asString(), "A\xc3\xa9");
  // Surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(*V->field("sp")->asString(), "\xf0\x9f\x98\x80");
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::parse("").has_value());
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("{} trailing").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"k\":}").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"k\" 1}").has_value());
  EXPECT_FALSE(JsonValue::parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::parse("'single'").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"bad\":\"\\x41\"}").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"half\":\"\\ud83d\"}").has_value());
  // A raw control character inside a string is a syntax error.
  EXPECT_FALSE(JsonValue::parse("{\"c\":\"a\nb\"}").has_value());
  EXPECT_FALSE(JsonValue::parse("nul").has_value());
  EXPECT_FALSE(JsonValue::parse("01").has_value());
}

TEST(ServeJson, BoundsNestingDepth) {
  std::string Deep(200, '[');
  Deep += std::string(200, ']');
  EXPECT_FALSE(JsonValue::parse(Deep).has_value());
  std::string Shallow = "[[[[[[[[[[1]]]]]]]]]]";
  EXPECT_TRUE(JsonValue::parse(Shallow).has_value());
}

TEST(ServeJson, DuplicateKeysFirstWins) {
  auto V = JsonValue::parse("{\"k\":1,\"k\":2}");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->field("k")->asNumber(), 1.0);
}

//===----------------------------------------------------------------------===//
// Hot store
//===----------------------------------------------------------------------===//

TEST(ServeHotStore, LruEvictsLeastRecentlyUsed) {
  HotStore Hot(2);
  InvocationResult R;
  R.Out = "one";
  Hot.put("a-1", R, nullptr);
  R.Out = "two";
  Hot.put("a-2", R, nullptr);
  // Touch a-1 so a-2 is now the LRU victim.
  ASSERT_NE(Hot.get("a-1"), nullptr);
  R.Out = "three";
  Hot.put("a-3", R, nullptr);
  EXPECT_EQ(Hot.size(), 2u);
  EXPECT_EQ(Hot.evictions(), 1u);
  EXPECT_EQ(Hot.get("a-2"), nullptr);
  ASSERT_NE(Hot.get("a-1"), nullptr);
  EXPECT_NE(Hot.get("a-1")->find("\"out\":\"one\""), std::string::npos);
  EXPECT_NE(Hot.get("a-3")->find("\"out\":\"three\""), std::string::npos);
}

TEST(ServeHotStore, CountsHitsAndMisses) {
  HotStore Hot(4);
  EXPECT_EQ(Hot.get("a-x"), nullptr);
  InvocationResult R;
  R.Exit = 2;
  R.Out = "body";
  R.Err = "errs";
  Hot.put("a-x", R);
  HotStore::Reply Got = Hot.get("a-x");
  ASSERT_NE(Got, nullptr);
  // Entries hold the reply tail, escaped once at publish time.
  EXPECT_EQ(*Got, "\"exit\":2,\"cache\":\"hot\",\"out\":\"body\","
                  "\"err\":\"errs\"}");
  EXPECT_EQ(Hot.hits(), 1u);
  EXPECT_EQ(Hot.misses(), 1u);
}

TEST(ServeHotStore, ReplyTailEscapesTheStreams) {
  InvocationResult R;
  R.Exit = 3;
  R.Out = "line \"1\"\n";
  R.Err = "tab\there\x01";
  EXPECT_EQ(encodeReplyTail(R, "cold"),
            "\"exit\":3,\"cache\":\"cold\",\"out\":\"line \\\"1\\\"\\n\","
            "\"err\":\"tab\\there\\u0001\"}");
}

//===----------------------------------------------------------------------===//
// Invocation flag surface
//===----------------------------------------------------------------------===//

TEST(ServeInvocation, ParserPreservesCliErrorText) {
  InvocationArgParser P;
  std::string Err;
  EXPECT_EQ(P.parse("--inline-depth=abc", Err), 5);
  EXPECT_EQ(Err, "error: invalid value in '--inline-depth=abc' "
                 "(expected an integer in [0, 64])\n");
  Err.clear();
  EXPECT_EQ(P.parse("--definitely-not-a-flag", Err), 1);
  EXPECT_EQ(Err, "unknown option '--definitely-not-a-flag'\n");
  Err.clear();
  InvocationArgParser Dup;
  EXPECT_EQ(Dup.parse("--stats-json=-", Err), 0);
  // Repeating the same target is idempotent (matching the CLI);
  // conflicting targets are the bad-flag exit.
  EXPECT_EQ(Dup.parse("--stats-json=-", Err), 0);
  EXPECT_EQ(Dup.parse("--stats-json=x.json", Err), 5);
  EXPECT_EQ(Err, "error: conflicting --stats-json targets '-' and "
                 "'x.json'\n");
}

TEST(ServeInvocation, DaemonModeRejectsServerSideFiles) {
  // The daemon passes source in-band and owns its own cache and
  // filesystem; positionals and file-writing flags are usage errors
  // with actionable text, while the '-' in-band targets stay allowed.
  auto Reject = [](const std::string &Flag, const char *Frag) {
    InvocationArgParser P;
    P.AllowPositional = false;
    P.AllowFileOutputs = false;
    std::string Err;
    EXPECT_EQ(P.parse(Flag, Err), 1) << Flag;
    EXPECT_NE(Err.find(Frag), std::string::npos) << Flag << " -> " << Err;
  };
  Reject("prog.lna", "in-band");
  Reject("--trace-out=t.json", "--trace-out");
  Reject("--stats-json=s.json", "--stats-json");
  Reject("--metrics-out=m.json", "--metrics-out");
  Reject("--cache-dir=d", "cache");

  InvocationArgParser P;
  P.AllowPositional = false;
  P.AllowFileOutputs = false;
  std::string Err;
  EXPECT_EQ(P.parse("--stats-json=-", Err), 0) << Err;
  EXPECT_EQ(P.parse("--metrics-out=-", Err), 0) << Err;
  EXPECT_EQ(P.parse("--stats", Err), 0) << Err;
}

// Satellite audit: every output-changing flag added since the cache key
// was introduced (--alias=, --explain, the budget flags, ...) must
// shape the invocation key. Sweep the full flag surface pairwise.
TEST(ServeInvocation, FlagSweepYieldsPairwiseDistinctKeys) {
  const std::string Source = "fun f(x: int) : int { x }";
  const std::vector<std::vector<std::string>> Variants = {
      {},
      {"--check"},
      {"--all-strong"},
      {"--no-locks"},
      {"--print-annotated"},
      {"--run"},
      {"--run=7"},
      {"--inline-depth=3"},
      {"--inline-depth=4"},
      {"--no-down"},
      {"--backwards"},
      {"--alias=andersen"},
      {"--explain"},
      {"--timeout-ms=60000"},
      {"--max-memory-mb=128"},
      {"--max-steps=1000000"},
      {"--check", "--explain"},
      {"--check", "--alias=andersen"},
  };
  std::set<std::string> Keys;
  for (const auto &Flags : Variants) {
    std::string Key = invocationKey(optsFor(Flags), Source);
    EXPECT_EQ(Key.rfind("a-", 0), 0u) << Key;
    EXPECT_TRUE(Keys.insert(Key).second)
        << "duplicate key for flag set: " << testing::PrintToString(Flags);
  }
  // Deterministic: the same options and source always produce the same
  // key; different source bytes never collide with it.
  EXPECT_EQ(invocationKey(optsFor({"--check"}), Source),
            invocationKey(optsFor({"--check"}), Source));
  EXPECT_NE(invocationKey(optsFor({}), Source),
            invocationKey(optsFor({}), Source + " "));
}

TEST(ServeInvocation, ObservabilityFlagsBypassTheResultCache) {
  EXPECT_FALSE(bypassesResultCache(optsFor({})));
  EXPECT_FALSE(bypassesResultCache(optsFor({"--alias=andersen"})));
  EXPECT_TRUE(bypassesResultCache(optsFor({"--stats"})));
  EXPECT_TRUE(bypassesResultCache(optsFor({"--stats-json=-"})));
  EXPECT_TRUE(bypassesResultCache(optsFor({"--metrics-out=-"})));
  InvocationArgParser P;
  std::string Err;
  ASSERT_EQ(P.parse("--trace-out=t.json", Err), 0);
  EXPECT_TRUE(bypassesResultCache(P.Opts));
}

TEST(ServeInvocation, EntryCodecRoundTripsAndRejectsGarbage) {
  InvocationResult R;
  R.Exit = 2;
  R.Out = "stdout bytes\nwith\nnewlines";
  R.Err = "stderr\x01 bytes";
  InvocationResult Back;
  ASSERT_TRUE(decodeInvocation(encodeInvocation(R), Back));
  EXPECT_EQ(Back.Exit, R.Exit);
  EXPECT_EQ(Back.Out, R.Out);
  EXPECT_EQ(Back.Err, R.Err);

  EXPECT_FALSE(decodeInvocation("", Back));
  EXPECT_FALSE(decodeInvocation("garbage", Back));
  EXPECT_FALSE(decodeInvocation("analyze 99 0 0 0\n", Back));
  // Truncated payload: header promises more bytes than are present.
  std::string Torn = encodeInvocation(R);
  Torn.resize(Torn.size() - 4);
  EXPECT_FALSE(decodeInvocation(Torn, Back));
}

TEST(ServeInvocation, CacheableExitsAreTheDeterministicOnes) {
  for (int Exit : {0, 1, 2, 3})
    EXPECT_TRUE(invocationCacheable(Exit)) << Exit;
  for (int Exit : {4, 5, 6, 7})
    EXPECT_FALSE(invocationCacheable(Exit)) << Exit;
}

//===----------------------------------------------------------------------===//
// Per-request isolation (the cross-request obs state-leak regression)
//===----------------------------------------------------------------------===//

TEST(ServeInvocation, RepeatRunsAreByteIdentical) {
  std::string Source = readFile(fixturePath("demo.lna"));
  InvocationOptions Opts = optsFor({"--print-annotated", "--run"});
  InvocationResult A = runInvocation(Opts, Source);
  InvocationResult B = runInvocation(Opts, Source);
  EXPECT_EQ(A.Exit, 0);
  EXPECT_EQ(A.Exit, B.Exit);
  EXPECT_EQ(A.Out, B.Out);
  EXPECT_EQ(A.Err, B.Err);
}

// Two sequential requests on ONE thread must behave like two fresh
// processes: request A's backend choice (and the metric names it
// registers) must not bleed into request B's metrics output. This is
// the daemon's core isolation contract, checked here without a socket
// in the way.
TEST(ServeInvocation, SequentialRequestsOnOneThreadMatchFreshProcesses) {
  std::string Source = readFile(fixturePath("demo.lna"));
  InvocationOptions Plain = optsFor({"--metrics-out=-", "--no-locks"});
  InvocationOptions Andersen =
      optsFor({"--metrics-out=-", "--no-locks", "--alias=andersen"});

  InvocationResult Fresh = runInvocation(Plain, Source);
  InvocationResult WithAndersen = runInvocation(Andersen, Source);
  InvocationResult After = runInvocation(Plain, Source);

  EXPECT_NE(WithAndersen.Out.find("alias.andersen."), std::string::npos);
  // The second plain run is byte-identical to the first: no Andersen
  // metric names, no carried-over counts.
  EXPECT_EQ(Fresh.Out, After.Out);
  EXPECT_EQ(Fresh.Err, After.Err);
  EXPECT_EQ(After.Out.find("alias.andersen."), std::string::npos);
}

// The pooled-thread hazard the server scrubs against: an ambient
// thread-local registry/sink leaked by earlier work on the same thread
// would silently absorb the next request's samples. With the boundary
// exchange in place the leaked registry stays empty.
TEST(ServeInvocation, BoundaryScrubShieldsAmbientObsSlots) {
  std::string Source = readFile(fixturePath("demo.lna"));
  InvocationOptions Opts = optsFor({"--no-locks"});

  // First, demonstrate the hazard is real: without scrubbing, a leaked
  // registry absorbs samples from a request that asked for no metrics.
  MetricsRegistry LeakedUnscrubbed;
  {
    MetricsScope Scope(LeakedUnscrubbed);
    (void)runInvocation(Opts, Source);
  }
  EXPECT_FALSE(LeakedUnscrubbed.empty())
      << "expected the analysis to emit metrics into an ambient registry; "
         "if this stops holding, the scrub test below loses its teeth";

  // Now the server's request boundary: scrub, run, restore.
  MetricsRegistry Leaked;
  TraceSink LeakedSink(64);
  MetricsScope MScope(Leaked);
  TraceScope TScope(LeakedSink);
  MetricsRegistry *PrevM = exchangeThreadMetrics(nullptr);
  TraceSink *PrevT = exchangeThreadTraceSink(nullptr);
  (void)runInvocation(Opts, Source);
  exchangeThreadMetrics(PrevM);
  exchangeThreadTraceSink(PrevT);

  EXPECT_TRUE(Leaked.empty());
  EXPECT_EQ(LeakedSink.numTotal(), 0u);
  // The exchange restored the slots: ambient recording works again.
  obsHistogram("serve-test-restored", 1);
  EXPECT_NE(Leaked.findHistogram("serve-test-restored"), nullptr);
}

//===----------------------------------------------------------------------===//
// The daemon end to end
//===----------------------------------------------------------------------===//

/// One running lna-serve with a client connection and one-shot
/// lna-analyze as the byte-identity oracle.
class ServeDaemon {
public:
  explicit ServeDaemon(std::vector<std::string> ExtraArgs = {},
                       const std::string &Dir = "") {
    WorkDir = Dir.empty() ? tempDir("lna_serve_e2e") : Dir;
    SocketPath = WorkDir + "/serve.sock";
    std::vector<std::string> Argv = {LNA_SERVE_BIN, "--socket=" + SocketPath,
                                     "--threads=2"};
    for (auto &A : ExtraArgs)
      Argv.push_back(A);
    std::string Error;
    Started = Child.spawn(Argv, Error);
    EXPECT_TRUE(Started) << Error;
    // The socket file appears when the listener is bound.
    for (int I = 0; I < 1000 && Fd < 0; ++I) {
      std::string ConnErr;
      Fd = connectUnix(SocketPath, ConnErr);
      if (Fd < 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(Fd, 0) << "daemon never came up";
  }

  ~ServeDaemon() {
    if (Fd >= 0)
      ::close(Fd);
    if (Started && Child.poll().running()) {
      Child.kill(SIGKILL);
      Child.wait();
    }
  }

  int fd() const { return Fd; }
  const std::string &dir() const { return WorkDir; }
  const std::string &socketPath() const { return SocketPath; }

  /// Sends one raw line and reads one reply line.
  std::string raw(const std::string &Line) {
    EXPECT_TRUE(writeAll(Fd, Line + "\n"));
    std::string Reply;
    EXPECT_TRUE(readLineBlocking(Fd, Carry, Reply));
    return Reply;
  }

  /// Sends one request object and parses the reply.
  JsonValue rpc(const std::string &Json) {
    auto V = JsonValue::parse(raw(Json));
    EXPECT_TRUE(V.has_value());
    return V.value_or(JsonValue{});
  }

  static std::string encodeRequest(const std::string &Id,
                                   const std::string &Cmd,
                                   const std::string &Source,
                                   const std::vector<std::string> &Flags) {
    // Appends only: GCC 12 at -O3 raises a false -Werror=restrict on
    // `"literal" + std::string` chains.
    std::string R = "{\"id\":\"";
    R += jsonEscape(Id);
    R += "\",\"cmd\":\"";
    R += Cmd;
    R += "\",\"source\":\"";
    R += jsonEscape(Source);
    R += "\",\"flags\":[";
    for (size_t I = 0; I < Flags.size(); ++I) {
      R += I ? ",\"" : "\"";
      R += jsonEscape(Flags[I]);
      R += '"';
    }
    R += "]}";
    return R;
  }

  /// Clean shutdown; returns the daemon's exit status.
  int shutdown() {
    (void)rpc("{\"cmd\":\"shutdown\"}");
    ExitStatus St = Child.wait();
    EXPECT_EQ(St.K, ExitStatus::Kind::Exited) << St.describe();
    return St.Code;
  }

private:
  std::string WorkDir, SocketPath, Carry;
  Subprocess Child;
  bool Started = false;
  int Fd = -1;
};

/// Runs one-shot `lna-analyze <flags> <file>` capturing both streams.
InvocationResult runOneShot(const std::vector<std::string> &Flags,
                            const std::string &SourceFile,
                            const std::string &WorkDir) {
  std::string OutFile = WorkDir + "/oneshot.out";
  std::string ErrFile = WorkDir + "/oneshot.err";
  std::string Cmd = "exec \"$0\"";
  std::vector<std::string> Argv = {"sh", "-c", "", LNA_ANALYZE_BIN};
  for (size_t I = 0; I < Flags.size(); ++I) {
    Cmd += " \"$" + std::to_string(I + 1) + "\"";
    Argv.push_back(Flags[I]);
  }
  Cmd += " \"$" + std::to_string(Flags.size() + 1) + "\"";
  Argv.push_back(SourceFile);
  Cmd += " > " + OutFile + " 2> " + ErrFile;
  Argv[2] = Cmd;
  Subprocess P;
  std::string Error;
  EXPECT_TRUE(P.spawn(Argv, Error)) << Error;
  ExitStatus St = P.wait();
  EXPECT_EQ(St.K, ExitStatus::Kind::Exited) << St.describe();
  InvocationResult R;
  R.Exit = St.Code;
  R.Out = readFile(OutFile);
  R.Err = readFile(ErrFile);
  return R;
}

void expectReplyMatchesOneShot(ServeDaemon &D, const std::string &Fixture,
                               const std::vector<std::string> &Flags) {
  std::string Source = readFile(fixturePath(Fixture));
  JsonValue Reply = D.rpc(
      ServeDaemon::encodeRequest("id-" + Fixture, "analyze", Source, Flags));
  InvocationResult OneShot = runOneShot(Flags, fixturePath(Fixture), D.dir());

  ASSERT_NE(Reply.field("ok"), nullptr);
  EXPECT_EQ(Reply.field("ok")->asBool(), true);
  EXPECT_EQ(*Reply.field("id")->asString(), "id-" + Fixture);
  EXPECT_EQ(Reply.field("exit")->asNumber(), OneShot.Exit);
  EXPECT_EQ(*Reply.field("out")->asString(), OneShot.Out)
      << Fixture << " stdout diverged from one-shot lna-analyze";
  EXPECT_EQ(*Reply.field("err")->asString(), OneShot.Err)
      << Fixture << " stderr diverged from one-shot lna-analyze";
}

TEST(ServeDaemon, RepliesByteIdenticalToOneShotAnalyze) {
  ServeDaemon D;
  // Every reachable analysis surface: inference, checking, violations,
  // lock errors, annotated printing, evaluation, explain, in-band
  // stats/metrics JSON, non-default alias backend.
  expectReplyMatchesOneShot(D, "demo.lna", {"--print-annotated", "--run"});
  expectReplyMatchesOneShot(D, "demo.lna", {"--check"});
  expectReplyMatchesOneShot(D, "demo.lna", {"--check", "--all-strong"});
  expectReplyMatchesOneShot(D, "violation.lna", {"--check", "--no-locks"});
  expectReplyMatchesOneShot(D, "explain_restrict.lna",
                            {"--check", "--no-locks", "--explain"});
  expectReplyMatchesOneShot(D, "explain_confine.lna", {"--check", "--explain"});
  // (--stats-json=-/--metrics-out=- are exercised in the bypass tests;
  // their output embeds wall-clock timings, so two processes can never
  // be byte-compared on them.)
  expectReplyMatchesOneShot(D, "demo.lna",
                            {"--alias=andersen", "--no-locks"});
  expectReplyMatchesOneShot(D, "demo.lna", {"--infer", "--inline-depth=2"});
  EXPECT_EQ(D.shutdown(), 0);
}

TEST(ServeDaemon, FlagErrorsMatchOneShotTextAndStatus) {
  ServeDaemon D;
  std::string Source = readFile(fixturePath("demo.lna"));
  JsonValue Reply = D.rpc(ServeDaemon::encodeRequest(
      "bad", "analyze", Source, {"--inline-depth=abc"}));
  EXPECT_EQ(Reply.field("ok")->asBool(), false);
  EXPECT_EQ(Reply.field("exit")->asNumber(), 5.0);
  EXPECT_NE(Reply.field("error")->asString()->find(
                "error: invalid value in '--inline-depth=abc'"),
            std::string::npos);
  EXPECT_EQ(D.shutdown(), 0);
}

TEST(ServeDaemon, UnchangedModuleIsServedFromTheHotTier) {
  ServeDaemon D;
  std::string Source = readFile(fixturePath("demo.lna"));
  std::vector<std::string> Flags = {"--print-annotated", "--run"};
  JsonValue First =
      D.rpc(ServeDaemon::encodeRequest("a", "analyze", Source, Flags));
  JsonValue Second =
      D.rpc(ServeDaemon::encodeRequest("b", "analyze", Source, Flags));
  EXPECT_EQ(*First.field("cache")->asString(), "miss");
  EXPECT_EQ(*Second.field("cache")->asString(), "hot");
  EXPECT_EQ(*First.field("out")->asString(), *Second.field("out")->asString());

  JsonValue Stats = D.rpc("{\"cmd\":\"stats\"}");
  const JsonValue *S = Stats.field("stats");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->field("hot_hits")->asNumber(), 1.0);
  EXPECT_EQ(S->field("miss_runs")->asNumber(), 1.0);
  EXPECT_EQ(S->field("hot_entries")->asNumber(), 1.0);
  EXPECT_EQ(D.shutdown(), 0);
}

TEST(ServeDaemon, EditedModuleInvalidatesOnlyItself) {
  ServeDaemon D;
  std::string A = readFile(fixturePath("demo.lna"));
  std::string B = readFile(fixturePath("violation.lna"));
  std::vector<std::string> Flags = {"--check", "--no-locks"};
  auto Tier = [&](const std::string &Id, const std::string &Src) {
    JsonValue R = D.rpc(ServeDaemon::encodeRequest(Id, "analyze", Src, Flags));
    const JsonValue *C = R.field("cache");
    return C && C->asString() ? *C->asString() : std::string("?");
  };
  EXPECT_EQ(Tier("a1", A), "miss");
  EXPECT_EQ(Tier("b1", B), "miss");
  EXPECT_EQ(Tier("a2", A), "hot");
  // An edit is just different content: new key, fresh analysis --
  // and the *other* module stays hot.
  EXPECT_EQ(Tier("a3", A + "\n"), "miss");
  EXPECT_EQ(Tier("b2", B), "hot");
  EXPECT_EQ(Tier("a4", A), "hot");
  EXPECT_EQ(D.shutdown(), 0);
}

TEST(ServeDaemon, ColdTierSurvivesRestart) {
  std::string Dir = tempDir("lna_serve_restart");
  std::string Source = readFile(fixturePath("demo.lna"));
  std::vector<std::string> Flags = {"--print-annotated"};
  std::string FirstOut;
  {
    ServeDaemon D({"--cache-dir=" + Dir + "/cache"}, Dir);
    JsonValue R =
        D.rpc(ServeDaemon::encodeRequest("r1", "analyze", Source, Flags));
    EXPECT_EQ(*R.field("cache")->asString(), "miss");
    FirstOut = *R.field("out")->asString();
    EXPECT_EQ(D.shutdown(), 0);
  }
  {
    // A new process, same cache dir: the answer comes from the shared
    // on-disk tier without re-analysis, byte-identical.
    ServeDaemon D({"--cache-dir=" + Dir + "/cache"}, Dir);
    JsonValue R =
        D.rpc(ServeDaemon::encodeRequest("r2", "analyze", Source, Flags));
    EXPECT_EQ(*R.field("cache")->asString(), "cold");
    EXPECT_EQ(*R.field("out")->asString(), FirstOut);
    EXPECT_EQ(D.shutdown(), 0);
  }
}

TEST(ServeDaemon, ColdTierCountsOneLookupPerRequest) {
  // Every keyed request that reaches the pool probes the cold tier
  // exactly once, so the store's own counters reconcile with the
  // daemon's attribution; and only whole-invocation ("a-") entries are
  // ever written, including for a parse error.
  std::string Dir = tempDir("lna_serve_cold_count");
  std::string Cache = Dir + "/cache";
  std::string Good = readFile(fixturePath("demo.lna"));
  std::string Broken = "fun broken( {";
  auto ColdBalances = [](ServeDaemon &D) {
    JsonValue Reply = D.rpc("{\"cmd\":\"stats\"}");
    const JsonValue *S = Reply.field("stats");
    ASSERT_NE(S, nullptr);
    const JsonValue *Cold = S->field("cold");
    ASSERT_NE(Cold, nullptr);
    auto Num = [](const JsonValue *Obj, const char *Key) {
      const JsonValue *V = Obj->field(Key);
      return V && V->asNumber() ? *V->asNumber() : -1.0;
    };
    EXPECT_EQ(Num(Cold, "hits") + Num(Cold, "misses") + Num(Cold, "stale"),
              Num(S, "cold_hits") + Num(S, "miss_runs"));
  };
  {
    ServeDaemon D({"--cache-dir=" + Cache}, Dir);
    JsonValue Miss =
        D.rpc(ServeDaemon::encodeRequest("m", "analyze", Good, {}));
    EXPECT_EQ(*Miss.field("cache")->asString(), "miss");
    JsonValue Bad =
        D.rpc(ServeDaemon::encodeRequest("p", "analyze", Broken, {}));
    EXPECT_EQ(*Bad.field("cache")->asString(), "miss");
    EXPECT_EQ(Bad.field("exit")->asNumber(), 1.0);
    ColdBalances(D);
    EXPECT_EQ(D.shutdown(), 0);
  }
  {
    ServeDaemon D({"--cache-dir=" + Cache}, Dir);
    JsonValue Hit =
        D.rpc(ServeDaemon::encodeRequest("c", "analyze", Broken, {}));
    EXPECT_EQ(*Hit.field("cache")->asString(), "cold");
    EXPECT_EQ(Hit.field("exit")->asNumber(), 1.0);
    ColdBalances(D);
    EXPECT_EQ(D.shutdown(), 0);
  }
  size_t Entries = 0;
  for (const auto &E : std::filesystem::directory_iterator(Cache)) {
    std::string Name = E.path().filename().string();
    EXPECT_EQ(Name.rfind("a-", 0), 0u) << Name;
    EXPECT_EQ(E.path().extension(), ".lnac") << Name;
    ++Entries;
  }
  EXPECT_EQ(Entries, 2u);
}

TEST(ServeDaemon, ObservabilityRequestsBypassBothTiers) {
  ServeDaemon D;
  std::string Source = readFile(fixturePath("demo.lna"));
  std::vector<std::string> Flags = {"--metrics-out=-", "--no-locks"};
  JsonValue R1 =
      D.rpc(ServeDaemon::encodeRequest("m1", "analyze", Source, Flags));
  JsonValue R2 =
      D.rpc(ServeDaemon::encodeRequest("m2", "analyze", Source, Flags));
  EXPECT_EQ(*R1.field("cache")->asString(), "bypass");
  EXPECT_EQ(*R2.field("cache")->asString(), "bypass");
  EXPECT_NE(R1.field("out")->asString()->find("\"counters\""),
            std::string::npos);
  EXPECT_EQ(D.shutdown(), 0);
}

// End-to-end variant of the state-leak regression: an Andersen request
// between two plain metrics requests, all multiplexed onto the same
// worker pool, must leave the plain replies byte-identical.
TEST(ServeDaemon, CrossRequestObsIsolationOverTheWire) {
  ServeDaemon D;
  std::string Source = readFile(fixturePath("demo.lna"));
  std::vector<std::string> Plain = {"--metrics-out=-", "--no-locks"};
  std::vector<std::string> Andersen = {"--metrics-out=-", "--no-locks",
                                       "--alias=andersen"};
  JsonValue Before =
      D.rpc(ServeDaemon::encodeRequest("p1", "analyze", Source, Plain));
  JsonValue Mid =
      D.rpc(ServeDaemon::encodeRequest("a1", "analyze", Source, Andersen));
  JsonValue After =
      D.rpc(ServeDaemon::encodeRequest("p2", "analyze", Source, Plain));
  EXPECT_NE(Mid.field("out")->asString()->find("alias.andersen."),
            std::string::npos);
  EXPECT_EQ(*Before.field("out")->asString(), *After.field("out")->asString());
  EXPECT_EQ(After.field("out")->asString()->find("alias.andersen."),
            std::string::npos);
  EXPECT_EQ(D.shutdown(), 0);
}

TEST(ServeDaemon, ProtocolErrorsAreRepliesNotDisconnects) {
  ServeDaemon D;
  auto ExpectError = [&](const std::string &Line, const char *Frag) {
    auto V = JsonValue::parse(D.raw(Line));
    ASSERT_TRUE(V.has_value()) << Line;
    EXPECT_EQ(V->field("ok")->asBool(), false) << Line;
    EXPECT_NE(V->field("error")->asString()->find(Frag), std::string::npos)
        << Line << " -> " << *V->field("error")->asString();
  };
  ExpectError("this is not json", "malformed");
  ExpectError("{\"cmd\":\"analyze\"}", "missing 'source'");
  ExpectError("{\"cmd\":\"frobnicate\"}", "unknown cmd");
  ExpectError("{\"cmd\":\"analyze\",\"source\":\"x\",\"flags\":\"-c\"}",
              "array");
  // The connection survived all of it.
  std::string Source = readFile(fixturePath("demo.lna"));
  JsonValue Ok = D.rpc(ServeDaemon::encodeRequest("ok", "analyze", Source,
                                                  {"--print-annotated"}));
  EXPECT_EQ(Ok.field("ok")->asBool(), true);

  JsonValue Stats = D.rpc("{\"cmd\":\"stats\"}");
  EXPECT_GE(*Stats.field("stats")->field("protocol_errors")->asNumber(), 4.0);
  EXPECT_EQ(D.shutdown(), 0);
}

TEST(ServeDaemon, InferAndExplainCmdsAliasTheFlags) {
  ServeDaemon D;
  std::string Source = readFile(fixturePath("explain_restrict.lna"));
  std::vector<std::string> Flags = {"--check", "--no-locks"};
  JsonValue ViaCmd = D.rpc(
      ServeDaemon::encodeRequest("c", "explain", Source, Flags));
  JsonValue ViaFlag = D.rpc(ServeDaemon::encodeRequest(
      "f", "analyze", Source, {"--check", "--no-locks", "--explain"}));
  EXPECT_EQ(*ViaCmd.field("out")->asString(), *ViaFlag.field("out")->asString());
  EXPECT_EQ(ViaCmd.field("exit")->asNumber(), ViaFlag.field("exit")->asNumber());
  // And the aliased request hits the same cache slot.
  EXPECT_EQ(*ViaFlag.field("cache")->asString(), "hot");
  EXPECT_EQ(D.shutdown(), 0);
}

TEST(ServeDaemon, EightConcurrentClientsGetConsistentAnswers) {
  ServeDaemon D({"--threads=4"});
  std::string DemoSrc = readFile(fixturePath("demo.lna"));
  std::string ViolSrc = readFile(fixturePath("violation.lna"));

  // Expected bytes, established once through the daemon itself.
  JsonValue DemoRef = D.rpc(ServeDaemon::encodeRequest(
      "ref-d", "analyze", DemoSrc, {"--print-annotated"}));
  JsonValue ViolRef = D.rpc(ServeDaemon::encodeRequest(
      "ref-v", "analyze", ViolSrc, {"--check", "--no-locks"}));
  std::string DemoOut = *DemoRef.field("out")->asString();
  std::string ViolOut = *ViolRef.field("out")->asString();

  constexpr int NumClients = 8;
  constexpr int PerClient = 6;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Clients;
  for (int C = 0; C < NumClients; ++C) {
    Clients.emplace_back([&, C] {
      std::string ConnErr, Carry;
      int Fd = connectUnix(D.socketPath(), ConnErr);
      if (Fd < 0) {
        ++Failures;
        return;
      }
      for (int I = 0; I < PerClient; ++I) {
        bool Demo = (C + I) % 2 == 0;
        std::string Id =
            "c" + std::to_string(C) + "-" + std::to_string(I);
        std::string Req = ServeDaemon::encodeRequest(
            Id, "analyze", Demo ? DemoSrc : ViolSrc,
            Demo ? std::vector<std::string>{"--print-annotated"}
                 : std::vector<std::string>{"--check", "--no-locks"});
        std::string ReplyLine;
        if (!writeAll(Fd, Req + "\n") ||
            !readLineBlocking(Fd, Carry, ReplyLine)) {
          ++Failures;
          break;
        }
        auto Reply = JsonValue::parse(ReplyLine);
        if (!Reply || !Reply->field("id") ||
            *Reply->field("id")->asString() != Id ||
            Reply->field("ok")->asBool() != true ||
            *Reply->field("out")->asString() != (Demo ? DemoOut : ViolOut)) {
          ++Failures;
          break;
        }
      }
      ::close(Fd);
    });
  }
  for (auto &T : Clients)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  JsonValue Stats = D.rpc("{\"cmd\":\"stats\"}");
  EXPECT_GE(*Stats.field("stats")->field("requests")->asNumber(),
            2.0 + NumClients * PerClient);
  EXPECT_EQ(D.shutdown(), 0);
}

/// Reads one reply line from \p Fd, waiting no later than \p Deadline.
/// False on timeout, EOF or error -- a lost reply fails the test
/// instead of hanging it.
bool readLineBy(int Fd, std::string &Carry, std::string &Line,
                std::chrono::steady_clock::time_point Deadline) {
  for (;;) {
    size_t NL = Carry.find('\n');
    if (NL != std::string::npos) {
      Line = Carry.substr(0, NL);
      Carry.erase(0, NL + 1);
      return true;
    }
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    Deadline - std::chrono::steady_clock::now())
                    .count();
    pollfd P{Fd, POLLIN, 0};
    if (Left <= 0 || pollRetry(&P, 1, static_cast<int>(Left)) <= 0 ||
        readSome(Fd, Carry) <= 0)
      return false;
  }
}

/// A small module whose analysis output depends on \p N: a clean lock
/// pair, a double acquire (lock error, exit 3), or no locking at all.
std::string tinyModule(int N) {
  static const char *Bodies[] = {"spin_lock(locks[i]); spin_unlock(locks[i])",
                                 "spin_lock(locks[i]); spin_lock(locks[i])",
                                 "i"};
  std::string S = "var locks : array lock;\nfun f";
  S += std::to_string(N);
  S += "(i : int) : int { ";
  S += Bodies[N % 3];
  S += " }\n";
  return S;
}

/// "<Prefix><N>", a request id. Built by appending, like every string
/// here: GCC 12 at -O3 raises a false -Werror=restrict on
/// `"literal" + std::string`.
std::string idOf(const char *Prefix, int N) {
  std::string S = Prefix;
  S += std::to_string(N);
  return S;
}

/// The exact reply line the daemon owes request \p Id, framed around an
/// in-process runInvocation of the same source and (default) flags.
std::string expectedReply(const std::string &Id, const std::string &Tier,
                          const InvocationResult &R) {
  std::string S = "{\"id\":\"";
  S += Id;
  S += "\",\"ok\":true,\"exit\":";
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

/// Collects \p Count reply lines from \p Fd, keyed by their "id".
/// Fails the test (returning what arrived) when a reply does not come
/// within 20 s.
std::map<std::string, std::string> collectById(int Fd, size_t Count,
                                               std::string &Carry) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::map<std::string, std::string> ById;
  std::string Line;
  for (size_t I = 0; I < Count; ++I) {
    if (!readLineBy(Fd, Carry, Line, Deadline)) {
      ADD_FAILURE() << "reply " << I << " of " << Count << " never arrived";
      break;
    }
    auto V = JsonValue::parse(Line);
    const JsonValue *Id = V ? V->field("id") : nullptr;
    if (!Id || !Id->asString()) {
      ADD_FAILURE() << "reply without a string id: " << Line;
      continue;
    }
    EXPECT_TRUE(ById.emplace(*Id->asString(), Line).second)
        << "duplicate reply for " << *Id->asString();
  }
  return ById;
}

/// The tier a reply line reports ("" when absent).
std::string tierOf(const std::string &Line) {
  auto V = JsonValue::parse(Line);
  const JsonValue *C = V ? V->field("cache") : nullptr;
  return C && C->asString() ? *C->asString() : "";
}

// The lossless-wire regression: a client that pipelines thousands of
// requests and only starts reading a second later fills its socket
// buffer with replies long before it reads. Every reply must still
// arrive (EAGAIN leaves bytes queued, it does not kill the connection),
// byte-identical to runInvocation, and the daemon's own count must
// agree with what the client received.
TEST(ServeDaemon, PipelinedBurstWithSlowReaderLosesNoReply) {
  ServeDaemon D;
  constexpr int Variants = 50;
  constexpr int Total = 5000;
  std::vector<InvocationResult> Ref;
  for (int V = 0; V < Variants; ++V)
    Ref.push_back(runInvocation(InvocationOptions{}, tinyModule(V)));
  std::string Burst;
  for (int I = 0; I < Total; ++I) {
    Burst += ServeDaemon::encodeRequest(idOf("p", I), "analyze",
                                        tinyModule(I % Variants), {});
    Burst += '\n';
  }
  ASSERT_TRUE(writeAll(D.fd(), Burst));
  std::this_thread::sleep_for(std::chrono::seconds(1));
  std::string Carry;
  auto ById = collectById(D.fd(), Total, Carry);
  ASSERT_EQ(ById.size(), size_t(Total));
  for (int I = 0; I < Total; ++I) {
    std::string Id = idOf("p", I);
    const std::string &Line = ById[Id];
    std::string Tier = tierOf(Line);
    EXPECT_TRUE(Tier == "hot" || Tier == "miss") << Line;
    EXPECT_EQ(Line, expectedReply(Id, Tier, Ref[I % Variants]));
  }

  std::string StatsLine;
  ASSERT_TRUE(writeAll(D.fd(), "{\"cmd\":\"stats\"}\n"));
  ASSERT_TRUE(readLineBy(D.fd(), Carry, StatsLine,
                         std::chrono::steady_clock::now() +
                             std::chrono::seconds(20)));
  auto Stats = JsonValue::parse(StatsLine);
  ASSERT_TRUE(Stats && Stats->field("stats"));
  const JsonValue *S = Stats->field("stats");
  // Every request the daemon counted -- the stats request included --
  // reached the client.
  EXPECT_EQ(*S->field("requests")->asNumber(), double(Total + 1));
  EXPECT_EQ(*S->field("hot_hits")->asNumber() +
                *S->field("miss_runs")->asNumber(),
            double(Total));
  EXPECT_EQ(*S->field("protocol_errors")->asNumber(), 0.0);
  EXPECT_EQ(D.shutdown(), 0);
}

// Hot hits are answered on the poll thread while misses run on the
// pool, so on one connection their replies overtake each other. Every
// one must still arrive once, under its own id, with its own bytes.
TEST(ServeDaemon, InterleavedHotHitsAndMissesAnswerEveryId) {
  ServeDaemon D;
  constexpr int Warm = 4;
  constexpr int Pairs = 200;
  std::vector<InvocationResult> WarmRef;
  for (int W = 0; W < Warm; ++W) {
    WarmRef.push_back(runInvocation(InvocationOptions{}, tinyModule(W)));
    JsonValue R = D.rpc(ServeDaemon::encodeRequest(
        idOf("w", W), "analyze", tinyModule(W), {}));
    EXPECT_EQ(*R.field("cache")->asString(), "miss");
  }
  std::string Burst;
  std::vector<InvocationResult> MissRef;
  for (int I = 0; I < Pairs; ++I) {
    Burst += ServeDaemon::encodeRequest(idOf("h", I), "analyze",
                                        tinyModule(I % Warm), {});
    Burst += '\n';
    // Fresh modules: numbered past every warm one, so each is a miss.
    std::string Fresh = tinyModule(1000 + I);
    MissRef.push_back(runInvocation(InvocationOptions{}, Fresh));
    Burst += ServeDaemon::encodeRequest(idOf("m", I), "analyze",
                                        Fresh, {});
    Burst += '\n';
  }
  ASSERT_TRUE(writeAll(D.fd(), Burst));
  std::string Carry;
  auto ById = collectById(D.fd(), 2 * Pairs, Carry);
  ASSERT_EQ(ById.size(), size_t(2 * Pairs));
  for (int I = 0; I < Pairs; ++I) {
    std::string H = idOf("h", I), M = idOf("m", I);
    EXPECT_EQ(ById[H], expectedReply(H, "hot", WarmRef[I % Warm]));
    EXPECT_EQ(ById[M], expectedReply(M, "miss", MissRef[I]));
  }
  JsonValue Stats = D.rpc("{\"cmd\":\"stats\"}");
  EXPECT_EQ(*Stats.field("stats")->field("hot_hits")->asNumber(),
            double(Pairs));
  EXPECT_EQ(*Stats.field("stats")->field("miss_runs")->asNumber(),
            double(Warm + Pairs));
  EXPECT_EQ(D.shutdown(), 0);
}

// A client may half-close its end once it has sent everything: EOF on
// the read side is not a dead peer, so the replies still pending on the
// pool must arrive before the daemon closes the connection.
TEST(ServeDaemon, HalfClosedClientStillGetsEveryReply) {
  ServeDaemon D;
  constexpr int Total = 60;
  std::string Burst;
  std::vector<InvocationResult> Ref;
  for (int I = 0; I < Total; ++I) {
    Ref.push_back(runInvocation(InvocationOptions{}, tinyModule(2000 + I)));
    Burst += ServeDaemon::encodeRequest(idOf("q", I), "analyze",
                                        tinyModule(2000 + I), {});
    Burst += '\n';
  }
  ASSERT_TRUE(writeAll(D.fd(), Burst));
  ASSERT_EQ(::shutdown(D.fd(), SHUT_WR), 0);
  std::string Carry;
  auto ById = collectById(D.fd(), Total, Carry);
  ASSERT_EQ(ById.size(), size_t(Total));
  for (int I = 0; I < Total; ++I) {
    std::string Id = idOf("q", I);
    EXPECT_EQ(ById[Id], expectedReply(Id, "miss", Ref[I]));
  }
  // Then the daemon closes its side: EOF, not a hang.
  std::string Line;
  EXPECT_FALSE(readLineBy(D.fd(), Carry, Line,
                          std::chrono::steady_clock::now() +
                              std::chrono::seconds(20)));
  EXPECT_TRUE(Carry.empty());
}

// A shutdown request behind a backlog the client has not read yet:
// the daemon drains its pool and then delivers the queued replies
// (shutdown's own included) before it exits.
TEST(ServeDaemon, ShutdownDeliversRepliesQueuedForASlowReader) {
  ServeDaemon D;
  std::string Source = tinyModule(1);
  InvocationResult Ref = runInvocation(InvocationOptions{}, Source);
  (void)D.rpc(ServeDaemon::encodeRequest("warm", "analyze", Source, {}));
  constexpr int Total = 6000;
  std::string Burst;
  for (int I = 0; I < Total; ++I) {
    Burst += ServeDaemon::encodeRequest(idOf("s", I), "analyze",
                                        Source, {});
    Burst += '\n';
  }
  Burst += "{\"id\":\"stop\",\"cmd\":\"shutdown\"}\n";
  ASSERT_TRUE(writeAll(D.fd(), Burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::string Carry;
  auto ById = collectById(D.fd(), Total + 1, Carry);
  ASSERT_EQ(ById.size(), size_t(Total + 1));
  for (int I = 0; I < Total; ++I) {
    std::string Id = idOf("s", I);
    EXPECT_EQ(ById[Id], expectedReply(Id, "hot", Ref));
  }
  EXPECT_EQ(ById["stop"], "{\"id\":\"stop\",\"ok\":true,\"shutdown\":true}");
}

TEST(ServeDaemon, EventsJournalRecordsTheLifecycle) {
  std::string Dir = tempDir("lna_serve_journal");
  {
    ServeDaemon D({"--events-out=" + Dir + "/events.jsonl"}, Dir);
    std::string Source = readFile(fixturePath("demo.lna"));
    (void)D.rpc(ServeDaemon::encodeRequest("j1", "analyze", Source,
                                           {"--print-annotated"}));
    EXPECT_EQ(D.shutdown(), 0);
  }
  std::string Journal = readFile(Dir + "/events.jsonl");
  EXPECT_NE(Journal.find("\"serve-start\""), std::string::npos);
  EXPECT_NE(Journal.find("\"conn-open\""), std::string::npos);
  EXPECT_NE(Journal.find("\"request\""), std::string::npos);
  EXPECT_NE(Journal.find("\"serve-stop\""), std::string::npos);
}

} // namespace

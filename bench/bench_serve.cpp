//===- bench_serve.cpp - Resident daemon throughput and warm p50 -*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Quantifies what the resident daemon buys over one-shot processes: a
// real lna-serve is spawned on a Unix-domain socket and driven through
// the wire protocol with >=1000 requests -- a byte-identity pass diffed
// against one-shot lna-analyze, a cold pass over hundreds of distinct
// corpus modules, a warm pass over the same modules (hot-tier answers:
// no parsing, no solving), and a mixed workload from 8 concurrent
// client threads. The honest numbers are the per-request latency
// medians; the guardrail asserts warm p50 is at least 5x below cold
// p50 and that every checked reply was byte-identical.
//
// Results go to BENCH_serve.json in the working directory. Plain
// main() rather than google-benchmark: the phases mutate daemon state
// (the hot tier) in a deliberate order.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "serve/Json.h"
#include "support/Socket.h"
#include "support/Stats.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace lna;

namespace {

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Idx = static_cast<size_t>(P * static_cast<double>(V.size() - 1));
  return V[Idx];
}

/// One blocking request/reply exchange; returns the reply line.
std::string rpc(int Fd, std::string &Carry, const std::string &Line) {
  if (!writeAll(Fd, Line + "\n"))
    return "";
  std::string Reply;
  if (!readLineBlocking(Fd, Carry, Reply))
    return "";
  return Reply;
}

/// "<Prefix><N>", a request id, built by appending (see encodeRequest).
std::string idOf(const char *Prefix, size_t N) {
  std::string S = Prefix;
  S += std::to_string(N);
  return S;
}

std::string encodeRequest(const std::string &Id, const std::string &Source,
                          const std::vector<std::string> &Flags) {
  // Appends only: GCC 12 at -O3 raises a false -Werror=restrict on
  // `"literal" + std::string` chains.
  std::string R = "{\"id\":\"";
  R += jsonEscape(Id);
  R += "\",\"cmd\":\"analyze\",\"source\":\"";
  R += jsonEscape(Source);
  R += "\",\"flags\":[";
  for (size_t I = 0; I < Flags.size(); ++I) {
    if (I)
      R += ",";
    R += '"';
    R += jsonEscape(Flags[I]);
    R += '"';
  }
  R += "]}";
  return R;
}

struct Reply {
  bool Ok = false;
  int Exit = -1;
  std::string Cache, Out, Err;
};

Reply decodeReply(const std::string &Line) {
  Reply R;
  auto V = JsonValue::parse(Line);
  if (!V)
    return R;
  const JsonValue *Ok = V->field("ok");
  R.Ok = Ok && Ok->asBool() == true;
  if (const JsonValue *E = V->field("exit"))
    R.Exit = static_cast<int>(E->asNumber().value_or(-1));
  if (const JsonValue *C = V->field("cache"); C && C->asString())
    R.Cache = *C->asString();
  if (const JsonValue *O = V->field("out"); O && O->asString())
    R.Out = *O->asString();
  if (const JsonValue *E = V->field("err"); E && E->asString())
    R.Err = *E->asString();
  return R;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// One-shot `lna-analyze <flags> <file>`, both streams captured.
bool runOneShot(const std::string &Bin, const std::vector<std::string> &Flags,
                const std::string &SourceFile, const std::string &WorkDir,
                int &Exit, std::string &Out, std::string &Err) {
  std::string OutFile = WorkDir + "/oneshot.out";
  std::string ErrFile = WorkDir + "/oneshot.err";
  std::string Cmd = "exec \"$0\"";
  std::vector<std::string> Argv = {"sh", "-c", "", Bin};
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
  if (!P.spawn(Argv, Error))
    return false;
  ExitStatus St = P.wait();
  if (St.K != ExitStatus::Kind::Exited)
    return false;
  Exit = St.Code;
  Out = readFile(OutFile);
  Err = readFile(ErrFile);
  return true;
}

} // namespace

int main() {
  ignoreSigPipe();

  std::string Dir =
      (std::filesystem::temp_directory_path() /
       ("lna-bench-serve-" + std::to_string(static_cast<uint64_t>(getpid()))))
          .string();
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  std::filesystem::create_directories(Dir);
  std::string SocketPath = Dir + "/bench.sock";

  Subprocess Daemon;
  std::string Error;
  if (!Daemon.spawn({LNA_SERVE_BIN, "--socket=" + SocketPath, "--threads=8",
                     "--hot-capacity=1024"},
                    Error)) {
    std::fprintf(stderr, "bench_serve: cannot spawn daemon: %s\n",
                 Error.c_str());
    return 1;
  }
  int Fd = -1;
  for (int I = 0; I < 1000 && Fd < 0; ++I) {
    std::string ConnErr;
    Fd = connectUnix(SocketPath, ConnErr);
    if (Fd < 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (Fd < 0) {
    std::fprintf(stderr, "bench_serve: daemon never came up\n");
    return 1;
  }
  std::string Carry;

  // Hundreds of distinct real corpus modules: every source hashes to
  // its own invocation key, so the cold pass is all misses and the
  // warm pass is all hot-tier answers.
  std::vector<ModuleSpec> Corpus = generateCorpus();
  constexpr size_t NumModules = 120;
  std::vector<std::string> Sources;
  for (const ModuleSpec &M : Corpus)
    if (M.LoadError.empty())
      Sources.push_back(M.Source);
  // The largest modules: a cold request should carry a representative
  // parse+solve cost, not the corpus's three-line floor.
  std::stable_sort(Sources.begin(), Sources.end(),
                   [](const std::string &A, const std::string &B) {
                     return A.size() > B.size();
                   });
  if (Sources.size() > NumModules)
    Sources.resize(NumModules);
  const std::vector<std::string> Flags = {"--check", "--inline-depth=8",
                                          "--run"};

  std::atomic<uint64_t> Requests{0};
  uint64_t IdentityChecked = 0, IdentityMismatches = 0;

  // Phase 1: byte-identity against one-shot lna-analyze over a slice of
  // modules (every analysis outcome class appears in the slice).
  for (size_t I = 0; I < 16; ++I) {
    const std::string &Src = Sources[I * (Sources.size() / 16)];
    std::string File = Dir + "/mod.lna";
    {
      std::ofstream O(File, std::ios::binary | std::ios::trunc);
      O << Src;
    }
    Reply R = decodeReply(
        rpc(Fd, Carry, encodeRequest(idOf("id", I), Src, Flags)));
    ++Requests;
    int Exit = -2;
    std::string Out, Err;
    if (!R.Ok ||
        !runOneShot(LNA_ANALYZE_BIN, Flags, File, Dir, Exit, Out, Err)) {
      ++IdentityMismatches;
      continue;
    }
    ++IdentityChecked;
    if (R.Exit != Exit || R.Out != Out || R.Err != Err)
      ++IdentityMismatches;
  }

  // Phase 2: cold pass -- every module analyzed live.
  std::vector<double> ColdMs;
  for (size_t I = 0; I < Sources.size(); ++I) {
    auto T0 = std::chrono::steady_clock::now();
    Reply R = decodeReply(
        rpc(Fd, Carry, encodeRequest(idOf("c", I), Sources[I], Flags)));
    auto T1 = std::chrono::steady_clock::now();
    ++Requests;
    if (!R.Ok) {
      std::fprintf(stderr, "bench_serve: cold request %zu failed\n", I);
      return 1;
    }
    // The identity slice above already analyzed a few modules; only
    // genuine misses count as cold samples.
    if (R.Cache == "miss")
      ColdMs.push_back(
          std::chrono::duration<double, std::milli>(T1 - T0).count());
  }

  // Phase 3: warm pass -- the same modules, answered from memory.
  std::vector<double> WarmMs;
  uint64_t WarmNotHot = 0;
  for (size_t I = 0; I < Sources.size(); ++I) {
    auto T0 = std::chrono::steady_clock::now();
    Reply R = decodeReply(
        rpc(Fd, Carry, encodeRequest(idOf("w", I), Sources[I], Flags)));
    auto T1 = std::chrono::steady_clock::now();
    ++Requests;
    if (!R.Ok) {
      std::fprintf(stderr, "bench_serve: warm request %zu failed\n", I);
      return 1;
    }
    if (R.Cache != "hot")
      ++WarmNotHot;
    WarmMs.push_back(
        std::chrono::duration<double, std::milli>(T1 - T0).count());
  }

  // Phase 4: 8 concurrent clients over a mixed (warm-dominated)
  // workload -- the daemon's steady state.
  constexpr int NumClients = 8;
  constexpr int PerClient = 112;
  std::atomic<uint64_t> MixedFailures{0};
  std::vector<std::vector<double>> PerClientMs(NumClients);
  auto MixedT0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> Clients;
    for (int C = 0; C < NumClients; ++C) {
      Clients.emplace_back([&, C] {
        std::string ConnErr, ClientCarry;
        int CFd = connectUnix(SocketPath, ConnErr);
        if (CFd < 0) {
          ++MixedFailures;
          return;
        }
        for (int I = 0; I < PerClient; ++I) {
          const std::string &Src =
              Sources[(static_cast<size_t>(C) * 31 + static_cast<size_t>(I)) %
                      Sources.size()];
          std::string Id = "m";
          Id += std::to_string(C);
          Id += '-';
          Id += std::to_string(I);
          auto T0 = std::chrono::steady_clock::now();
          Reply R =
              decodeReply(rpc(CFd, ClientCarry, encodeRequest(Id, Src, Flags)));
          auto T1 = std::chrono::steady_clock::now();
          ++Requests;
          if (!R.Ok)
            ++MixedFailures;
          PerClientMs[static_cast<size_t>(C)].push_back(
              std::chrono::duration<double, std::milli>(T1 - T0).count());
        }
        ::close(CFd);
      });
    }
    for (auto &T : Clients)
      T.join();
  }
  double MixedSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - MixedT0)
          .count();
  std::vector<double> MixedMs;
  for (auto &V : PerClientMs)
    MixedMs.insert(MixedMs.end(), V.begin(), V.end());

  (void)rpc(Fd, Carry, "{\"cmd\":\"shutdown\"}");
  ++Requests;
  ::close(Fd);
  Daemon.wait();
  std::filesystem::remove_all(Dir, EC);

  double ColdP50 = percentile(ColdMs, 0.50), ColdP95 = percentile(ColdMs, 0.95);
  double WarmP50 = percentile(WarmMs, 0.50), WarmP95 = percentile(WarmMs, 0.95);
  double MixedP50 = percentile(MixedMs, 0.50),
         MixedP95 = percentile(MixedMs, 0.95);
  double Speedup = WarmP50 > 0.0 ? ColdP50 / WarmP50 : 0.0;
  double MixedRps = MixedSeconds > 0.0
                        ? static_cast<double>(MixedMs.size()) / MixedSeconds
                        : 0.0;

  std::FILE *Out = std::fopen("BENCH_serve.json", "w");
  if (!Out) {
    std::fprintf(stderr, "bench_serve: cannot write output file\n");
    return 1;
  }
  std::fprintf(Out,
               "{\"requests\":%llu,\"modules\":%zu,"
               "\"identity_checked\":%llu,\"identity_mismatches\":%llu,"
               "\"cold_p50_ms\":%.3f,\"cold_p95_ms\":%.3f,"
               "\"warm_p50_ms\":%.3f,\"warm_p95_ms\":%.3f,"
               "\"warm_speedup_p50\":%.2f,"
               "\"concurrent_clients\":%d,"
               "\"mixed_p50_ms\":%.3f,\"mixed_p95_ms\":%.3f,"
               "\"mixed_requests_per_second\":%.1f,"
               "\"guardrail_min_warm_speedup\":5.0}\n",
               static_cast<unsigned long long>(Requests.load()),
               Sources.size(),
               static_cast<unsigned long long>(IdentityChecked),
               static_cast<unsigned long long>(IdentityMismatches), ColdP50,
               ColdP95, WarmP50, WarmP95, Speedup, NumClients, MixedP50,
               MixedP95, MixedRps);
  std::fclose(Out);

  std::printf("requests %llu over %zu distinct modules\n",
              static_cast<unsigned long long>(Requests.load()),
              Sources.size());
  std::printf("identity %llu checked, %llu mismatch(es)\n",
              static_cast<unsigned long long>(IdentityChecked),
              static_cast<unsigned long long>(IdentityMismatches));
  std::printf("cold  p50 %7.3f ms  p95 %7.3f ms\n", ColdP50, ColdP95);
  std::printf("warm  p50 %7.3f ms  p95 %7.3f ms  (%.2fx)\n", WarmP50, WarmP95,
              Speedup);
  std::printf("mixed p50 %7.3f ms  p95 %7.3f ms  %.1f req/s (%d clients)\n",
              MixedP50, MixedP95, MixedRps, NumClients);

  // Guardrails: the daemon is only worth running if warm answers are
  // dramatically cheaper than cold ones, replies never drift from the
  // one-shot tool, and the mixed workload ran clean.
  bool Failed = false;
  if (IdentityMismatches > 0 || IdentityChecked == 0) {
    std::fprintf(stderr, "bench_serve: FAILED byte-identity guardrail\n");
    Failed = true;
  }
  if (Speedup < 5.0) {
    std::fprintf(stderr, "bench_serve: FAILED warm-speedup guardrail "
                         "(%.2fx < 5x)\n",
                 Speedup);
    Failed = true;
  }
  if (WarmNotHot > 0) {
    std::fprintf(stderr,
                 "bench_serve: %llu warm request(s) missed the hot tier\n",
                 static_cast<unsigned long long>(WarmNotHot));
    Failed = true;
  }
  if (MixedFailures.load() > 0) {
    std::fprintf(stderr, "bench_serve: %llu mixed request(s) failed\n",
                 static_cast<unsigned long long>(MixedFailures.load()));
    Failed = true;
  }
  if (Requests.load() < 1000) {
    std::fprintf(stderr, "bench_serve: only %llu requests (< 1000)\n",
                 static_cast<unsigned long long>(Requests.load()));
    Failed = true;
  }
  return Failed ? 1 : 0;
}

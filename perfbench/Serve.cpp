//===- Serve.cpp - The serve-mixed workload ---------------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the real lna-serve binary open-loop: seeded Poisson arrivals
/// at fixed rates, sent from one thread over <cores> connections, each
/// request timed from when it was due. The traffic is Zipf-popular
/// corpus modules over a working set larger than --hot-capacity, plus
/// misses (fresh seeded modules and one-line edits of popular ones), so
/// hot hits, cold-tier hits and misses all occur.
///
/// Every reply is compared byte for byte with the reply the daemon
/// would frame around an in-process runInvocation() of the same source.
/// A reply that never arrives within its deadline is a failed request,
/// and the client's counts are reconciled with the daemon's own stats.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cache/CacheStore.h"
#include "corpus/Corpus.h"
#include "serve/HotStore.h"
#include "serve/Invocation.h"
#include "serve/Json.h"
#include "serve/Server.h"
#include "support/Rng.h"
#include "support/Socket.h"
#include "support/Stats.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <poll.h>
#include <set>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <utility>

using namespace lna;

namespace perfbench {
namespace {

//===----------------------------------------------------------------------===//
// Traffic
//===----------------------------------------------------------------------===//

/// Daemon and traffic parameters; perfbench/README.md gives where each
/// one comes from. The daemon runs at its default --hot-capacity, and
/// the working set is three times that. The latency limit is the one
/// BENCHMARK.json states for serve-mixed.
const size_t HotCapacity = ServerOptions{}.HotCapacity;
const size_t WorkingSetMax = 3 * HotCapacity;
/// Popularity skew: the Zipf-like exponents Breslau et al. measured on
/// web proxy traces (INFOCOM 1999) lie in 0.64-0.83.
constexpr double ZipfExponent = 0.8;
/// An assumption, not a measurement: no recorded trace exists yet.
constexpr double MissShare = 0.10;
/// An eighth or less of serve_max_rps (16k or 32k req/s in 20 runs on
/// the reference host), so the gated windows see an unsaturated daemon
/// and time its service path rather than its queues.
constexpr double ReferenceRate = 2000;
constexpr double LatencyLimitMs = 25;
constexpr double DeadlineSec = 5;
/// The wake probe's reading the gated latency is scaled to.
constexpr double NominalWakeSeconds = 50e-6;
/// Each rung doubles the last one that passed, so a failing rung's
/// backlog drains in about a rung's time, far inside the deadline. Rungs
/// are short because every miss writes a cold-tier file, and creating
/// and deleting tens of thousands of files per run slows this host's
/// file system for minutes afterwards.
const double Ladder[] = {1000, 2000, 4000, 8000, 16000, 32000};
constexpr double RungSeconds = 0.5;

/// One distinct program the traffic sends, with its reference reply.
struct Program {
  std::string Source;
  /// The source as a JSON string body, escaped once up front.
  std::string Escaped;
  /// `"ok":true,"exit":N,"cache":"` -- the reply text between the id
  /// and the tier (empty until the reference is computed).
  std::string ExitPart;
  /// `","out":"...","err":"..."}` -- the reply text after the tier.
  std::string Tail;
  InvocationResult Result;
};

/// Appends one analyze request for an already escaped source.
void appendRequest(std::string &Out, uint64_t Id,
                   const std::string &EscapedSource) {
  Out += "{\"id\":\"q";
  Out += std::to_string(Id);
  Out += "\",\"cmd\":\"analyze\",\"source\":\"";
  Out += EscapedSource;
  Out += "\",\"flags\":[]}\n";
}

/// Fills in a program's reference reply from an in-process run of the
/// same function the daemon runs.
void computeReference(Program &P) {
  P.Result = runInvocation(InvocationOptions{}, P.Source, nullptr);
  P.ExitPart = "\"ok\":true,\"exit\":" + std::to_string(P.Result.Exit) +
               ",\"cache\":\"";
  P.Tail = "\",\"out\":\"" + jsonEscape(P.Result.Out) + "\",\"err\":\"" +
           jsonEscape(P.Result.Err) + "\"}";
}

enum Tier : uint8_t { TierNone, TierHot, TierCold, TierMiss, TierOther };

/// One request of a phase's plan.
struct Planned {
  double Due = 0;   ///< seconds after the phase start
  uint32_t Prog = 0; ///< index into the program table
};

/// A reply to a miss, kept until its reference has been computed.
struct Deferred {
  uint32_t Prog;
  std::string Line;
  size_t Pos; ///< offset just past the id field
};

/// What happened to one request.
struct Outcome {
  bool Received = false;
  bool Correct = false;
  /// The reference was not known yet; checked after the run.
  bool Pending = false;
  Tier T = TierNone;
  double Latency = 0; ///< arrival minus due, seconds
  double Late = 0;    ///< send minus due, seconds
};

struct Traffic {
  std::vector<Program> Programs;
  size_t WorkingSet = 0;
  /// Popularity rank -> working-set index, and the Zipf CDF over ranks.
  std::vector<uint32_t> ByRank;
  std::vector<double> Cdf;
  /// Every source sent so far (the corpus and fresh modules).
  std::set<std::string> Sources;
  Rng R{1};
  uint64_t Edits = 0;

  /// Uniform in [0, 1).
  double uniform() { return double(R.next() >> 11) * 0x1.0p-53; }

  uint32_t popular() {
    double U = uniform();
    size_t Rank = std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
    return ByRank[std::min(Rank, ByRank.size() - 1)];
  }

  /// A miss: half fresh seeded modules, half one-line edits of popular
  /// ones. Its reference is computed after the phase, off the clock.
  uint32_t miss() {
    Program P;
    if (R.below(2)) {
      static const ModuleCategory Cats[] = {ModuleCategory::Clean,
                                            ModuleCategory::Buggy,
                                            ModuleCategory::Recoverable};
      // Small generated modules can repeat a corpus module or an earlier
      // draw; redraw so every fresh module really is new.
      do {
        ModuleCategory Cat = Cats[R.below(3)];
        P.Source = generateModule(Cat, R.next(), 4 + R.below(7)).Source;
      } while (!Sources.insert(P.Source).second);
    } else {
      P.Source = Programs[popular()].Source + "// edit " +
                 std::to_string(++Edits) + "\n";
    }
    P.Escaped = jsonEscape(P.Source);
    Programs.push_back(std::move(P));
    return static_cast<uint32_t>(Programs.size() - 1);
  }

  /// Seeded Poisson arrivals at \p Rate for \p Seconds.
  std::vector<Planned> plan(double Rate, double Seconds) {
    std::vector<Planned> Out;
    double T = 0;
    while (true) {
      T += -std::log1p(-uniform()) / Rate;
      if (T >= Seconds)
        break;
      Out.push_back({T, uniform() < MissShare ? miss() : popular()});
    }
    return Out;
  }
};

Traffic makeTraffic(uint64_t Seed) {
  Traffic Tr;
  Tr.R = Rng(Seed ^ 0x5E77E5EEDULL);
  std::vector<ModuleSpec> Corpus = generateCorpus();
  for (size_t I = Corpus.size(); I > 1; --I)
    std::swap(Corpus[I - 1], Corpus[Tr.R.below(I)]);
  for (ModuleSpec &M : Corpus)
    if (Tr.Sources.insert(M.Source).second &&
        Tr.Programs.size() < WorkingSetMax)
      Tr.Programs.push_back({M.Source, jsonEscape(M.Source), {}, {}, {}});
  Tr.WorkingSet = Tr.Programs.size();
  for (uint32_t I = 0; I < Tr.WorkingSet; ++I)
    Tr.ByRank.push_back(I);
  for (size_t I = Tr.WorkingSet; I > 1; --I)
    std::swap(Tr.ByRank[I - 1], Tr.ByRank[Tr.R.below(I)]);
  double Sum = 0;
  for (size_t I = 0; I < Tr.WorkingSet; ++I)
    Tr.Cdf.push_back(Sum += 1.0 / std::pow(double(I + 1), ZipfExponent));
  for (double &C : Tr.Cdf)
    C /= Sum;
  return Tr;
}

//===----------------------------------------------------------------------===//
// Open-loop client
//===----------------------------------------------------------------------===//

/// One thread, several non-blocking connections. Requests go out on
/// their due time regardless of outstanding replies (open loop); only
/// the set-up fill caps how many are in flight per connection.
class LoadClient {
public:
  LoadClient() = default;
  LoadClient(const LoadClient &) = delete;
  LoadClient &operator=(const LoadClient &) = delete;
  ~LoadClient() {
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        ::close(C.Fd);
  }

  bool connect(const std::string &Socket, unsigned N, std::string &Err) {
    for (unsigned I = 0; I < N; ++I) {
      int Fd = connectUnix(Socket, Err);
      if (Fd < 0 || !setNonBlocking(Fd)) {
        if (Fd >= 0)
          ::close(Fd);
        return false;
      }
      Conns.push_back({Fd, {}, 0, {}});
    }
    return true;
  }

  /// Sends \p Plan and collects every reply (or its deadline). Requests
  /// are numbered from \p FirstId so ids never repeat within a run.
  std::vector<Outcome> run(const Traffic &Tr,
                           const std::vector<Planned> &Plan, uint64_t FirstId,
                           size_t MaxInFlightPerConn,
                           std::vector<Deferred> *Unverified);

  uint64_t Sent = 0;
  uint64_t Received = 0;
  uint64_t ByTier[5] = {};

private:
  struct Conn {
    int Fd;
    std::string Out;
    size_t OutOff;
    std::string In;
  };
  std::vector<Conn> Conns;
};

/// Checks one reply line against a program's reference; \p Pos is the
/// offset just past the id field. Sets \p T from the "cache" field.
bool replyMatches(const Program &P, std::string_view Line, size_t Pos,
                  Tier &T) {
  static constexpr std::string_view CacheKey = "\"cache\":\"";
  size_t TierStart = Line.find(CacheKey, Pos);
  if (TierStart == std::string_view::npos)
    return T = TierOther, false;
  TierStart += CacheKey.size();
  size_t TierEnd = Line.find('"', TierStart);
  if (TierEnd == std::string_view::npos)
    return T = TierOther, false;
  std::string_view Name = Line.substr(TierStart, TierEnd - TierStart);
  T = Name == "hot"    ? TierHot
      : Name == "cold" ? TierCold
      : Name == "miss" ? TierMiss
                       : TierOther;
  return T != TierOther && !P.ExitPart.empty() &&
         Line.substr(Pos, TierStart - Pos) == P.ExitPart &&
         Line.substr(TierEnd) == P.Tail;
}

/// Parses the `{"id":"q<N>",` prefix; returns the offset past it.
size_t parseId(std::string_view Line, uint64_t &Id) {
  static constexpr std::string_view Prefix = "{\"id\":\"q";
  if (Line.substr(0, Prefix.size()) != Prefix)
    return 0;
  size_t Pos = Prefix.size();
  Id = 0;
  while (Pos < Line.size() && Line[Pos] >= '0' && Line[Pos] <= '9')
    Id = Id * 10 + uint64_t(Line[Pos++] - '0');
  return Line.substr(Pos, 2) == "\"," ? Pos + 2 : 0;
}

std::vector<Outcome> LoadClient::run(const Traffic &Tr,
                                     const std::vector<Planned> &Plan,
                                     uint64_t FirstId,
                                     size_t MaxInFlightPerConn,
                                     std::vector<Deferred> *Unverified) {
  std::vector<Outcome> Out(Plan.size());
  std::vector<size_t> InFlight(Conns.size(), 0);
  size_t Next = 0, Done = 0;
  const Clock::time_point T0 = Clock::now();
  auto DueAt = [&](size_t I) {
    return T0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Plan[I].Due));
  };
  const Clock::time_point GiveUp =
      (Plan.empty() ? T0 : DueAt(Plan.size() - 1)) +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(DeadlineSec));

  auto HandleReply = [&](std::string_view Line, Clock::time_point Now) {
    uint64_t Id = 0;
    size_t Pos = parseId(Line, Id);
    if (!Pos || Id < FirstId || Id - FirstId >= Plan.size())
      return; // not one of ours: the reconciliation will show it
    size_t I = Id - FirstId;
    Outcome &O = Out[I];
    if (O.Received)
      return;
    O.Received = true;
    ++Done;
    ++Received;
    --InFlight[I % Conns.size()];
    O.Latency = secondsBetween(DueAt(I), Now);
    const Program &P = Tr.Programs[Plan[I].Prog];
    O.Correct = replyMatches(P, Line, Pos, O.T);
    ++ByTier[O.T];
    if (P.ExitPart.empty()) {
      O.Pending = true;
      if (Unverified)
        Unverified->push_back({Plan[I].Prog, std::string(Line), Pos});
    }
  };

  std::vector<pollfd> Fds(Conns.size());
  while (Done < Plan.size()) {
    Clock::time_point Now = Clock::now();
    while (Next < Plan.size() && DueAt(Next) <= Now) {
      size_t C = Next % Conns.size();
      if (MaxInFlightPerConn && InFlight[C] >= MaxInFlightPerConn)
        break;
      appendRequest(Conns[C].Out, FirstId + Next,
                    Tr.Programs[Plan[Next].Prog].Escaped);
      Out[Next].Late = secondsBetween(DueAt(Next), Now);
      ++InFlight[C];
      ++Sent;
      ++Next;
    }
    for (size_t C = 0; C < Conns.size(); ++C) {
      Conn &K = Conns[C];
      while (K.OutOff < K.Out.size()) {
        ssize_t W = ::write(K.Fd, K.Out.data() + K.OutOff,
                            K.Out.size() - K.OutOff);
        if (W < 0 && errno == EINTR)
          continue;
        if (W <= 0)
          break;
        K.OutOff += size_t(W);
      }
      if (K.OutOff == K.Out.size()) {
        K.Out.clear();
        K.OutOff = 0;
      }
      Fds[C] = {K.Fd, short(POLLIN | (K.Out.empty() ? 0 : POLLOUT)), 0};
    }
    if (Now >= GiveUp)
      break; // whatever is still outstanding has missed its deadline
    Clock::time_point Wake = GiveUp;
    if (Next < Plan.size())
      Wake = std::min(Wake, MaxInFlightPerConn
                                ? Now + std::chrono::milliseconds(1)
                                : DueAt(Next));
    auto Wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::max(Wake - Now, Clock::duration::zero()));
    timespec Ts{static_cast<time_t>(Wait.count() / 1000000000),
                static_cast<long>(Wait.count() % 1000000000)};
    if (::ppoll(Fds.data(), Fds.size(), &Ts, nullptr) <= 0)
      continue;
    Now = Clock::now();
    for (size_t C = 0; C < Conns.size(); ++C) {
      if (!(Fds[C].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      Conn &K = Conns[C];
      char Buf[65536];
      while (true) {
        ssize_t R = ::read(K.Fd, Buf, sizeof(Buf));
        if (R < 0 && errno == EINTR)
          continue;
        if (R <= 0)
          break;
        K.In.append(Buf, size_t(R));
      }
      size_t Start = 0, Nl;
      std::string_view In(K.In);
      while ((Nl = In.find('\n', Start)) != std::string_view::npos) {
        HandleReply(In.substr(Start, Nl - Start), Now);
        Start = Nl + 1;
      }
      K.In.erase(0, Start);
    }
  }
  return Out;
}

/// Times one-byte round trips to a helper thread over a Unix socket
/// pair while the daemon serves a window, paced at the reference rate so
/// that both threads sleep in between, as the daemon's do. It shares no
/// code with the daemon: it measures how fast this host wakes a sleeping
/// thread, under the same conditions the window sees. A hot hit is
/// mostly such wake-ups, and on a shared VM their cost drifts twofold
/// between runs while hostProbe() barely moves, so the gated serve
/// latency is scaled by this probe instead.
class WakeProbe {
public:
  WakeProbe() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv))
      return;
    Echo = std::thread([Fd = Sv[1]] {
      char B;
      while (::read(Fd, &B, 1) == 1 && ::write(Fd, &B, 1) == 1) {
      }
    });
    Pinger = std::thread([this] {
      while (!Stop) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(1.0 / ReferenceRate));
        Clock::time_point Start = Clock::now();
        char B = 'x';
        if (::write(Sv[0], &B, 1) != 1 || ::read(Sv[0], &B, 1) != 1)
          break;
        Rtt.push_back(secondsSince(Start));
      }
    });
  }
  WakeProbe(const WakeProbe &) = delete;
  WakeProbe &operator=(const WakeProbe &) = delete;
  ~WakeProbe() { stop(); }

  /// Stops the probe; the median round trip in seconds, 0 if none ran.
  double stop() {
    Stop = true;
    if (Pinger.joinable())
      Pinger.join();
    if (Echo.joinable()) {
      ::shutdown(Sv[0], SHUT_WR);
      Echo.join();
    }
    for (int &Fd : Sv)
      if (Fd >= 0)
        ::close(std::exchange(Fd, -1));
    return median(Rtt);
  }

private:
  int Sv[2] = {-1, -1};
  std::atomic<bool> Stop{false};
  std::vector<double> Rtt;
  std::thread Echo, Pinger;
};

/// Sends one line on a fresh blocking connection and reads one reply.
std::optional<std::string> oneShot(const std::string &Socket,
                                   const std::string &Line) {
  std::string Err;
  int Fd = connectUnix(Socket, Err);
  if (Fd < 0)
    return std::nullopt;
  timeval Tv{static_cast<time_t>(DeadlineSec), 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  std::optional<std::string> Reply;
  std::string Carry, Got;
  if (writeAll(Fd, Line) && readLineBlocking(Fd, Carry, Got))
    Reply = std::move(Got);
  ::close(Fd);
  return Reply;
}

//===----------------------------------------------------------------------===//
// The daemon, real or fake
//===----------------------------------------------------------------------===//

/// A stand-in peer for the benchmark's self-test: answers like the
/// daemon (every request a "miss" computed in-process) but withholds
/// the reply to one analyze request, the way the daemon's silently
/// dropped replies look from the client.
class FakePeer {
public:
  FakePeer() = default;
  FakePeer(const FakePeer &) = delete;
  FakePeer &operator=(const FakePeer &) = delete;
  ~FakePeer() { stop(); }

  bool start(const std::string &Path, std::string &Err) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path))
      return Err = "socket path too long", false;
    std::strcpy(Addr.sun_path, Path.c_str());
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0 ||
        ::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ||
        ::listen(ListenFd, 64))
      return Err = std::strerror(errno), false;
    Thread = std::thread([this] { loop(); });
    return true;
  }

  void stop() {
    Stop = true;
    if (Thread.joinable())
      Thread.join();
    if (ListenFd >= 0)
      ::close(ListenFd);
    ListenFd = -1;
  }

private:
  void loop() {
    std::vector<int> Fds;
    std::vector<LineBuffer> Bufs;
    uint64_t Requests = 0, Served = 0, StatsSeen = 0, AfterBaseline = 0;
    while (!Stop) {
      std::vector<pollfd> P{{ListenFd, POLLIN, 0}};
      for (int Fd : Fds)
        P.push_back({Fd, POLLIN, 0});
      if (::poll(P.data(), P.size(), 20) <= 0)
        continue;
      if (P[0].revents & POLLIN) {
        int Fd = ::accept(ListenFd, nullptr, nullptr);
        if (Fd >= 0) {
          Fds.push_back(Fd);
          Bufs.emplace_back();
        }
      }
      // Only the connections this poll covered (not one just accepted).
      for (size_t I = 0; I + 1 < P.size(); ++I) {
        if (!(P[I + 1].revents & (POLLIN | POLLHUP)))
          continue;
        char Buf[65536];
        ssize_t N = ::read(Fds[I], Buf, sizeof(Buf));
        if (N <= 0) {
          ::close(Fds[I]);
          Fds[I] = -1;
          continue;
        }
        Bufs[I].feed(std::string_view(Buf, size_t(N)));
        std::string Line;
        while (Bufs[I].popLine(Line)) {
          ++Requests;
          std::optional<JsonValue> Req = JsonValue::parse(Line);
          const JsonValue *Id = Req ? Req->field("id") : nullptr;
          const JsonValue *Src = Req ? Req->field("source") : nullptr;
          std::string IdField =
              Id && Id->asString()
                  ? "\"id\":\"" + jsonEscape(*Id->asString()) + "\","
                  : "";
          std::string Reply;
          if (!Src || !Src->asString()) {
            ++StatsSeen;
            Reply = "{" + IdField +
                    "\"ok\":true,\"stats\":{\"requests\":" +
                    std::to_string(Requests) +
                    ",\"hot_hits\":0,\"cold_hits\":0,\"miss_runs\":" +
                    std::to_string(Served) + "}}";
          } else {
            ++Served;
            // The fifth analyze request after the measurement baseline
            // (the second stats request) is answered by nobody, though
            // the stats claim it was served.
            if (StatsSeen >= 2 && ++AfterBaseline == 5)
              continue;
            InvocationResult Res =
                runInvocation(InvocationOptions{}, *Src->asString(), nullptr);
            Reply = "{" + IdField + "\"ok\":true,\"exit\":" +
                    std::to_string(Res.Exit) +
                    ",\"cache\":\"miss\",\"out\":\"" + jsonEscape(Res.Out) +
                    "\",\"err\":\"" + jsonEscape(Res.Err) + "\"}";
          }
          Reply += '\n';
          writeAll(Fds[I], Reply);
        }
      }
      // Forget connections the peer closed.
      for (size_t I = Fds.size(); I-- > 0;)
        if (Fds[I] < 0) {
          Fds.erase(Fds.begin() + I);
          Bufs.erase(Bufs.begin() + I);
        }
    }
    for (int Fd : Fds)
      ::close(Fd);
  }

  int ListenFd = -1;
  std::atomic<bool> Stop{false};
  std::thread Thread;
};

/// The daemon under test: a spawned lna-serve, or the fake peer.
class Daemon {
public:
  Daemon(const Config &C, const std::string &Socket,
         const std::string &CacheDir)
      : Socket(Socket) {
    std::string Err;
    std::filesystem::remove(Socket);
    if (C.FakePeer) {
      Fake = std::make_unique<FakePeer>();
      Ok = Fake->start(Socket, Err);
    } else {
      Ok = Proc.spawn({C.ServeBinary, "--socket=" + Socket,
                       "--threads=" + std::to_string(C.Threads),
                       "--cache-dir=" + CacheDir},
                      Err);
    }
    if (!Ok)
      Error = Err;
  }

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  /// Waits for the socket to answer a stats request (the first reply).
  bool waitReady() {
    Clock::time_point Start = Clock::now();
    while (Ok && secondsSince(Start) < 20) {
      if (!Fake && !Proc.poll().running())
        return Error = "lna-serve exited during start-up", false;
      if (oneShot(Socket, "{\"cmd\":\"stats\"}\n"))
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Error = "lna-serve did not answer within 20 s", false;
  }

  /// The daemon's peak RSS (MiB).
  double peakRss() { return Fake ? peakRssMb() : peakRssMb(Proc.pid()); }

  /// Graceful shutdown, then kill if it lingers; always reaps.
  void stop() {
    if (Fake) {
      Fake->stop();
      Fake.reset();
    } else if (Proc.started() && Proc.poll().running()) {
      oneShot(Socket, "{\"cmd\":\"shutdown\"}\n");
      Clock::time_point Start = Clock::now();
      while (Proc.poll().running() && secondsSince(Start) < 5)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (Proc.poll().running())
        Proc.kill(SIGKILL);
      Proc.wait();
    }
    std::filesystem::remove(Socket);
  }

  bool Ok = false;
  std::string Error;
  std::string Socket;

private:
  Subprocess Proc;
  std::unique_ptr<FakePeer> Fake;
};

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

/// Latency and correctness of one phase of traffic.
struct PhaseSummary {
  uint64_t Requests = 0;
  uint64_t Lost = 0;  ///< no reply within the deadline
  uint64_t Wrong = 0; ///< a reply that differs from its reference
  /// Latency from due time, seconds; a lost request reads as the
  /// deadline, past every latency limit.
  std::vector<double> Latency;
  std::vector<double> Late;
  std::vector<double> ByTier[5];
};

PhaseSummary summarize(const std::vector<Outcome> &Outs) {
  PhaseSummary S;
  for (const Outcome &O : Outs) {
    ++S.Requests;
    S.Late.push_back(O.Late);
    if (!O.Received || O.Latency > DeadlineSec) {
      ++S.Lost;
      S.Latency.push_back(DeadlineSec);
      continue;
    }
    if (!O.Correct && !O.Pending)
      ++S.Wrong;
    S.Latency.push_back(O.Latency);
    S.ByTier[O.T].push_back(O.Latency);
  }
  return S;
}

void merge(PhaseSummary &Into, const PhaseSummary &From) {
  Into.Requests += From.Requests;
  Into.Lost += From.Lost;
  Into.Wrong += From.Wrong;
  Into.Latency.insert(Into.Latency.end(), From.Latency.begin(),
                      From.Latency.end());
  Into.Late.insert(Into.Late.end(), From.Late.begin(), From.Late.end());
  for (int T = 0; T < 5; ++T)
    Into.ByTier[T].insert(Into.ByTier[T].end(), From.ByTier[T].begin(),
                          From.ByTier[T].end());
}

/// Charges a phase's lost and wrong replies to the report.
void account(const PhaseSummary &S, const char *Phase, Report &Rep) {
  Rep.Attempted += S.Requests;
  if (S.Lost) {
    // Lost replies are failed requests, but not wrong answers.
    Rep.Failed += S.Lost;
    Rep.Notes.push_back(std::string(Phase) + ": " + std::to_string(S.Lost) +
                        " request(s) got no reply within " +
                        std::to_string(int(DeadlineSec)) + " s");
  }
  for (uint64_t I = 0; I < S.Wrong; ++I)
    Rep.fail(std::string(Phase) + ": reply differs from runInvocation");
}

/// The integer fields of a stats reply, or nullopt when unparsable.
std::optional<std::map<std::string, double>>
daemonStats(const std::string &Socket) {
  std::optional<std::string> Reply =
      oneShot(Socket, "{\"id\":\"stats\",\"cmd\":\"stats\"}\n");
  std::optional<JsonValue> V = Reply ? JsonValue::parse(*Reply) : std::nullopt;
  const JsonValue *S = V ? V->field("stats") : nullptr;
  if (!S)
    return std::nullopt;
  std::map<std::string, double> Out;
  for (const char *K : {"requests", "hot_hits", "cold_hits", "miss_runs"}) {
    const JsonValue *F = S->field(K);
    if (!F || !F->asNumber())
      return std::nullopt;
    Out[K] = *F->asNumber();
  }
  return Out;
}

/// Median per-call microseconds of \p Fn over \p N calls.
template <typename F> double perCallUs(size_t N, F &&Fn) {
  std::vector<double> T;
  T.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    Clock::time_point S = Clock::now();
    Fn(I);
    T.push_back(secondsSince(S) * 1e6);
  }
  return median(T);
}

/// The traced run's in-process ledger of the serve path's layers, each
/// timed around the public function the daemon calls for it.
void serveLedger(const Config &C, Traffic &Tr,
                 const std::vector<uint32_t> &Misses,
                 const PhaseSummary &Ref, Report &Rep) {
  const size_t Samples = 4000;
  std::vector<uint32_t> Draws(Samples);
  for (uint32_t &D : Draws)
    D = Tr.popular();
  std::vector<std::string> Lines;
  for (size_t I = 0; I < Tr.WorkingSet; ++I)
    appendRequest(Lines.emplace_back(), 0, Tr.Programs[I].Escaped);

  auto Decode = [&](size_t I) {
    if (!JsonValue::parse(Lines[Draws[I]]))
      Rep.fail("request line does not parse");
  };
  double DecodeUs = perCallUs(Samples, Decode);
  // Span overhead: the same decode loop timed once as a whole.
  Clock::time_point T0 = Clock::now();
  for (size_t I = 0; I < Samples; ++I)
    Decode(I);
  double Untimed = secondsSince(T0);
  T0 = Clock::now();
  perCallUs(Samples, Decode);
  double Timed = secondsSince(T0);

  InvocationOptions Opts;
  std::vector<std::string> Keys(Tr.WorkingSet);
  double KeyUs = perCallUs(Samples, [&](size_t I) {
    Keys[Draws[I]] = invocationKey(Opts, Tr.Programs[Draws[I]].Source);
  });
  for (size_t I = 0; I < Tr.WorkingSet; ++I)
    if (Keys[I].empty())
      Keys[I] = invocationKey(Opts, Tr.Programs[I].Source);

  // HotStore::get under <cores> threads, the store holding the most
  // popular modules as the daemon's would.
  HotStore HotTier(HotCapacity);
  for (size_t Rank = HotCapacity; Rank-- > 0;)
    HotTier.put(Keys[Tr.ByRank[Rank]], Tr.Programs[Tr.ByRank[Rank]].Result,
            nullptr);
  std::vector<std::vector<double>> PerThread(C.Threads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < C.Threads; ++T)
    Threads.emplace_back([&, T] {
      for (size_t I = 0; I < Samples; ++I) {
        const std::string &Key = Keys[Draws[(I + T * 997) % Samples]];
        Clock::time_point S = Clock::now();
        HotTier.get(Key);
        PerThread[T].push_back(secondsSince(S) * 1e6);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  std::vector<double> Gets;
  for (const auto &V : PerThread)
    Gets.insert(Gets.end(), V.begin(), V.end());
  double HotGetUs = median(Gets);

  double EncodeUs = perCallUs(Samples, [&](size_t I) {
    const InvocationResult &R = Tr.Programs[Draws[I]].Result;
    std::string Reply = jsonEscape(R.Out);
    Reply += jsonEscape(R.Err);
  });

  size_t NMiss = std::min<size_t>(Misses.size(), 300);
  for (size_t I = 0; I < NMiss; ++I)
    if (Tr.Programs[Misses[I]].ExitPart.empty())
      computeReference(Tr.Programs[Misses[I]]);
  double InvokeUs = perCallUs(NMiss, [&](size_t I) {
    InvocationResult R =
        runInvocation(Opts, Tr.Programs[Misses[I]].Source, nullptr);
    if (R.Out != Tr.Programs[Misses[I]].Result.Out)
      Rep.fail("in-process miss differs from its reference");
  });

  std::string Dir = C.WorkDir + "/ledger-cold";
  std::filesystem::remove_all(Dir);
  double StoreUs = 0, LookupUs = 0;
  {
    CacheStore ColdTier(Dir, 0);
    size_t N = Tr.WorkingSet;
    StoreUs = perCallUs(N, [&](size_t I) {
      if (!ColdTier.store(Keys[I], encodeInvocation(Tr.Programs[I].Result)))
        Rep.fail("cache store failed");
    });
    LookupUs = perCallUs(N, [&](size_t I) {
      if (!ColdTier.load(Keys[I]))
        Rep.fail("cache lookup missed a stored entry");
    });
  }
  std::filesystem::remove_all(Dir);

  double Hot = double(Ref.ByTier[TierHot].size());
  double Cold = double(Ref.ByTier[TierCold].size());
  double Miss = double(Ref.ByTier[TierMiss].size());
  double HotRtt = median(Ref.ByTier[TierHot]) * 1e6;
  auto Add = [&](const char *Name, const char *Unit, double V, size_t N) {
    Rep.Metrics.push_back({Name, Unit, V, N});
  };
  Add("serve.json_decode_us", "us", DecodeUs, Samples);
  Add("serve.key_us", "us", KeyUs, Samples);
  Add("serve.hot_get_us", "us", HotGetUs, Gets.size());
  Add("serve.encode_us", "us", EncodeUs, Samples);
  Add("serve.transport_us", "us",
      HotRtt - DecodeUs - KeyUs - HotGetUs - EncodeUs,
      Ref.ByTier[TierHot].size());
  Add("serve.invoke_us", "us", InvokeUs, NMiss);
  Add("cache.lookup_us", "us", LookupUs, Tr.WorkingSet);
  Add("cache.store_us", "us", StoreUs, Tr.WorkingSet);
  Add("cache.cold_hit_ratio", "frac", Cold / std::max(1.0, Cold + Miss),
      size_t(Cold + Miss));
  Add("serve.hot_hit_ratio", "frac",
      Hot / std::max(1.0, double(Ref.Requests)), Ref.Requests);
  Add("serve.hot_rtt_us", "us", HotRtt, size_t(Hot));
  Add("serve.cold_rtt_us", "us", median(Ref.ByTier[TierCold]) * 1e6,
      size_t(Cold));
  Add("serve.miss_rtt_us", "us", median(Ref.ByTier[TierMiss]) * 1e6,
      size_t(Miss));
  Add("serve.late_ms", "ms", quantile(Ref.Late, 0.99) * 1e3, Ref.Late.size());
  Add("obs.trace_overhead_frac", "frac", Timed / Untimed - 1, Samples);
}

} // namespace

Report runServeWorkload(const Config &C) {
  Report Rep;
  ignoreSigPipe();
  std::filesystem::create_directories(C.WorkDir);
  const std::string Socket = C.WorkDir + "/serve.sock";
  // Each set-up round gets a fresh cold tier; all are deleted after the
  // measurement, so no round pays for deleting an earlier one's files.
  std::string CacheDir;
  Traffic Tr = makeTraffic(C.Seed);
  for (size_t I = 0; I < Tr.WorkingSet; ++I)
    computeReference(Tr.Programs[I]);

  // Set-up, repeated: spawn to first reply, then fill the cold tier with
  // the working set (each module a miss the daemon publishes to both
  // tiers). The last daemon stays up for the measurement.
  std::vector<double> SetupTimes, SetupNorm;
  std::unique_ptr<Daemon> D;
  std::unique_ptr<LoadClient> Client;
  uint64_t NextId = 0;
  std::vector<Planned> Fill;
  for (uint32_t I = 0; I < Tr.WorkingSet; ++I)
    Fill.push_back({0, I});
  const unsigned Rounds = C.FakePeer ? 1 : 5;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    Client.reset();
    D.reset();
    CacheDir = C.WorkDir + "/cold-" + std::to_string(Round);
    std::filesystem::remove_all(CacheDir);
    Clock::time_point T0 = Clock::now();
    D = std::make_unique<Daemon>(C, Socket, CacheDir);
    std::string Err;
    if (!D->waitReady()) {
      Rep.Correct = false;
      Rep.Notes.push_back("daemon: " + D->Error);
      return Rep;
    }
    Client = std::make_unique<LoadClient>();
    if (!Client->connect(Socket, C.Threads, Err)) {
      Rep.Correct = false;
      Rep.Notes.push_back("connect: " + Err);
      return Rep;
    }
    PhaseSummary S = summarize(Client->run(Tr, Fill, NextId, 16, nullptr));
    NextId += Fill.size();
    SetupTimes.push_back(secondsSince(T0));
    SetupNorm.push_back(SetupTimes.back() / hostProbe() * NominalProbeSeconds);
    account(S, "set-up fill", Rep);
  }

  std::optional<std::map<std::string, double>> Base = daemonStats(Socket);
  uint64_t BaseSent = Client->Sent, BaseReceived = Client->Received;
  uint64_t BaseTier[5];
  std::copy(std::begin(Client->ByTier), std::end(Client->ByTier), BaseTier);

  std::vector<Deferred> Unverified;
  std::vector<uint32_t> RefMisses;
  auto RunPhase = [&](double Rate, double Seconds, const char *Name,
                      std::vector<uint32_t> *Misses) {
    size_t FirstProg = Tr.Programs.size();
    std::vector<Planned> Plan = Tr.plan(Rate, Seconds);
    if (Misses)
      for (size_t P = FirstProg; P < Tr.Programs.size(); ++P)
        Misses->push_back(uint32_t(P));
    PhaseSummary S =
        summarize(Client->run(Tr, Plan, NextId, 0, &Unverified));
    NextId += Plan.size();
    account(S, Name, Rep);
    return S;
  };

  // Warm-up, then back-to-back windows at the reference rate for the
  // whole measured time, so each starts from the state the last one left.
  Clock::time_point Start = Clock::now();
  RunPhase(ReferenceRate, 1.0, "warm-up", nullptr);
  PhaseSummary Ref;
  std::vector<double> Probes, Norm;
  do {
    WakeProbe Wake;
    PhaseSummary Window = RunPhase(ReferenceRate, 1.0, "reference", &RefMisses);
    Probes.push_back(Wake.stop());
    if (Probes.back() <= 0) {
      Rep.fail("wake probe: socket pair round trip failed");
      return Rep;
    }
    // The gate times hot hits, the path the traced ledger breaks down.
    // The fake peer answers every request as a miss.
    const std::vector<double> &Gated = Window.ByTier[TierHot].empty()
                                           ? Window.Latency
                                           : Window.ByTier[TierHot];
    Norm.push_back(quantile(Gated, 0.5) / Probes.back() * NominalWakeSeconds);
    merge(Ref, Window);
  } while (secondsSince(Start) < C.Seconds);
  // Memory at the reference load, after every gated window.
  const double PeakRss = D->peakRss();

  // The rate ladder, not gated, after the gated windows: each rung in
  // turn until one misses the latency limit twice, since one stall of
  // the host over 25 ms fails a half-second rung on its own. The
  // self-test's fake peer analyzes on one thread; it is not load tested.
  double MaxRps = 0;
  uint64_t Rungs = 0;
  for (bool Open = !C.FakePeer; Open && Rungs < std::size(Ladder);) {
    const double Rate = Ladder[Rungs++];
    Open = false;
    for (int Try = 0; Try < 2 && !Open; ++Try) {
      PhaseSummary S = RunPhase(Rate, RungSeconds, "ladder", nullptr);
      // The backlog must not grow: the last quarter of the rung meets
      // the limit as well as the rung as a whole.
      std::vector<double> Tail(S.Latency.begin() + S.Latency.size() * 3 / 4,
                               S.Latency.end());
      Open = S.Lost == 0 &&
             quantile(S.Latency, 0.99) * 1e3 <= LatencyLimitMs &&
             quantile(Tail, 0.9) * 1e3 <= LatencyLimitMs;
      if (Open)
        MaxRps = double(S.Requests) / RungSeconds;
    }
  }

  // Reconcile the client's view with the daemon's own counters.
  std::optional<std::map<std::string, double>> End = daemonStats(Socket);
  if (!Base || !End) {
    Rep.fail("daemon stats reply missing or unparsable");
  } else {
    uint64_t Sent = Client->Sent - BaseSent;
    uint64_t Lost = Sent - (Client->Received - BaseReceived);
    auto Delta = [&](const char *K) {
      return uint64_t((*End)[K] - (*Base)[K]);
    };
    // The end stats request counts itself.
    if (Delta("requests") != Sent + 1)
      Rep.fail("daemon counted " + std::to_string(Delta("requests") - 1) +
               " requests, client sent " + std::to_string(Sent));
    uint64_t Answered =
        Delta("hot_hits") + Delta("cold_hits") + Delta("miss_runs");
    uint64_t Got = (Client->ByTier[TierHot] - BaseTier[TierHot]) +
                   (Client->ByTier[TierCold] - BaseTier[TierCold]) +
                   (Client->ByTier[TierMiss] - BaseTier[TierMiss]);
    int64_t Gap = int64_t(Answered) - int64_t(Got);
    if (Gap > 0)
      Rep.Notes.push_back("daemon answered " + std::to_string(Gap) +
                          " request(s) whose reply never reached the client");
    if (Gap != int64_t(Lost))
      Rep.fail("reconciliation: " + std::to_string(Lost) +
               " lost replies, daemon-side gap " + std::to_string(Gap));
  }
  Client.reset();
  D.reset();
  for (unsigned Round = 0; Round < Rounds; ++Round)
    std::filesystem::remove_all(C.WorkDir + "/cold-" + std::to_string(Round));

  // Misses are checked against their references off the clock.
  for (Deferred &U : Unverified) {
    Program &P = Tr.Programs[U.Prog];
    if (P.ExitPart.empty())
      computeReference(P);
    Tier T = TierNone;
    if (!replyMatches(P, U.Line, U.Pos, T))
      Rep.fail("miss reply differs from runInvocation");
  }

  double Total = double(Ref.Requests);
  double Shares[5];
  for (int T = 0; T < 5; ++T)
    Shares[T] = double(Ref.ByTier[T].size()) / std::max(1.0, Total);
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "reference-rate traffic: %.1f%% hot, %.1f%% cold, %.1f%% miss "
                "(%llu requests, %zu-module working set, hot capacity %zu)",
                Shares[TierHot] * 100, Shares[TierCold] * 100,
                Shares[TierMiss] * 100, (unsigned long long)Ref.Requests,
                Tr.WorkingSet, HotCapacity);
  Rep.Notes.push_back(Buf);

  const double P50 = quantile(Ref.Latency, 0.5) * 1e3;
  const double P99 = quantile(Ref.Latency, 0.99) * 1e3;
  Rep.Readings.push_back({"setup_s", "s", median(SetupTimes),
                          SetupTimes.size()});
  Rep.Readings.push_back({"serve_p50_ms", "ms", P50, Ref.Requests});
  Rep.Readings.push_back({"serve_hot_p50_ms", "ms",
                          quantile(Ref.ByTier[TierHot], 0.5) * 1e3,
                          Ref.ByTier[TierHot].size()});
  Rep.Readings.push_back({"serve_p99_ms", "ms", P99, Ref.Requests});
  Rep.Readings.push_back({"serve_max_rps", "1/s", MaxRps, Rungs});
  Rep.Readings.push_back({"serve_late_p99_ms", "ms",
                          quantile(Ref.Late, 0.99) * 1e3, Ref.Late.size()});
  Rep.Readings.push_back({"wake_probe_us", "us", median(Probes) * 1e6,
                          Probes.size()});
  Rep.Readings.push_back({"peak_rss_mb", "MiB", PeakRss, 1});

  if (!C.Trace) {
    Rep.Metrics.push_back({"setup_s", "s", median(SetupNorm),
                           SetupNorm.size()});
    Rep.Metrics.push_back({"norm_latency_ms", "ms", median(Norm) * 1e3,
                           Norm.size()});
    Rep.Metrics.push_back({"peak_rss_mb", "MiB", PeakRss, 1});
  } else {
    serveLedger(C, Tr, RefMisses, Ref, Rep);
  }
  return Rep;
}

} // namespace perfbench

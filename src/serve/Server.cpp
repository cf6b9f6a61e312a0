//===- Server.cpp - Resident analysis daemon core -------------------------===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Json.h"
#include "support/Stats.h"
#include "support/Version.h"

#include <cerrno>
#include <cmath>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace lna;

Server::Conn::~Conn() {
  if (Fd >= 0)
    ::close(Fd);
}

size_t Server::Conn::send(std::string Reply) {
  Reply += '\n';
  std::lock_guard<std::mutex> Lock(WriteMutex);
  if (Dead.load(std::memory_order_relaxed))
    return 0;
  if (OutHead == Out.size())
    Out = std::move(Reply);
  else
    Out += Reply;
  return flushLocked();
}

size_t Server::Conn::flush() {
  std::lock_guard<std::mutex> Lock(WriteMutex);
  return flushLocked();
}

size_t Server::Conn::queued() {
  std::lock_guard<std::mutex> Lock(WriteMutex);
  return Out.size() - OutHead;
}

size_t Server::Conn::flushLocked() {
  while (OutHead < Out.size()) {
    ssize_t N = ::send(Fd, Out.data() + OutHead, Out.size() - OutHead,
                       MSG_NOSIGNAL);
    if (N > 0) {
      OutHead += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && wouldBlock(errno))
      break; // the rest waits for POLLOUT
    // The peer is gone (EPIPE, ECONNRESET, ...): nothing queued for it
    // can ever be delivered.
    Dead.store(true, std::memory_order_relaxed);
    Out.clear();
    OutHead = 0;
    return 0;
  }
  if (OutHead == Out.size()) {
    Out.clear();
    OutHead = 0;
  } else if (OutHead > (size_t(1) << 16) && OutHead * 2 > Out.size()) {
    Out.erase(0, OutHead);
    OutHead = 0;
  }
  return Out.size() - OutHead;
}

Server::Server(ServerOptions O) : Opts(std::move(O)), Hot(Opts.HotCapacity) {}

Server::~Server() {
  // Drain workers before the connections they hold references to are
  // the last owners of their fds, and before Cold/Journal go away.
  Pool.reset();
  Conns.clear();
  for (int Fd : WakePipe)
    if (Fd >= 0)
      ::close(Fd);
}

bool Server::start(std::string &Error) {
  if (!Opts.EventsOut.empty() && !Journal.open(Opts.EventsOut)) {
    Error = "cannot open events journal '" + Opts.EventsOut + "'";
    return false;
  }
  if (!Opts.CacheDir.empty()) {
    Cold = std::make_unique<CacheStore>(Opts.CacheDir);
    if (!Cold->ok()) {
      Error = "cannot use cache directory '" + Opts.CacheDir + "'";
      return false;
    }
  }
  if (::pipe(WakePipe) != 0) {
    Error = "cannot create wake pipe";
    return false;
  }
  setNonBlocking(WakePipe[0]);
  setNonBlocking(WakePipe[1]);
  if (!Listener.listen(Opts.SocketPath, Error))
    return false;
  setNonBlocking(Listener.fd());
  unsigned Threads = Opts.Threads;
  if (Threads == 0) {
    Threads = std::thread::hardware_concurrency();
    if (Threads == 0)
      Threads = 2;
  }
  Pool = std::make_unique<ThreadPool>(Threads);
  NumThreads = Pool->numThreads();
  StartTime = std::chrono::steady_clock::now();
  Journal.event("serve-start")
      .str("socket", Opts.SocketPath)
      .num("threads", NumThreads)
      .num("hot-capacity", Opts.HotCapacity)
      .str("cache-dir", Opts.CacheDir);
  return true;
}

void Server::wake() {
  // Async-signal-safe; a full pipe already guarantees a wakeup.
  ssize_t Ignored = ::write(WakePipe[1], "x", 1);
  (void)Ignored;
}

void Server::requestStop() {
  StopRequested.store(true, std::memory_order_relaxed);
  wake();
}

int Server::serveForever() {
  std::vector<pollfd> Fds;
  std::vector<std::shared_ptr<Conn>> Polled;
  while (!StopRequested.load(std::memory_order_relaxed)) {
    retireConns();
    Fds.clear();
    Polled.clear();
    Fds.push_back({WakePipe[0], POLLIN, 0});
    Fds.push_back({Listener.fd(), POLLIN, 0});
    for (auto &KV : Conns) {
      Conn &C = *KV.second;
      size_t Queued = C.queued();
      short Events = Queued ? POLLOUT : 0;
      // Backpressure: a client that does not read its replies is not
      // read from either.
      if (!C.ReadClosed.load() && Queued <= Opts.MaxRequestBytes)
        Events |= POLLIN;
      if (!Events)
        continue; // read-closed, waiting on pooled replies
      Fds.push_back({KV.first, Events, 0});
      Polled.push_back(KV.second);
    }
    if (pollRetry(Fds.data(), Fds.size(), -1) < 0)
      break; // poll failed hard; nothing sane left to do
    if (Fds[0].revents) {
      char Buf[64];
      while (::read(WakePipe[0], Buf, sizeof(Buf)) > 0)
        ;
    }
    if (Fds[1].revents & POLLIN) {
      for (;;) {
        int C = Listener.accept();
        if (C < 0)
          break;
        setNonBlocking(C);
        auto NewConn = std::make_shared<Server::Conn>();
        NewConn->Fd = C;
        NewConn->Id = NextConnId++;
        Conns.emplace(C, NewConn);
        Journal.event("conn-open").num("conn", NewConn->Id);
      }
    }
    for (size_t I = 0; I < Polled.size(); ++I) {
      const pollfd &P = Fds[I + 2];
      if (!P.revents)
        continue;
      if ((P.events & POLLOUT) && (P.revents & (POLLOUT | POLLERR | POLLHUP)))
        Polled[I]->flush();
      if ((P.events & POLLIN) && (P.revents & (POLLIN | POLLERR | POLLHUP)))
        handleConnReadable(Polled[I]);
    }
  }

  // Shutdown: stop accepting, let queued requests finish (the pool
  // drains its queue on destruction), deliver what they queued, then
  // drop the connections.
  Listener.close();
  Pool.reset();
  drainQueues();
  uint64_t Served = Requests.load(std::memory_order_relaxed);
  Journal.event("serve-stop").num("requests", Served);
  Conns.clear();
  return 0;
}

void Server::retireConns() {
  for (auto It = Conns.begin(); It != Conns.end();) {
    Conn &C = *It->second;
    // handleConnReadable stores ReadClosed before this loads Pending,
    // and a worker decrements Pending before it loads ReadClosed; both
    // sequentially consistent, so either the connection retires here
    // or that worker wakes the loop to retire it.
    bool Done = C.Dead.load() || (C.ReadClosed.load() &&
                                  C.Pending.load() == 0 && C.queued() == 0);
    if (!Done) {
      ++It;
      continue;
    }
    // A Dead connection may still have pooled requests holding
    // references; the fd closes when the last of them drops, and their
    // writes are no-ops.
    Journal.event("conn-close").num("conn", C.Id);
    It = Conns.erase(It);
  }
}

void Server::drainQueues() {
  // No new requests are read, so the queues only shrink: keep flushing
  // while clients keep reading, and give up once none has taken a byte
  // for a second.
  std::vector<pollfd> Fds;
  std::vector<Conn *> Polled;
  for (;;) {
    Fds.clear();
    Polled.clear();
    for (auto &KV : Conns)
      if (KV.second->queued()) {
        Fds.push_back({KV.first, POLLOUT, 0});
        Polled.push_back(KV.second.get());
      }
    if (Polled.empty() || pollRetry(Fds.data(), Fds.size(), 1000) <= 0)
      return;
    for (size_t I = 0; I < Polled.size(); ++I)
      if (Fds[I].revents)
        Polled[I]->flush();
  }
}

void Server::handleConnReadable(const std::shared_ptr<Conn> &C) {
  bool Open = C->In.fill(C->Fd);
  std::string Line;
  while (C->In.popLine(Line)) {
    auto T0 = std::chrono::steady_clock::now();
    std::optional<Job> Work;
    bool Shutdown = false;
    std::string Reply;
    try {
      Reply = routeLine(Line, Work, Shutdown);
    } catch (...) {
      // A request must never take the poll loop down.
      ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      Reply = "{\"ok\":false,\"error\":\"internal error processing request\"}";
      Work.reset();
    }
    if (Work) {
      C->Pending.fetch_add(1);
      Pool->submit([this, C, J = std::move(*Work)] { handleJob(C, J); });
      continue;
    }
    C->send(std::move(Reply));
    uint64_t Micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
    Journal.event("request").num("conn", C->Id).num("micros", Micros).flag(
        "shutdown", Shutdown);
    if (Shutdown)
      requestStop();
  }
  if (Open && C->In.pending() > Opts.MaxRequestBytes) {
    ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    C->send("{\"ok\":false,\"error\":\"request line exceeds " +
            std::to_string(Opts.MaxRequestBytes) + " bytes\"}");
    Open = false;
  }
  if (!Open)
    C->ReadClosed.store(true); // retired once its replies are out
}

void Server::handleJob(const std::shared_ptr<Conn> &C, const Job &J) {
  // Request-boundary isolation scrub: a pooled thread must enter every
  // request with clean observability slots, whatever earlier work on
  // this thread did. runInvocation's own scopes nest inside; we restore
  // the captured values after so the pool's ambient state (normally
  // nullptr) survives unchanged.
  TraceSink *PrevSink = exchangeThreadTraceSink(nullptr);
  MetricsRegistry *PrevMetrics = exchangeThreadMetrics(nullptr);
  auto T0 = std::chrono::steady_clock::now();
  std::string Reply;
  try {
    Reply = executeJob(J);
  } catch (...) {
    // A request must never take a worker (or, via ThreadPool::wait's
    // rethrow, the daemon) down.
    ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    Reply = "{\"ok\":false,\"error\":\"internal error processing request\"}";
  }
  exchangeThreadTraceSink(PrevSink);
  exchangeThreadMetrics(PrevMetrics);
  uint64_t Micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
  bool Queued = C->send(std::move(Reply)) != 0;
  Journal.event("request").num("conn", C->Id).num("micros", Micros).flag(
      "shutdown", false);
  // The poll loop must learn about bytes only POLLOUT can flush, and
  // about a read-closed connection whose last reply just went out.
  bool Last = C->Pending.fetch_sub(1) == 1;
  if (Queued || (Last && C->ReadClosed.load()))
    wake();
}

namespace {

/// The reply's "id" echo ("" when the request carried none). Strings
/// echo as strings, integral numbers as integers; anything else is
/// treated as absent.
std::string idPrefix(const JsonValue &Req) {
  const JsonValue *Id = Req.field("id");
  if (!Id)
    return "";
  if (const std::string *S = Id->asString())
    return "\"id\":\"" + jsonEscape(*S) + "\",";
  if (std::optional<double> N = Id->asNumber()) {
    double I;
    if (std::modf(*N, &I) == 0.0 && I >= -9.0e15 && I <= 9.0e15)
      return "\"id\":" + std::to_string(static_cast<long long>(I)) + ",";
  }
  return "";
}

std::string errorReply(const std::string &IdField, const std::string &Msg) {
  return "{" + IdField + "\"ok\":false,\"error\":\"" + jsonEscape(Msg) + "\"}";
}

std::string resultReply(const std::string &IdField, const std::string &Tail) {
  std::string Reply = "{";
  Reply.reserve(IdField.size() + Tail.size() + 16);
  Reply += IdField;
  Reply += "\"ok\":true,";
  Reply += Tail;
  return Reply;
}

} // namespace

std::string Server::routeLine(const std::string &Line,
                              std::optional<Job> &Work, bool &Shutdown) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  std::optional<JsonValue> Req = JsonValue::parse(Line);
  if (!Req || Req->kind() != JsonValue::Kind::Object) {
    ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    return errorReply("", "malformed request (one JSON object per line)");
  }
  std::string IdField = idPrefix(*Req);
  const JsonValue *Cmd = Req->field("cmd");
  const std::string *CmdStr = Cmd ? Cmd->asString() : nullptr;
  if (!CmdStr) {
    ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    return errorReply(IdField, "missing 'cmd'");
  }
  if (*CmdStr == "stats")
    return statsReply(IdField);
  if (*CmdStr == "shutdown") {
    Shutdown = true;
    return "{" + IdField + "\"ok\":true,\"shutdown\":true}";
  }
  if (*CmdStr == "analyze" || *CmdStr == "infer" || *CmdStr == "explain")
    return routeAnalyzeCmd(IdField, *CmdStr, *Req, Work);
  ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
  return errorReply(IdField, "unknown cmd '" + *CmdStr +
                                 "' (expected analyze/infer/explain/stats/"
                                 "shutdown)");
}

std::string Server::routeAnalyzeCmd(const std::string &IdField,
                                    const std::string &Cmd,
                                    const JsonValue &Req,
                                    std::optional<Job> &Work) {
  const JsonValue *Src = Req.field("source");
  const std::string *Source = Src ? Src->asString() : nullptr;
  if (!Source) {
    ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    return errorReply(IdField, "missing 'source' (the program text)");
  }

  InvocationArgParser Parser;
  Parser.AllowPositional = false;
  Parser.AllowFileOutputs = false;
  std::string ParseErr;
  // The cmd aliases are plain flag injections, so "infer"/"explain"
  // cannot drift from what the CLI flags mean.
  if (Cmd == "infer")
    Parser.parse("--infer", ParseErr);
  else if (Cmd == "explain")
    Parser.parse("--explain", ParseErr);
  if (const JsonValue *Flags = Req.field("flags")) {
    const std::vector<JsonValue> *Arr = Flags->asArray();
    if (!Arr) {
      ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      return errorReply(IdField, "'flags' must be an array of strings");
    }
    for (const JsonValue &F : *Arr) {
      const std::string *Flag = F.asString();
      if (!Flag) {
        ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
        return errorReply(IdField, "'flags' must be an array of strings");
      }
      if (int Status = Parser.parse(*Flag, ParseErr)) {
        ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
        return "{" + IdField + "\"ok\":false,\"exit\":" +
               std::to_string(Status) + ",\"error\":\"" +
               jsonEscape(ParseErr) + "\"}";
      }
    }
  }
  InvocationOptions &O = Parser.Opts;
  if (!O.Limits.any() && Opts.DefaultLimits.any())
    O.Limits = Opts.DefaultLimits;

  // Same rule as the CLI: live observability output is never cached
  // (hot or cold) -- replaying would fabricate timings. Such runs keep
  // an empty key.
  std::string Key;
  if (!bypassesResultCache(O)) {
    Key = invocationKey(O, *Source);
    if (HotStore::Reply Hit = Hot.get(Key)) {
      HotHits.fetch_add(1, std::memory_order_relaxed);
      return resultReply(IdField, *Hit);
    }
  }
  Work.emplace(Job{IdField, std::move(O), *Source, std::move(Key)});
  return "";
}

std::string Server::executeJob(const Job &J) {
  if (J.Key.empty()) {
    InvocationResult R = runInvocation(J.Opts, J.Source);
    BypassRuns.fetch_add(1, std::memory_order_relaxed);
    return resultReply(J.IdField, encodeReplyTail(R, "bypass"));
  }
  // An identical miss queued ahead of this one may have published the
  // key since the poll thread probed.
  if (HotStore::Reply Hit = Hot.get(J.Key)) {
    HotHits.fetch_add(1, std::memory_order_relaxed);
    return resultReply(J.IdField, *Hit);
  }
  if (Cold) {
    if (std::optional<std::string> Entry = Cold->load(J.Key)) {
      InvocationResult Decoded;
      if (decodeInvocation(*Entry, Decoded)) {
        Hot.put(J.Key, Decoded);
        ColdHits.fetch_add(1, std::memory_order_relaxed);
        return resultReply(J.IdField, encodeReplyTail(Decoded, "cold"));
      }
      Cold->noteSemanticStale();
    }
  }
  InvocationResult R = runInvocation(J.Opts, J.Source);
  MissRuns.fetch_add(1, std::memory_order_relaxed);
  if (invocationCacheable(R.Exit)) {
    if (Cold)
      Cold->store(J.Key, encodeInvocation(R));
    Hot.put(J.Key, R);
  }
  return resultReply(J.IdField, encodeReplyTail(R, "miss"));
}

std::string Server::statsReply(const std::string &IdField) const {
  uint64_t UptimeUs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - StartTime)
          .count());
  std::string S = "{" + IdField + "\"ok\":true,\"stats\":{";
  S += "\"version\":\"";
  S += jsonEscape(AnalyzerVersion);
  S += "\",\"requests\":" + std::to_string(Requests.load());
  S += ",\"hot_hits\":" + std::to_string(HotHits.load());
  S += ",\"cold_hits\":" + std::to_string(ColdHits.load());
  S += ",\"miss_runs\":" + std::to_string(MissRuns.load());
  S += ",\"bypass_runs\":" + std::to_string(BypassRuns.load());
  S += ",\"protocol_errors\":" + std::to_string(ProtocolErrors.load());
  S += ",\"hot_entries\":" + std::to_string(Hot.size());
  S += ",\"hot_evictions\":" + std::to_string(Hot.evictions());
  S += ",\"threads\":" + std::to_string(NumThreads);
  S += ",\"uptime_us\":" + std::to_string(UptimeUs);
  if (Cold) {
    S += ",\"cold\":{\"hits\":" + std::to_string(Cold->hits());
    S += ",\"misses\":" + std::to_string(Cold->misses());
    S += ",\"stale\":" + std::to_string(Cold->stale());
    S += ",\"store_failures\":" + std::to_string(Cold->storeFailures());
    S += ",\"swept_temps\":" + std::to_string(Cold->sweptTempFiles());
    S += "}";
  } else {
    S += ",\"cold\":null";
  }
  S += "}}";
  return S;
}

//===- Server.h - Resident analysis daemon core ---------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine behind tools/lna-serve: a resident analysis service on a
/// Unix-domain socket. One JSON request per line, one JSON reply per
/// line (order not guaranteed across concurrent requests on one
/// connection -- replies echo the request's "id" for correlation).
///
/// Requests:
///
///   {"id":"r1","cmd":"analyze","source":"<program>","flags":[...]}
///   {"id":"r2","cmd":"infer",  "source":..., "flags":[...]}   forces --infer
///   {"id":"r3","cmd":"explain","source":..., "flags":[...]}   forces --explain
///   {"cmd":"stats"}                                           server stats
///   {"cmd":"shutdown"}                                        graceful stop
///
/// "flags" is the lna-analyze flag language verbatim, minus positional
/// files, --cache-dir, and server-side file outputs (--trace-out and
/// FILE targets of --stats-json/--metrics-out; their '-' in-band forms
/// stay allowed). Replies:
///
///   {"id":"r1","ok":true,"exit":0,"cache":"hot","out":"...","err":"..."}
///   {"id":"r4","ok":false,"error":"..."}           protocol-level failure
///
/// "exit"/"out"/"err" are byte-identical to running `lna-analyze
/// <flags> <file>` on the same source: both faces run the same
/// runInvocation() (serve/Invocation.h). "cache" says how the answer
/// was produced: "hot" (in-memory LRU of finished invocations, content
/// addressed -- an unchanged module is answered without re-parsing or
/// re-solving, an edited one hashes to a new key and invalidates only
/// itself), "cold" (the on-disk CacheStore shared with the CLI's
/// --cache-dir), "miss" (analyzed live, then published to both tiers),
/// or "bypass" (live observability flags; never cached, exactly like
/// the CLI).
///
/// Concurrency. The main thread owns poll(2) over the listener, a
/// self-pipe (signals, shutdown, worker wake-ups) and every connection.
/// Which thread answers a request:
///
///  - The poll thread decodes every complete line exactly once: JSON
///    parse, the flag parser, invocationKey(), and a HotStore probe.
///    It answers on the spot whatever needs no analysis and no file
///    I/O -- hot-tier hits, protocol and flag errors, "stats" and
///    "shutdown" -- so a hot hit is client -> poll thread -> client,
///    with no pool hand-off.
///  - Everything else goes to a support/ThreadPool worker together
///    with the decoded request (options, key, id echo), so nothing is
///    parsed or hashed twice: cold-tier hits (file I/O), misses (live
///    analysis, then publication to both tiers) and "bypass" runs. A
///    worker re-probes the hot tier first, since an identical miss
///    queued ahead of it may have published the key meanwhile. Each
///    pooled request runs under its own ResourceBudget/TraceSink/
///    MetricsRegistry via the thread-local scopes inside
///    runInvocation(), and the worker scrubs the thread's obs slots
///    around it (exchangeThreadTraceSink / exchangeThreadMetrics), so
///    pooled threads give every request fresh-process isolation.
///
/// Who writes: any thread that finishes a reply, poll thread or
/// worker. Each connection has an outbound byte queue under its
/// WriteMutex; a writer appends its framed reply and writes whatever
/// the non-blocking socket accepts. On EAGAIN the rest stays queued; a
/// worker that leaves bytes queued wakes the poll loop through the
/// self-pipe, and the loop polls that fd for POLLOUT and flushes it.
/// Whole replies are appended under the lock, so replies never
/// interleave on the wire. Only a hard write error (EPIPE, ECONNRESET)
/// marks a connection Dead and drops its queue.
///
/// Backpressure: while a connection's queued bytes exceed
/// MaxRequestBytes the loop stops polling it for POLLIN, so a client
/// that pipelines without reading is throttled by its own socket
/// buffers instead of growing the daemon's memory.
///
/// Lifetime: a connection whose peer sent EOF stays open until its
/// pooled requests have replied and its queue has drained (a
/// half-closed client still gets every reply). Connections are
/// shared_ptr-managed: the poll loop drops its reference when it
/// retires one, but the fd closes only when the last queued worker
/// drops its reference -- a late reply writes into a Dead connection
/// (a no-op), never into a recycled fd.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_SERVE_SERVER_H
#define LNA_SERVE_SERVER_H

#include "cache/CacheStore.h"
#include "obs/EventJournal.h"
#include "serve/HotStore.h"
#include "serve/Invocation.h"
#include "serve/Json.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>

namespace lna {

struct ServerOptions {
  std::string SocketPath;
  /// Cold tier directory ('' = hot tier only).
  std::string CacheDir;
  /// Worker threads; 0 = hardware concurrency.
  unsigned Threads = 0;
  /// Hot-tier capacity in finished invocations.
  size_t HotCapacity = 128;
  /// JSONL lifecycle journal ('' = off).
  std::string EventsOut;
  /// Default per-request budget, applied when a request sets no budget
  /// flag of its own. Changes the invocation key exactly like the
  /// corresponding CLI flags would.
  ResourceLimits DefaultLimits;
  /// A request line larger than this is a protocol error (the
  /// connection is dropped after an error reply).
  size_t MaxRequestBytes = 32u << 20;
};

/// The resident daemon. start() binds the socket; serveForever() runs
/// the poll loop until a shutdown request or requestStop().
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds/listens, opens the cold store and the journal. False (with
  /// \p Error set) when the socket cannot be bound or the cache
  /// directory is unusable.
  bool start(std::string &Error);

  /// Accept/dispatch loop; returns the daemon exit status (0 on a
  /// clean shutdown). Call start() first.
  int serveForever();

  /// Asks the loop to stop; async-signal-safe (one write to a
  /// self-pipe), so signal handlers may call it.
  void requestStop();

  const ServerOptions &options() const { return Opts; }

private:
  struct Conn {
    int Fd = -1;
    uint64_t Id = 0;
    LineBuffer In; ///< poll thread only
    std::mutex WriteMutex;
    /// Framed reply bytes the socket has not taken yet; [OutHead, end)
    /// is pending (WriteMutex).
    std::string Out;
    size_t OutHead = 0;
    /// Requests handed to the pool whose reply is not queued yet.
    std::atomic<unsigned> Pending{0};
    /// The peer sent EOF (or the read side failed): read no more.
    std::atomic<bool> ReadClosed{false};
    /// A hard write error: the peer is gone, replies are dropped.
    std::atomic<bool> Dead{false};
    ~Conn();

    /// Appends one reply (the '\n' is added here) and writes what the
    /// socket accepts. Returns the bytes left queued.
    size_t send(std::string Reply);
    /// Writes queued bytes until the socket would block. Returns the
    /// bytes left queued.
    size_t flush();
    size_t queued();

  private:
    size_t flushLocked();
  };

  /// An analyze/infer/explain request the poll thread decoded but could
  /// not answer from the hot tier.
  struct Job {
    std::string IdField; ///< the reply's "id" echo
    InvocationOptions Opts;
    std::string Source;
    std::string Key; ///< invocation key; empty for a bypass run
  };

  void handleConnReadable(const std::shared_ptr<Conn> &C);
  /// Poll-thread half of one line: decodes it and either returns the
  /// reply, or fills \p Work and returns "". Sets \p Shutdown for
  /// "shutdown".
  std::string routeLine(const std::string &Line, std::optional<Job> &Work,
                        bool &Shutdown);
  std::string routeAnalyzeCmd(const std::string &IdField,
                              const std::string &Cmd, const JsonValue &Req,
                              std::optional<Job> &Work);
  /// Worker-thread entry: run one decoded request, queue its reply.
  void handleJob(const std::shared_ptr<Conn> &C, const Job &J);
  /// Cold tier, live analysis or bypass run for one decoded request.
  std::string executeJob(const Job &J);
  std::string statsReply(const std::string &IdField) const;
  /// Retires connections that are Dead, or read-closed with nothing
  /// pending or queued.
  void retireConns();
  /// Flushes queued replies until every queue is empty or no client
  /// has taken a byte for a second.
  void drainQueues();
  /// Wakes the poll loop (async-signal-safe).
  void wake();

  ServerOptions Opts;
  UnixListener Listener;
  std::unique_ptr<CacheStore> Cold;
  HotStore Hot;
  std::unique_ptr<ThreadPool> Pool;
  unsigned NumThreads = 0; ///< set once by start()
  EventJournal Journal;
  int WakePipe[2] = {-1, -1}; ///< self-pipe: [0] polled, [1] written
  std::atomic<bool> StopRequested{false};
  std::map<int, std::shared_ptr<Conn>> Conns; ///< poll loop only
  uint64_t NextConnId = 1;
  std::chrono::steady_clock::time_point StartTime;

  // Served-request accounting (poll thread and workers bump; stats
  // reads).
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> HotHits{0};
  std::atomic<uint64_t> ColdHits{0};
  std::atomic<uint64_t> MissRuns{0};
  std::atomic<uint64_t> BypassRuns{0};
  std::atomic<uint64_t> ProtocolErrors{0};
};

} // namespace lna

#endif // LNA_SERVE_SERVER_H

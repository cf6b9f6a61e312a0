//===- SupportTest.cpp - Support library unit tests -----------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/Rng.h"
#include "support/Socket.h"
#include "support/SourceLoc.h"
#include "support/StringInterner.h"
#include "support/Subprocess.h"
#include "support/ThreadPool.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace lna;

//===----------------------------------------------------------------------===//
// UnionFind
//===----------------------------------------------------------------------===//

TEST(UnionFind, SingletonsAreTheirOwnReps) {
  UnionFind UF;
  uint32_t A = UF.makeElement();
  uint32_t B = UF.makeElement();
  EXPECT_EQ(UF.find(A), A);
  EXPECT_EQ(UF.find(B), B);
  EXPECT_FALSE(UF.equivalent(A, B));
}

TEST(UnionFind, UnifyMergesClasses) {
  UnionFind UF;
  uint32_t A = UF.makeElement();
  uint32_t B = UF.makeElement();
  uint32_t C = UF.makeElement();
  UF.unify(A, B);
  EXPECT_TRUE(UF.equivalent(A, B));
  EXPECT_FALSE(UF.equivalent(A, C));
  UF.unify(B, C);
  EXPECT_TRUE(UF.equivalent(A, C));
}

TEST(UnionFind, UnifyIsIdempotent) {
  UnionFind UF;
  uint32_t A = UF.makeElement();
  uint32_t B = UF.makeElement();
  UF.unify(A, B);
  uint32_t Merges = UF.numMerges();
  UF.unify(A, B);
  UF.unify(B, A);
  EXPECT_EQ(UF.numMerges(), Merges);
}

TEST(UnionFind, RepresentativeIsStableWithinClass) {
  UnionFind UF;
  std::vector<uint32_t> Elems;
  for (int I = 0; I < 100; ++I)
    Elems.push_back(UF.makeElement());
  for (int I = 1; I < 100; ++I)
    UF.unify(Elems[0], Elems[I]);
  uint32_t Rep = UF.find(Elems[0]);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(UF.find(Elems[I]), Rep);
  EXPECT_EQ(UF.numMerges(), 99u);
}

TEST(UnionFind, ChainUnifyProducesOneClass) {
  UnionFind UF;
  std::vector<uint32_t> Elems;
  for (int I = 0; I < 64; ++I)
    Elems.push_back(UF.makeElement());
  for (int I = 0; I + 1 < 64; ++I)
    UF.unify(Elems[I], Elems[I + 1]);
  std::set<uint32_t> Reps;
  for (uint32_t E : Elems)
    Reps.insert(UF.find(E));
  EXPECT_EQ(Reps.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(Arena, AllocationsAreAligned) {
  // Odd sizes keep the bump offset misaligned, and ~1.5 MiB in total
  // crosses many slab boundaries (including fresh slabs whose base is
  // only 16-byte aligned) at every alignment up to 64.
  Arena A;
  for (int Round = 0; Round < 400; ++Round)
    for (size_t Align : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      size_t Size = 3 + (Round * 7 + Align * 13) % 1021;
      void *P = A.allocate(Size, Align);
      ASSERT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u)
          << "size " << Size << " align " << Align << " round " << Round;
    }
  // Slab-sized requests take the fresh-slab path directly.
  for (size_t Align : {32u, 64u}) {
    void *P = A.allocate(64 * 1024, Align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u) << Align;
  }
}

TEST(Arena, CreateConstructsObjects) {
  Arena A;
  struct Pair {
    int X, Y;
  };
  Pair *P = A.create<Pair>(Pair{3, 4});
  EXPECT_EQ(P->X, 3);
  EXPECT_EQ(P->Y, 4);
}

TEST(Arena, LargeAllocationsGetOwnSlab) {
  Arena A;
  void *P = A.allocate(1 << 20, 8);
  ASSERT_NE(P, nullptr);
  // Earlier and later small allocations still work.
  void *Q = A.allocate(16, 8);
  ASSERT_NE(Q, nullptr);
  EXPECT_GE(A.bytesAllocated(), (1u << 20) + 16u);
}

TEST(Arena, ObjectsDoNotOverlap) {
  Arena A;
  std::vector<int *> Ptrs;
  for (int I = 0; I < 1000; ++I) {
    int *P = A.create<int>(I);
    Ptrs.push_back(P);
  }
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(*Ptrs[I], I);
}

TEST(Arena, ByteLimitAbortsWithMemoryCap) {
  Arena A;
  A.setByteLimit(64);
  void *P = A.allocate(32, 8);
  ASSERT_NE(P, nullptr);
  try {
    A.allocate(64, 8); // 32 + 64 > 64
    FAIL() << "expected AnalysisAbort";
  } catch (const AnalysisAbort &Abort) {
    EXPECT_EQ(Abort.kind(), FailureKind::MemoryCap);
    EXPECT_NE(std::string(Abort.what()).find("byte cap"), std::string::npos);
  }
  // The arena stays usable under its cap after a rejected request.
  EXPECT_NE(A.allocate(16, 8), nullptr);
}

TEST(Arena, ZeroByteLimitMeansUnlimited) {
  Arena A;
  A.setByteLimit(16);
  A.setByteLimit(0);
  EXPECT_NE(A.allocate(1024, 8), nullptr);
}

TEST(Arena, OversizeSingleAllocationIsRejected) {
  Arena A;
  try {
    // Far beyond the single-allocation cap: rejected up front instead
    // of tripping size arithmetic.
    A.allocate(size_t(1) << 40, 8);
    FAIL() << "expected AnalysisAbort";
  } catch (const AnalysisAbort &Abort) {
    EXPECT_EQ(Abort.kind(), FailureKind::MemoryCap);
  }
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, WorkerExceptionSurfacesOnWait) {
  ThreadPool Pool(2);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 8; ++I)
    Pool.submit([&Ran] { ++Ran; });
  Pool.submit([] { throw std::runtime_error("worker blew up"); });
  try {
    Pool.wait();
    FAIL() << "expected the worker exception to rethrow on wait()";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "worker blew up");
  }
  // The error is consumed: the pool remains usable and a later wait()
  // with only healthy tasks succeeds.
  Pool.submit([&Ran] { ++Ran; });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 9);
}

TEST(ThreadPool, FirstOfSeveralExceptionsWins) {
  ThreadPool Pool(1); // serial: deterministic ordering of failures
  Pool.submit([] { throw std::runtime_error("first"); });
  Pool.submit([] { throw std::runtime_error("second"); });
  try {
    Pool.wait();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "first");
  }
}

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

TEST(StringInterner, SameTextSameSymbol) {
  StringInterner SI;
  Symbol A = SI.intern("spin_lock");
  Symbol B = SI.intern("spin_lock");
  EXPECT_EQ(A, B);
}

TEST(StringInterner, DifferentTextDifferentSymbol) {
  StringInterner SI;
  EXPECT_NE(SI.intern("a"), SI.intern("b"));
}

TEST(StringInterner, EmptySymbolIsReserved) {
  StringInterner SI;
  Symbol S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(SI.intern(""), S);
  EXPECT_EQ(SI.text(S), "");
}

TEST(StringInterner, TextRoundTrips) {
  StringInterner SI;
  Symbol A = SI.intern("do_with_lock");
  EXPECT_EQ(SI.text(A), "do_with_lock");
}

TEST(StringInterner, ReferencesStayValidAcrossGrowth) {
  StringInterner SI;
  Symbol First = SI.intern("first");
  const std::string &Ref = SI.text(First);
  for (int I = 0; I < 10000; ++I)
    SI.intern("sym" + std::to_string(I));
  EXPECT_EQ(Ref, "first"); // deque storage: no reallocation of elements
  EXPECT_EQ(SI.size(), 10002u);
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(Rng, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(Rng, RangeIsInclusive) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.range(3, 5);
    EXPECT_GE(V, 3u);
    EXPECT_LE(V, 5u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 3u); // all three values occur
}

TEST(Rng, ChanceExtremes) {
  Rng R(11);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(R.chance(0, 10));
    EXPECT_TRUE(R.chance(10, 10));
  }
}

//===----------------------------------------------------------------------===//
// Diagnostics / SourceLoc
//===----------------------------------------------------------------------===//

TEST(Diagnostics, ErrorsAreCounted) {
  Diagnostics D;
  EXPECT_FALSE(D.hasErrors());
  D.warning({1, 1}, "w");
  EXPECT_FALSE(D.hasErrors());
  D.error({2, 3}, "e");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
}

TEST(Diagnostics, RenderIncludesSeverityAndLocation) {
  Diagnostics D;
  D.error({4, 7}, "unexpected token");
  D.note({}, "see here");
  std::string R = D.render();
  EXPECT_NE(R.find("error 4:7: unexpected token"), std::string::npos);
  EXPECT_NE(R.find("note <unknown>: see here"), std::string::npos);
}

TEST(Diagnostics, ClearResets) {
  Diagnostics D;
  D.error({1, 1}, "e");
  D.clear();
  EXPECT_FALSE(D.hasErrors());
  EXPECT_TRUE(D.all().empty());
}

TEST(SourceLoc, OrderingIsLineThenColumn) {
  SourceLoc A{1, 9};
  SourceLoc B{2, 1};
  SourceLoc C{2, 5};
  EXPECT_TRUE(A < B);
  EXPECT_TRUE(B < C);
  EXPECT_FALSE(C < A);
}

TEST(SourceLoc, InvalidRendersUnknown) {
  EXPECT_EQ(toString(SourceLoc{}), "<unknown>");
  EXPECT_EQ(toString(SourceLoc{3, 14}), "3:14");
}

//===----------------------------------------------------------------------===//
// Socket substrate: EINTR, partial reads, short writes (the conditions
// the lna-serve wire protocol must survive)
//===----------------------------------------------------------------------===//

namespace {

// A sigaction-installed no-op handler WITHOUT SA_RESTART, so blocking
// syscalls on this thread genuinely return EINTR instead of resuming.
void installInterruptingHandler(int Sig) {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = [](int) {};
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // no SA_RESTART: read(2) must see EINTR
  ASSERT_EQ(::sigaction(Sig, &SA, nullptr), 0);
}

} // namespace

TEST(Socket, ReadLineBlockingSurvivesEintrStorm) {
  installInterruptingHandler(SIGUSR1);
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);

  pthread_t Reader = pthread_self();
  std::atomic<bool> StopSignals{false};
  // One thread peppers the blocked reader with signals while another
  // dribbles the line out a few bytes at a time: every read(2) below
  // faces both EINTR and short reads, and readLineBlocking must hide
  // both.
  std::thread Signaler([&] {
    while (!StopSignals.load()) {
      pthread_kill(Reader, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread Writer([&] {
    const char *Msg = "hello from the other side\nsecond\n";
    for (const char *P = Msg; *P; ++P) {
      ASSERT_EQ(::write(Fds[1], P, 1), 1);
      if (*P == ' ')
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::close(Fds[1]);
  });

  std::string Carry, Line;
  EXPECT_TRUE(readLineBlocking(Fds[0], Carry, Line));
  EXPECT_EQ(Line, "hello from the other side");
  EXPECT_TRUE(readLineBlocking(Fds[0], Carry, Line));
  EXPECT_EQ(Line, "second");
  // EOF with no trailing newline is a clean false, not a hang.
  EXPECT_FALSE(readLineBlocking(Fds[0], Carry, Line));

  StopSignals = true;
  Signaler.join();
  Writer.join();
  ::close(Fds[0]);
}

TEST(Socket, WriteAllCompletesUnderInjectedShortWrites) {
  ignoreSigPipe();
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);

  // 64 KiB through a 7-byte-per-write(2) straw: the continuation path
  // that real sockets exercise only under buffer pressure.
  std::string Payload;
  for (int I = 0; I < 64 * 1024; ++I)
    Payload.push_back(static_cast<char>('a' + I % 26));

  std::string Received;
  std::thread Reader([&] {
    std::string Chunk;
    while (true) {
      long N = readSome(Pair[1], Chunk);
      if (N <= 0)
        break;
    }
    Received = std::move(Chunk);
  });

  lna::detail::WriteChunkCapForTesting.store(7);
  bool Ok = writeAll(Pair[0], Payload);
  lna::detail::WriteChunkCapForTesting.store(0);
  EXPECT_TRUE(Ok);
  ::close(Pair[0]); // EOF for the reader
  Reader.join();
  EXPECT_EQ(Received, Payload);
  ::close(Pair[1]);
}

TEST(Socket, WriteAllReportsPeerHangup) {
  ignoreSigPipe();
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  ::close(Pair[1]);
  std::string Big(1 << 20, 'x');
  // EPIPE must surface as false (SIGPIPE is ignored process-wide).
  EXPECT_FALSE(writeAll(Pair[0], Big));
  ::close(Pair[0]);
}

TEST(Socket, LineBufferReassemblesArbitraryFragments) {
  LineBuffer LB;
  std::string Line;
  EXPECT_FALSE(LB.popLine(Line));
  LB.feed("ab");
  EXPECT_FALSE(LB.popLine(Line)); // incomplete
  LB.feed("c\nde");
  EXPECT_TRUE(LB.popLine(Line));
  EXPECT_EQ(Line, "abc");
  EXPECT_FALSE(LB.popLine(Line));
  LB.feed("f\n\n");
  EXPECT_TRUE(LB.popLine(Line));
  EXPECT_EQ(Line, "def");
  EXPECT_TRUE(LB.popLine(Line));
  EXPECT_EQ(Line, ""); // empty lines are real lines
  EXPECT_FALSE(LB.popLine(Line));
  EXPECT_EQ(LB.pending(), 0u);
}

TEST(Socket, LineBufferFillHandlesNonblockingAndEof) {
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  ASSERT_TRUE(setNonBlocking(Pair[0]));

  LineBuffer LB;
  std::string Line;
  // Nothing pending: fill() would block, which is "still open".
  EXPECT_TRUE(LB.fill(Pair[0]));
  EXPECT_FALSE(LB.popLine(Line));

  ASSERT_TRUE(writeAll(Pair[1], "first\nsec"));
  EXPECT_TRUE(LB.fill(Pair[0]));
  EXPECT_TRUE(LB.popLine(Line));
  EXPECT_EQ(Line, "first");
  EXPECT_FALSE(LB.popLine(Line)); // "sec" still incomplete

  ASSERT_TRUE(writeAll(Pair[1], "ond\n"));
  ::close(Pair[1]);
  // The final fill drains "ond\n" and then sees EOF.
  EXPECT_FALSE(LB.fill(Pair[0]));
  EXPECT_TRUE(LB.popLine(Line));
  EXPECT_EQ(Line, "second");
  ::close(Pair[0]);
}

TEST(Socket, ListenerAcceptsAndUnlinksOnClose) {
  std::string Path = testing::TempDir() + "lna_sock_unit.sock";
  ::unlink(Path.c_str());
  UnixListener L;
  std::string Error;
  ASSERT_TRUE(L.listen(Path, Error)) << Error;

  std::string ConnErr;
  int Client = connectUnix(Path, ConnErr);
  ASSERT_GE(Client, 0) << ConnErr;
  int Served = L.accept();
  ASSERT_GE(Served, 0);

  ASSERT_TRUE(writeAll(Client, "ping\n"));
  std::string Carry, Line;
  ASSERT_TRUE(readLineBlocking(Served, Carry, Line));
  EXPECT_EQ(Line, "ping");

  ::close(Client);
  ::close(Served);
  L.close();
  EXPECT_NE(::access(Path.c_str(), F_OK), 0)
      << "socket file must be unlinked on close";
}

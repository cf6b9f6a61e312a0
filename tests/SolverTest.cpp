//===- SolverTest.cpp - Solver hot-path optimization tests ----*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The guarantees the solver speed pass makes and keeps:
//
//  * Histogram::quantile at its edges (the metrics the pass is measured
//    by must themselves be trustworthy): empty histograms, Q = 1.0, and
//    the saturated bucket 64 holding UINT64_MAX.
//  * SmallElemSet behaves exactly like a reference set under randomized
//    operation sequences across the inline -> spilled boundary.
//  * SCC pre-collapse is invisible: on the final graph of every session
//    -- constructed cyclic systems, every committed fixture and
//    regression reproducer, and the generated corpus, in both pipeline
//    modes under both alias backends -- membership in the propagated
//    least solution, the collapsed CHECK-SAT walk, and explainReach's
//    uncollapsed traversal of the raw constraint graph all agree.
//  * The flat constraint storage is invisible: constraints added out of
//    variable order solve, answer CHECK-SAT, and explain exactly like the
//    same constraints added variable by variable; constraints added
//    after a query are seen by the next one; the out-degree metric
//    matches a hand count.
//  * The multi-target escape query agrees with one query per target and
//    keeps the effect kinds apart at intersections.
//  * Location unification mid-solve reaches intersections whose operand
//    is a constant element.
//  * Each intersection has a driving and a passive side: an element
//    reaching the passive side is tested only against the intersections
//    whose driving side already holds it. Either side may arrive first,
//    in the same round or a later one, across a location unify, with a
//    union on the driving side or an element operand flipping it; a
//    shared set feeding many disjoint bodies costs far fewer operand
//    tests than |set| x |bodies|; and large many-function modules agree
//    with the reference with their solver counters unchanged.
//  * Edges fired by conditionals are folded into the condensation once
//    per firing round, not once per edge: a round of confine?-style
//    failures costs one rebuild, a fired edge that closes a cycle merges
//    at the round's end, elements that reach an edge's source after it
//    fired cross it after the rebuild, and a budget abort mid-round
//    leaves no stale condensation behind for CHECK-SAT to trust.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "corpus/Corpus.h"

#include "effects/ConstraintSystem.h"
#include "effects/SmallElemSet.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Budget.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

using namespace lna;

namespace {

//===----------------------------------------------------------------------===//
// Histogram::quantile edges.
//===----------------------------------------------------------------------===//

TEST(HistogramQuantile, EmptyHistogramIsZeroEverywhere) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.quantile(0.0), 0u);
  EXPECT_EQ(H.quantile(0.5), 0u);
  EXPECT_EQ(H.quantile(1.0), 0u);
}

TEST(HistogramQuantile, QOneClampsToMax) {
  Histogram H;
  for (uint64_t V : {1u, 2u, 3u, 100u})
    H.record(V);
  // Rank 4 lands in the [64,127] bucket whose upper bound (127) must be
  // clamped to the observed max.
  EXPECT_EQ(H.quantile(1.0), 100u);
  // Rank 1 clamps up to the observed min.
  EXPECT_EQ(H.quantile(0.0), 1u);
  // Rank 2 is in the [2,3] bucket: coarse upper bound 3.
  EXPECT_EQ(H.quantile(0.5), 3u);
}

TEST(HistogramQuantile, SingleValueIsEveryQuantile) {
  Histogram H;
  H.record(5);
  EXPECT_EQ(H.quantile(0.0), 5u);
  EXPECT_EQ(H.quantile(0.5), 5u);
  EXPECT_EQ(H.quantile(1.0), 5u);
}

TEST(HistogramQuantile, Bucket64HoldsSaturatedValues) {
  EXPECT_EQ(Histogram::bucketOf(UINT64_MAX), 64u);
  EXPECT_EQ(Histogram::bucketOf(uint64_t(1) << 63), 64u);
  EXPECT_EQ(Histogram::bucketUpperBound(64), UINT64_MAX);
  Histogram H;
  H.record(UINT64_MAX);
  EXPECT_EQ(H.quantile(0.5), UINT64_MAX);
  EXPECT_EQ(H.quantile(1.0), UINT64_MAX);
  // The bucket-64 upper bound still clamps to the observed max.
  Histogram H2;
  H2.record(uint64_t(1) << 63);
  EXPECT_EQ(H2.quantile(1.0), uint64_t(1) << 63);
}

TEST(HistogramQuantile, ZeroAndMaxSpanTheRange) {
  Histogram H;
  H.record(0);
  H.record(UINT64_MAX);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), UINT64_MAX);
  EXPECT_EQ(H.quantile(0.5), 0u);        // rank 1: the zero bucket
  EXPECT_EQ(H.quantile(1.0), UINT64_MAX); // rank 2: bucket 64
}

//===----------------------------------------------------------------------===//
// SmallElemSet equivalence under randomized operations.
//===----------------------------------------------------------------------===//

// Deterministic 64-bit LCG; tests must not depend on std::rand state.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 11;
  }
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }
};

TEST(SmallElemSet, MatchesReferenceSetUnderRandomOps) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Lcg R(Seed * 0x9E3779B97F4A7C15ULL);
    SmallElemSet S;
    std::unordered_set<uint32_t> Ref;
    // Narrow value ranges force collisions and revisit the inline ->
    // spilled boundary; wide ones exercise growth.
    uint32_t Range = Seed % 2 ? 24 : 4096;
    for (int Op = 0; Op < 2000; ++Op) {
      uint32_t V = R.below(Range);
      switch (R.below(8)) {
      case 0: // clear, rarely
        if (R.below(64) == 0) {
          S.clear();
          Ref.clear();
        }
        break;
      case 1: { // probe a random value
        uint32_t P = R.below(Range);
        EXPECT_EQ(S.contains(P), Ref.count(P) != 0);
        break;
      }
      default:
        EXPECT_EQ(S.insert(V), Ref.insert(V).second);
        break;
      }
      ASSERT_EQ(S.size(), Ref.size());
    }
    // Full content check through the iterator.
    std::unordered_set<uint32_t> Seen;
    for (uint32_t E : S) {
      EXPECT_TRUE(Ref.count(E));
      EXPECT_TRUE(Seen.insert(E).second) << "duplicate iteration";
    }
    EXPECT_EQ(Seen.size(), Ref.size());
  }
}

TEST(SmallElemSet, EqualityIsOrderIndependent) {
  Lcg R(42);
  std::vector<uint32_t> Vals;
  for (int I = 0; I < 300; ++I)
    Vals.push_back(R.below(500));
  SmallElemSet A, B;
  for (uint32_t V : Vals)
    A.insert(V);
  for (auto It = Vals.rbegin(); It != Vals.rend(); ++It)
    B.insert(*It);
  EXPECT_TRUE(A == B);
  EXPECT_FALSE(A != B);
  B.insert(100000);
  EXPECT_TRUE(A != B);
}

TEST(SmallElemSet, CopyAndMovePreserveContents) {
  SmallElemSet S;
  for (uint32_t V = 0; V < 100; V += 7)
    S.insert(V);
  SmallElemSet C(S);
  EXPECT_TRUE(C == S);
  SmallElemSet A;
  A.insert(1);
  A = S;
  EXPECT_TRUE(A == S);
  SmallElemSet M(std::move(C));
  EXPECT_TRUE(M == S);
  SmallElemSet M2;
  M2 = std::move(M);
  EXPECT_TRUE(M2 == S);
  // Inline-only copies too (no heap involved).
  SmallElemSet T;
  T.insert(3);
  T.insert(9);
  SmallElemSet T2(T);
  EXPECT_TRUE(T2 == T);
  EXPECT_EQ(T2.size(), 2u);
}

TEST(SmallElemSet, SpillBoundaryIsExact) {
  SmallElemSet S;
  for (uint32_t V = 10; V < 14; ++V) // fills the 4 inline slots
    EXPECT_TRUE(S.insert(V));
  for (uint32_t V = 10; V < 14; ++V) // duplicates never spill
    EXPECT_FALSE(S.insert(V));
  EXPECT_EQ(S.size(), 4u);
  EXPECT_TRUE(S.insert(99)); // 5th distinct element spills to the heap
  EXPECT_EQ(S.size(), 5u);
  for (uint32_t V = 10; V < 14; ++V)
    EXPECT_TRUE(S.contains(V));
  EXPECT_TRUE(S.contains(99));
  EXPECT_FALSE(S.contains(1000));
}

//===----------------------------------------------------------------------===//
// SCC pre-collapse vs the uncollapsed reference.
//===----------------------------------------------------------------------===//

// Checks three-way agreement on a solved system over the (var, canonical
// loc, kind) space, enumerated in a fixed order: every ReachStride-th
// query must have member() == reaches(), and every ExplainStride-th
// checked query must also match explainReach(), the
// breadth-first walk over the uncollapsed variable graph (no condensation,
// no source indexes). Returns how many checked queries were reachable,
// so callers can tell the check was not vacuous.
uint64_t expectThreeWayAgreement(ConstraintSystem &CS, uint64_t ReachStride,
                                 uint64_t ExplainStride,
                                 const std::string &Where) {
  const LocTable &Locs = CS.locs();
  uint64_t Index = 0, Checked = 0, Reachable = 0, Disagreements = 0;
  for (EffVar V = 0; V < CS.numVars(); ++V)
    for (LocId L = 0; L < Locs.size(); ++L) {
      if (Locs.find(L) != L)
        continue;
      for (unsigned KI = 0; KI < 3; ++KI) {
        if (Index++ % ReachStride)
          continue;
        EffectKind K = static_cast<EffectKind>(KI);
        bool Member = CS.member(K, L, V);
        bool Reaches = CS.reaches(K, L, V);
        bool Reference = Checked++ % ExplainStride == 0
                             ? !CS.explainReach(K, L, V).empty()
                             : Reaches;
        Reachable += Reaches;
        if (Member == Reaches && Reaches == Reference)
          continue;
        if (++Disagreements <= 5)
          ADD_FAILURE() << Where << ": kind " << KI << ", loc " << L
                        << ", var " << V << ": member " << Member
                        << ", reaches " << Reaches << ", explainReach "
                        << Reference;
      }
    }
  EXPECT_EQ(Disagreements, 0u) << Where;
  return Reachable;
}

// Builds a constraint graph with two plain-edge cycles, a bridge between
// them, a dangling chain, and an intersection fed by a cycle member --
// every shape the collapse must treat differently.
void buildCyclicSystem(LocTable &Locs, ConstraintSystem &CS) {
  std::vector<LocId> L;
  for (int I = 0; I < 6; ++I)
    L.push_back(Locs.fresh());
  std::vector<EffVar> V;
  for (int I = 0; I < 8; ++I)
    V.push_back(CS.makeVar());
  // Cycle 1: v0 -> v1 -> v2 -> v0.
  CS.addEdge(V[0], V[1]);
  CS.addEdge(V[1], V[2]);
  CS.addEdge(V[2], V[0]);
  // Cycle 2: v3 <-> v4.
  CS.addEdge(V[3], V[4]);
  CS.addEdge(V[4], V[3]);
  // Bridge cycle 1 into cycle 2, then a chain v4 -> v5 -> v6.
  CS.addEdge(V[2], V[3]);
  CS.addEdge(V[4], V[5]);
  CS.addEdge(V[5], V[6]);
  // Seeds.
  CS.addElement(EffectKind::Read, L[0], V[0]);
  CS.addElement(EffectKind::Write, L[1], V[1]);
  CS.addElementAllKinds(L[2], V[3]);
  CS.addElement(EffectKind::Alloc, L[3], V[7]);
  // Intersection: (v0 n {read(l0)}) <= v7 (cycle member feeds it).
  CS.addIntersection(InterOperand::var(V[0]),
                     InterOperand::elem(EffectElem(EffectKind::Read, L[0])),
                     V[7]);
}

TEST(SolverCollapse, CyclicGraphMatchesReference) {
  LocTable Locs;
  ConstraintSystem CS(Locs);
  buildCyclicSystem(Locs, CS);
  CS.solve();
  EXPECT_TRUE(CS.reaches(EffectKind::Read, 0, 6));
  EXPECT_TRUE(CS.reaches(EffectKind::Write, 1, 0));
  EXPECT_FALSE(CS.reaches(EffectKind::Alloc, 3, 0));
  EXPECT_TRUE(CS.member(EffectKind::Read, 0, 7));
  // Every (kind, loc, var) against the uncollapsed reference.
  EXPECT_GT(expectThreeWayAgreement(CS, 1, 1, "cyclic system"), 0u);
}

TEST(SolverCollapse, CycleMembersShareOneSolution) {
  LocTable Locs;
  ConstraintSystem CS(Locs);
  buildCyclicSystem(Locs, CS);
  CS.solve();
  // v0, v1, v2 sit on one plain-edge cycle: equal least solutions.
  EXPECT_TRUE(CS.solution(0) == CS.solution(1));
  EXPECT_TRUE(CS.solution(1) == CS.solution(2));
  // The cycle's solution flowed into the chain tail.
  for (uint32_t E : CS.solution(0))
    EXPECT_TRUE(CS.solution(6).contains(E));
}

//===----------------------------------------------------------------------===//
// Location unification and element intersection operands.
//===----------------------------------------------------------------------===//

// V holds read(l0); (V n {read(l1)}) <= Out; a conditional that fires on
// read(l0) in V unifies l1 with l0. After the unify the intersection's
// element operand *is* read(l0), so read(l0) belongs in sol(Out) -- as
// CHECK-SAT and explainReach already say. Both unify directions, since
// which location survives as the class representative decides whether
// V's own set changes.
TEST(SolverConditional, ElementOperandSeesLocationUnify) {
  for (bool IntoL0 : {true, false}) {
    LocTable Locs;
    ConstraintSystem CS(Locs);
    LocId L0 = Locs.fresh(), L1 = Locs.fresh();
    EffVar V = CS.makeVar(), Out = CS.makeVar(), ConstOut = CS.makeVar();
    CS.addElement(EffectKind::Read, L0, V);
    CS.addIntersection(InterOperand::var(V),
                       InterOperand::elem(EffectElem(EffectKind::Read, L1)),
                       Out);
    // Constant intersection: (read(l0) n read(l1)) <= ConstOut.
    CS.addIntersection(InterOperand::elem(EffectElem(EffectKind::Read, L0)),
                       InterOperand::elem(EffectElem(EffectKind::Read, L1)),
                       ConstOut);
    CondConstraint C;
    C.P = CondConstraint::Premise::LocInVar;
    C.Rho = L0;
    C.Var = V;
    C.Actions.push_back({CondAction::Kind::UnifyLocs, IntoL0 ? L1 : L0,
                         IntoL0 ? L0 : L1});
    CS.addConditional(std::move(C));
    CS.solve();
    ASSERT_TRUE(Locs.sameClass(L0, L1));
    EXPECT_TRUE(CS.reaches(EffectKind::Read, L0, Out));
    EXPECT_TRUE(CS.member(EffectKind::Read, L0, Out)) << "into l0 " << IntoL0;
    EXPECT_TRUE(CS.member(EffectKind::Read, L0, ConstOut))
        << "into l0 " << IntoL0;
    expectThreeWayAgreement(CS, 1, 1,
                            IntoL0 ? "unify into l0" : "unify into l1");
  }
}

//===----------------------------------------------------------------------===//
// Fired edges and the once-per-round condensation rebuild.
//===----------------------------------------------------------------------===//

uint64_t countSpans(const TraceSink &Sink, const char *Name) {
  uint64_t N = 0;
  for (uint64_t I = Sink.oldestIndex(); I < Sink.numTotal(); ++I)
    N += std::strcmp(Sink.spanAt(I).Name, Name) == 0;
  return N;
}

// K optional confine? candidates shaped as Inference.cpp builds them, all
// failing in the first firing round: Body_i holds read(rho_i), so
// "rho_i in L2" holds, and the failure unifies rho_i with rho'_i and adds
// Subject_i <= P_i. Each subject carries a write of its own location,
// and every P_i flows on into one shared sink variable.
struct FailingConfines {
  EffVar Sink;
  std::vector<LocId> SubjectLocs;
};
FailingConfines buildFailingConfines(LocTable &Locs, ConstraintSystem &CS,
                                     unsigned K) {
  FailingConfines F{CS.makeVar(), {}};
  for (unsigned I = 0; I < K; ++I) {
    LocId Rho = Locs.fresh(), RhoPrime = Locs.fresh(), Own = Locs.fresh();
    EffVar Body = CS.makeVar(), Subject = CS.makeVar(), P = CS.makeVar();
    CS.addElement(EffectKind::Read, Rho, Body);
    CS.addElement(EffectKind::Write, Own, Subject);
    CS.addElement(EffectKind::Read, RhoPrime, P);
    CS.addEdge(P, F.Sink);
    F.SubjectLocs.push_back(Own);
    CondConstraint C;
    C.P = CondConstraint::Premise::LocInVar;
    C.Rho = Rho;
    C.Var = Body;
    C.Actions = {{CondAction::Kind::UnifyLocs, Rho, RhoPrime},
                 {CondAction::Kind::AddEdge, Subject, P}};
    CS.addConditional(std::move(C));
  }
  return F;
}

TEST(SolverConditional, FiredEdgesRebuildOncePerRound) {
  constexpr unsigned K = 10;
  LocTable Locs;
  ConstraintSystem CS(Locs);
  FailingConfines F = buildFailingConfines(Locs, CS, K);
  TraceSink Trace;
  {
    TraceScope Scope(Trace);
    CS.solve();
  }
  ASSERT_EQ(Trace.numDropped(), 0u);
  ASSERT_EQ(CS.stats().CondFirings, K);
  // One build before the first round and one per firing round, not one
  // per fired edge.
  EXPECT_LE(countSpans(Trace, "solver-condense"), CS.stats().Rounds + 1);
  // Each subject's write crossed its fired edge and reached the sink.
  for (LocId Own : F.SubjectLocs)
    EXPECT_TRUE(CS.member(EffectKind::Write, Own, F.Sink)) << Own;
  expectThreeWayAgreement(CS, 1, 1, "failing confines");
}

// A -> B -> C -> D are plain edges; a conditional fired by C's solution
// adds C <= A, closing the cycle A, B, C. A second firing in the same
// round inserts a fresh element into B, the middle of the future cycle.
// The round keeps the three separate components; the round-end rebuild
// merges them and re-queues the union, so all three (and D) end with one
// solution.
TEST(SolverConditional, FiredEdgeClosingACycleMergesAtRoundEnd) {
  LocTable Locs;
  ConstraintSystem CS(Locs);
  LocId LA = Locs.fresh(), LB = Locs.fresh(), LC = Locs.fresh(),
        LX = Locs.fresh();
  EffVar A = CS.makeVar(), B = CS.makeVar(), C = CS.makeVar(),
         D = CS.makeVar();
  CS.addEdge(A, B);
  CS.addEdge(B, C);
  CS.addEdge(C, D);
  CS.addElement(EffectKind::Read, LA, A);
  CS.addElement(EffectKind::Write, LB, B);
  CS.addElement(EffectKind::Alloc, LC, C);
  for (CondAction Act : {CondAction{CondAction::Kind::AddEdge, C, A},
                         CondAction{CondAction::Kind::AddElemAllKinds, LX,
                                    B}}) {
    CondConstraint Cond;
    Cond.P = CondConstraint::Premise::LocInVar;
    Cond.Rho = LA;
    Cond.Var = C;
    Cond.Actions.push_back(Act);
    CS.addConditional(std::move(Cond));
  }
  TraceSink Trace;
  {
    TraceScope Scope(Trace);
    CS.solve();
  }
  EXPECT_EQ(CS.stats().CondFirings, 2u);
  EXPECT_LE(countSpans(Trace, "solver-condense"), CS.stats().Rounds + 1);
  EXPECT_TRUE(CS.solution(A) == CS.solution(B));
  EXPECT_TRUE(CS.solution(B) == CS.solution(C));
  EXPECT_TRUE(CS.member(EffectKind::Alloc, LC, A));
  EXPECT_TRUE(CS.member(EffectKind::Read, LX, A));
  EXPECT_TRUE(CS.member(EffectKind::Read, LX, D));
  EXPECT_GT(expectThreeWayAgreement(CS, 1, 1, "cycle-closing edge"), 0u);
}

// Chain A -(fired)-> B -> C. Later in the round that fires A <= B, two
// more firings put elements into A's component: a seed action and a
// second fired edge D <= A. They arrive after A's solution crossed the
// new edge explicitly, so only A's Pending list, carried across the
// round-end rebuild, takes them on to B and C.
TEST(SolverConditional, ElementsAfterAFiredEdgeCrossItAfterTheRebuild) {
  LocTable Locs;
  ConstraintSystem CS(Locs);
  LocId LT = Locs.fresh(), LA = Locs.fresh(), LN = Locs.fresh(),
        LD = Locs.fresh();
  EffVar T = CS.makeVar(), A = CS.makeVar(), B = CS.makeVar(),
         C = CS.makeVar(), D = CS.makeVar();
  CS.addElement(EffectKind::Read, LT, T);
  CS.addElement(EffectKind::Read, LA, A);
  CS.addElement(EffectKind::Write, LD, D);
  CS.addEdge(B, C);
  for (CondAction Act :
       {CondAction{CondAction::Kind::AddEdge, A, B},
        CondAction{CondAction::Kind::AddElemAllKinds, LN, A},
        CondAction{CondAction::Kind::AddEdge, D, A}}) {
    CondConstraint Cond;
    Cond.P = CondConstraint::Premise::LocInVar;
    Cond.Rho = LT;
    Cond.Var = T;
    Cond.Actions.push_back(Act);
    CS.addConditional(std::move(Cond));
  }
  TraceSink Trace;
  {
    TraceScope Scope(Trace);
    CS.solve();
  }
  EXPECT_EQ(CS.stats().CondFirings, 3u);
  EXPECT_EQ(CS.stats().Rounds, 2u);
  EXPECT_LE(countSpans(Trace, "solver-condense"), CS.stats().Rounds + 1);
  for (EffVar V : {B, C}) {
    EXPECT_TRUE(CS.member(EffectKind::Read, LA, V)) << V;
    EXPECT_TRUE(CS.member(EffectKind::Alloc, LN, V)) << V;
    EXPECT_TRUE(CS.member(EffectKind::Write, LD, V)) << V;
  }
  EXPECT_GT(expectThreeWayAgreement(CS, 1, 1, "pending carry"), 0u);
}

// A budget abort can land between a fired edge and the round-end
// rebuild. Sweep every MaxSteps cap over a firing system; after each
// abort, CHECK-SAT must see every edge fired so far (reaches() equals
// explainReach), and the partial least solution may lag behind but
// never claims an element the graph cannot derive (member() implies
// explainReach).
TEST(SolverConditional, AbortMidRoundLeavesNoStaleCondensation) {
  constexpr unsigned K = 8;
  uint64_t Total = 0;
  {
    LocTable Locs;
    ConstraintSystem CS(Locs);
    buildFailingConfines(Locs, CS, K);
    ResourceBudget Budget;
    ResourceLimits Limits;
    Limits.MaxSteps = ~0ull >> 1;
    Budget.arm(Limits);
    BudgetScope Scope(Budget);
    CS.solve();
    Total = Budget.steps();
  }
  ASSERT_GT(Total, uint64_t{K});
  uint64_t MidRound = 0;
  for (uint64_t Cap = 1; Cap < Total; ++Cap) {
    LocTable Locs;
    ConstraintSystem CS(Locs);
    buildFailingConfines(Locs, CS, K);
    bool Aborted = false;
    {
      ResourceBudget Budget;
      ResourceLimits Limits;
      Limits.MaxSteps = Cap;
      Budget.arm(Limits);
      BudgetScope Scope(Budget);
      try {
        CS.solve();
      } catch (const AnalysisAbort &) {
        Aborted = true;
      }
    }
    ASSERT_TRUE(Aborted) << "cap " << Cap;
    MidRound += CS.stats().CondFirings > 0 && CS.stats().CondFirings < K;
    uint64_t Bad = 0;
    for (EffVar V = 0; V < CS.numVars(); ++V)
      for (LocId L = 0; L < Locs.size(); ++L)
        for (EffectKind Kind :
             {EffectKind::Read, EffectKind::Write, EffectKind::Alloc}) {
          bool Reference = !CS.explainReach(Kind, L, V).empty();
          bool Reaches = CS.reaches(Kind, L, V);
          bool Member = CS.member(Kind, L, V);
          if (Reaches == Reference && (!Member || Reference))
            continue;
          if (++Bad <= 3)
            ADD_FAILURE() << "cap " << Cap << ": kind "
                          << static_cast<int>(Kind) << ", loc " << L
                          << ", var " << V << ": reaches " << Reaches
                          << ", member " << Member << ", explainReach "
                          << Reference;
        }
    EXPECT_EQ(Bad, 0u) << "cap " << Cap;
  }
  // The sweep did land between fired edges and their rebuild.
  EXPECT_GT(MidRound, 0u);
}

//===----------------------------------------------------------------------===//
// Flat constraint storage.
//===----------------------------------------------------------------------===//

// One constraint of a generated graph; Loc doubles as its identity in
// explain witnesses.
struct GenConstraint {
  enum Kind { Seed, Edge, Inter } K;
  EffVar V = 0;  ///< seed target / edge source / intersection output
  EffVar W = 0;  ///< edge target / intersection var operand
  uint32_t Elem = 0;
  std::vector<EffVar> Union; ///< intersection's other operand, if a union
  SourceLoc Loc;
};

// A random graph over \p NumVars variables and \p NumLocs locations:
// per-variable streams of seeds and out-edges (cycles included), plus one
// stream of intersections with variable, union, and element operands.
std::vector<std::vector<GenConstraint>> randomStreams(uint64_t Seed,
                                                      uint32_t NumVars,
                                                      uint32_t NumLocs) {
  Rng R(Seed);
  std::vector<std::vector<GenConstraint>> Streams(NumVars + 1);
  uint32_t Line = 1;
  auto Elem = [&] {
    return EffectElem(static_cast<EffectKind>(R.below(3)),
                      static_cast<LocId>(R.below(NumLocs)))
        .bits();
  };
  for (EffVar V = 0; V < NumVars; ++V) {
    for (uint64_t I = R.below(3); I > 0; --I)
      Streams[V].push_back(
          {GenConstraint::Seed, V, 0, Elem(), {}, {Line++, 1}});
    for (uint64_t I = R.below(4); I > 0; --I)
      Streams[V].push_back({GenConstraint::Edge, V,
                            static_cast<EffVar>(R.below(NumVars)), 0, {},
                            {Line++, 2}});
  }
  for (uint32_t I = 0; I < NumVars / 3; ++I) {
    GenConstraint C{GenConstraint::Inter,
                    static_cast<EffVar>(R.below(NumVars)),
                    static_cast<EffVar>(R.below(NumVars)), 0, {},
                    {Line++, 3}};
    if (R.chance(1, 3))
      C.Elem = Elem();
    else
      for (uint64_t J = 1 + R.below(3); J > 0; --J)
        C.Union.push_back(static_cast<EffVar>(R.below(NumVars)));
    Streams[NumVars].push_back(std::move(C));
  }
  return Streams;
}

void addGenConstraint(ConstraintSystem &CS, const GenConstraint &C) {
  CS.setOrigin(C.Loc, "generated constraint");
  switch (C.K) {
  case GenConstraint::Seed:
    CS.addElement(EffectElem(C.Elem).kind(), EffectElem(C.Elem).loc(), C.V);
    break;
  case GenConstraint::Edge:
    CS.addEdge(C.V, C.W);
    break;
  case GenConstraint::Inter:
    CS.addIntersection(InterOperand::var(C.W),
                       C.Union.empty()
                           ? InterOperand::elem(EffectElem(C.Elem))
                           : InterOperand::varUnion(C.Union),
                       C.V);
    break;
  }
}

bool sameWitness(const std::vector<ExplainStep> &A,
                 const std::vector<ExplainStep> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!(A[I].Loc == B[I].Loc) || A[I].Note != B[I].Note)
      return false;
  return true;
}

// The per-variable grouping is a stable sort of the flat arrays, so a
// graph whose constraints arrive interleaved across variables behaves
// exactly like one added variable by variable, as long as each
// variable's own constraints (and the intersections) keep their relative
// order: same solutions, same CHECK-SAT answers, same witnesses.
TEST(SolverStorage, OutOfOrderConstraintsMatchInOrderReference) {
  constexpr uint32_t NumVars = 60, NumLocs = 8;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    std::vector<std::vector<GenConstraint>> Streams =
        randomStreams(Seed, NumVars, NumLocs);
    LocTable LocsA, LocsB;
    ConstraintSystem InOrder(LocsA), Shuffled(LocsB);
    for (ConstraintSystem *CS : {&InOrder, &Shuffled}) {
      for (uint32_t L = 0; L < NumLocs; ++L)
        CS->locs().fresh();
      CS->enableOriginTracking();
      for (uint32_t V = 0; V < NumVars; ++V)
        CS->makeVar();
    }
    for (const auto &Stream : Streams)
      for (const GenConstraint &C : Stream)
        addGenConstraint(InOrder, C);
    // Interleave the streams at random.
    Rng R(Seed * 977);
    size_t Total = 0;
    for (const auto &Stream : Streams)
      Total += Stream.size();
    std::vector<size_t> Next(Streams.size(), 0);
    for (size_t Done = 0; Done < Total;) {
      size_t S = R.below(Streams.size());
      if (Next[S] == Streams[S].size())
        continue;
      addGenConstraint(Shuffled, Streams[S][Next[S]++]);
      ++Done;
    }
    ASSERT_EQ(InOrder.numEdges(), Shuffled.numEdges());

    uint64_t Reachable = 0;
    for (EffVar V = 0; V < NumVars; ++V)
      for (LocId L = 0; L < NumLocs; ++L)
        for (unsigned KI = 0; KI < 3; ++KI) {
          EffectKind K = static_cast<EffectKind>(KI);
          bool Reaches = InOrder.reaches(K, L, V);
          Reachable += Reaches;
          EXPECT_EQ(Reaches, Shuffled.reaches(K, L, V))
              << "seed " << Seed << ", kind " << KI << ", loc " << L
              << ", var " << V;
          std::vector<ExplainStep> Ref = InOrder.explainReach(K, L, V);
          EXPECT_EQ(Ref.empty(), !Reaches);
          EXPECT_TRUE(sameWitness(Ref, Shuffled.explainReach(K, L, V)))
              << "seed " << Seed << ", kind " << KI << ", loc " << L
              << ", var " << V;
        }
    EXPECT_GT(Reachable, 0u) << "seed " << Seed;
    InOrder.solve();
    Shuffled.solve();
    for (EffVar V = 0; V < NumVars; ++V)
      EXPECT_TRUE(InOrder.solution(V) == Shuffled.solution(V))
          << "seed " << Seed << ", var " << V;
    EXPECT_EQ(InOrder.stats().PropagatedElems,
              Shuffled.stats().PropagatedElems);
  }
}

// Stability itself: where two of a variable's constraints tie, the one
// added first wins, as it did when each variable kept its own lists.
TEST(SolverStorage, TiesFollowGenerationOrder) {
  // v0 -> a (added first) and v0 -> b both lead to t in two steps: the
  // shortest witness goes through a.
  {
    LocTable Locs;
    ConstraintSystem CS(Locs);
    CS.enableOriginTracking();
    LocId L = Locs.fresh();
    EffVar V0 = CS.makeVar(), A = CS.makeVar(), B = CS.makeVar(),
           T = CS.makeVar();
    CS.setOrigin({1, 1}, "seed");
    CS.addElement(EffectKind::Read, L, V0);
    CS.setOrigin({2, 1}, "b -> t");
    CS.addEdge(B, T);
    CS.setOrigin({3, 1}, "v0 -> a");
    CS.addEdge(V0, A);
    CS.setOrigin({4, 1}, "a -> t");
    CS.addEdge(A, T);
    CS.setOrigin({5, 1}, "v0 -> b");
    CS.addEdge(V0, B);
    std::vector<ExplainStep> Path = CS.explainReach(EffectKind::Read, L, T);
    ASSERT_EQ(Path.size(), 3u);
    EXPECT_EQ(Path[0].Note, std::string("a -> t"));
    EXPECT_EQ(Path[1].Note, std::string("v0 -> a"));
    EXPECT_EQ(Path[2].Note, std::string("seed"));
  }
  // CHECK-SAT's depth-first stack pops v0's later edge first, so it
  // reaches c through b after four visits; the reversed order would
  // explore a's branch first (five).
  {
    LocTable Locs;
    ConstraintSystem CS(Locs);
    LocId L = Locs.fresh();
    EffVar V0 = CS.makeVar(), A = CS.makeVar(), B = CS.makeVar(),
           C = CS.makeVar(), T = CS.makeVar();
    CS.addElement(EffectKind::Read, L, V0);
    CS.addEdge(A, T);
    CS.addEdge(V0, A);
    CS.addEdge(B, C);
    CS.addEdge(V0, B);
    uint64_t Before = CS.stats().CheckSatVisited;
    EXPECT_TRUE(CS.reaches(EffectKind::Read, L, C));
    EXPECT_EQ(CS.stats().CheckSatVisited - Before, 4u);
  }
  // CHECK-SAT's sources are the seeded variables in variable order,
  // whatever order the seeds arrived in: x before y, so y's chain is
  // searched first and t is found on the fifth visit (the third, had the
  // seeds stayed in arrival order).
  {
    LocTable Locs;
    ConstraintSystem CS(Locs);
    LocId L = Locs.fresh();
    EffVar X = CS.makeVar(), Y = CS.makeVar(), P = CS.makeVar(),
           Q = CS.makeVar(), T = CS.makeVar();
    CS.addElement(EffectKind::Read, L, Y);
    CS.addElement(EffectKind::Read, L, X);
    CS.addEdge(X, T);
    CS.addEdge(Y, P);
    CS.addEdge(P, Q);
    uint64_t Before = CS.stats().CheckSatVisited;
    EXPECT_TRUE(CS.reaches(EffectKind::Read, L, T));
    EXPECT_EQ(CS.stats().CheckSatVisited - Before, 5u);
  }
}

// CHECK-SAT's seed index and the condensation are cached; seeds,
// variables, and edges added after a query must be seen by the next one,
// whether or not the seeds arrived in variable order.
TEST(SolverStorage, ConstraintsAddedAfterAQueryAreSeen) {
  LocTable Locs;
  ConstraintSystem CS(Locs);
  LocId L0 = Locs.fresh(), L1 = Locs.fresh();
  EffVar A = CS.makeVar(), B = CS.makeVar();
  CS.addEdge(A, B);
  EXPECT_FALSE(CS.reaches(EffectKind::Read, L0, B));
  CS.addElement(EffectKind::Read, L0, A);
  EXPECT_TRUE(CS.reaches(EffectKind::Read, L0, B));

  // New variables with no seeds: the grouping must grow with them.
  EffVar C = CS.makeVar(), D = CS.makeVar();
  EXPECT_FALSE(CS.reaches(EffectKind::Read, L0, D));
  CS.addElement(EffectKind::Write, L1, C);
  CS.addEdge(C, D);
  EXPECT_TRUE(CS.reaches(EffectKind::Write, L1, D));
  EXPECT_FALSE(CS.reaches(EffectKind::Write, L1, B));
  CS.addEdge(D, B);
  EXPECT_TRUE(CS.reaches(EffectKind::Write, L1, B));
  EXPECT_EQ(CS.explainReach(EffectKind::Write, L1, B).size(), 3u);

  // A seed for an earlier variable, so the seeds are no longer in
  // variable order; the cached grouping must follow it and every later
  // seed and variable.
  CS.addElement(EffectKind::Alloc, L0, A);
  EXPECT_TRUE(CS.reaches(EffectKind::Alloc, L0, B));
  EffVar E = CS.makeVar();
  CS.addElement(EffectKind::Read, L1, E);
  EXPECT_TRUE(CS.reaches(EffectKind::Read, L1, E));
  EffVar F = CS.makeVar();
  EXPECT_FALSE(CS.reaches(EffectKind::Read, L1, F));
  CS.addElement(EffectKind::Write, L0, D);
  EXPECT_TRUE(CS.reaches(EffectKind::Write, L0, B));

  CS.solve();
  EXPECT_TRUE(CS.member(EffectKind::Write, L1, B));
  EXPECT_TRUE(CS.member(EffectKind::Read, L0, B));
  EXPECT_TRUE(CS.member(EffectKind::Alloc, L0, B));
  EXPECT_TRUE(CS.member(EffectKind::Write, L0, B));
  EXPECT_FALSE(CS.member(EffectKind::Read, L0, D));
  EXPECT_FALSE(CS.member(EffectKind::Read, L1, F));
}

// constraint-out-degree counts each variable's out-edges plus the
// intersection sides it feeds (once per union membership).
TEST(SolverStorage, GraphMetricsMatchAHandCount) {
  LocTable Locs;
  ConstraintSystem CS(Locs);
  LocId L = Locs.fresh();
  EffVar V[5];
  for (EffVar &X : V)
    X = CS.makeVar();
  CS.addEdge(V[0], V[1]);
  CS.addEdge(V[0], V[2]);
  CS.addEdge(V[1], V[2]);
  CS.addEdge(V[3], V[3]); // a self-edge is dropped
  CS.addElement(EffectKind::Read, L, V[0]);
  // (v0 n (v1 u v3)) <= v2 and ({read(l)} n v0) <= v4.
  CS.addIntersection(InterOperand::var(V[0]),
                     InterOperand::varUnion({V[1], V[3]}), V[2]);
  CS.addIntersection(InterOperand::elem(EffectElem(EffectKind::Read, L)),
                     InterOperand::var(V[0]), V[4]);
  MetricsRegistry R;
  {
    MetricsScope Scope(R);
    CS.recordGraphMetrics();
  }
  // Out-degrees: v0 = 2 edges + 2 feeds, v1 = 1 + 1, v2 = 0, v3 = 0 + 1,
  // v4 = 0.
  const Histogram *H = R.findHistogram("constraint-out-degree");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->count(), 5u);
  EXPECT_EQ(H->sum(), 7u);
  EXPECT_EQ(H->min(), 0u);
  EXPECT_EQ(H->max(), 4u);
  EXPECT_EQ(H->buckets()[0], 2u); // v2, v4
  EXPECT_EQ(H->buckets()[1], 1u); // v3
  EXPECT_EQ(H->buckets()[2], 1u); // v1
  EXPECT_EQ(H->buckets()[3], 1u); // v0
  EXPECT_EQ(CS.numEdges(), 3u);
}

//===----------------------------------------------------------------------===//
// Multi-target CHECK-SAT (the escape condition).
//===----------------------------------------------------------------------===//

// firstReachedAnyKind answers "the first target, in order, that some
// kind of rho reaches" with one search per kind, whatever the number of
// targets, and agrees with one reachesAnyKind query per target.
TEST(SolverCheckSat, FirstReachedAnyKindMatchesPerTargetQueries) {
  constexpr uint32_t NumVars = 60, NumLocs = 8;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    LocTable Locs;
    ConstraintSystem CS(Locs);
    for (uint32_t L = 0; L < NumLocs; ++L)
      Locs.fresh();
    for (uint32_t V = 0; V < NumVars; ++V)
      CS.makeVar();
    for (const auto &Stream : randomStreams(Seed, NumVars, NumLocs))
      for (const GenConstraint &C : Stream)
        addGenConstraint(CS, C);
    Rng R(Seed);
    uint64_t Hits = 0;
    for (unsigned Q = 0; Q < 200; ++Q) {
      LocId Rho = static_cast<LocId>(R.below(NumLocs));
      std::vector<EffVar> Targets;
      for (uint64_t I = R.below(6); I > 0; --I)
        Targets.push_back(static_cast<EffVar>(R.below(NumVars)));
      EffVar Expected = InvalidEffVar;
      for (EffVar T : Targets)
        if (CS.reachesAnyKind(Rho, T)) {
          Expected = T;
          break;
        }
      uint64_t Before = CS.stats().CheckSatQueries;
      EXPECT_EQ(CS.firstReachedAnyKind(Rho, Targets), Expected)
          << "seed " << Seed << ", query " << Q;
      EXPECT_LE(CS.stats().CheckSatQueries - Before, 3u);
      Hits += Expected != InvalidEffVar;
    }
    EXPECT_GT(Hits, 0u) << "seed " << Seed;
  }
}

// The kinds are searched separately: an intersection fires only when one
// element reaches both of its sides, so read(l) on one side and write(l)
// on the other must not let l through.
TEST(SolverCheckSat, FirstReachedAnyKindKeepsKindsApart) {
  LocTable Locs;
  ConstraintSystem CS(Locs);
  LocId L = Locs.fresh();
  EffVar A = CS.makeVar(), B = CS.makeVar(), Out = CS.makeVar(),
         Other = CS.makeVar();
  CS.addElement(EffectKind::Read, L, A);
  CS.addElement(EffectKind::Write, L, B);
  CS.addIntersection(InterOperand::var(A), InterOperand::var(B), Out);
  EXPECT_EQ(CS.firstReachedAnyKind(L, {Out}), InvalidEffVar);
  EXPECT_EQ(CS.firstReachedAnyKind(L, {Out, B, A}), B);
  EXPECT_EQ(CS.firstReachedAnyKind(L, {Other}), InvalidEffVar);
  EXPECT_EQ(CS.firstReachedAnyKind(L, {}), InvalidEffVar);
  CS.addElement(EffectKind::Read, L, B);
  EXPECT_EQ(CS.firstReachedAnyKind(L, {Other, Out, A}), Out);
}

//===----------------------------------------------------------------------===//
// Driving and passive intersection sides.
//===----------------------------------------------------------------------===//

// Propagation pops the last-queued component first, and the seeding loop
// queues components in variable order, so the order variables are made
// in decides which side of an intersection flushes an element first.

CondConstraint firesOn(LocId Rho, EffVar Var, std::vector<CondAction> Acts) {
  CondConstraint C;
  C.P = CondConstraint::Premise::LocInVar;
  C.Rho = Rho;
  C.Var = Var;
  C.Actions = std::move(Acts);
  return C;
}

// The generated (Down) shape, (Body n (Env u Param)) <= Latent: Body
// drives and the union is passive. read(l) is seeded into Body and
// reaches Env through Src -> Env. Made first, Body flushes last and
// finds read(l) in Env; made after Src, it flushes first, misses, and
// waits until Env's flush looks it up.
TEST(SolverIntersection, EitherSideMayArriveFirst) {
  for (bool DrivingFirst : {false, true}) {
    LocTable Locs;
    ConstraintSystem CS(Locs);
    LocId L = Locs.fresh(), BodyOnly = Locs.fresh(), EnvOnly = Locs.fresh();
    EffVar Body = 0, Src = 0;
    if (DrivingFirst) {
      Src = CS.makeVar();
      Body = CS.makeVar();
    } else {
      Body = CS.makeVar();
      Src = CS.makeVar();
    }
    EffVar Env = CS.makeVar(), Param = CS.makeVar(), Latent = CS.makeVar();
    CS.addElement(EffectKind::Read, L, Body);
    CS.addElement(EffectKind::Write, BodyOnly, Body);
    CS.addElement(EffectKind::Read, L, Src);
    CS.addElement(EffectKind::Alloc, EnvOnly, Src);
    CS.addEdge(Src, Env);
    CS.addIntersection(InterOperand::var(Body),
                       InterOperand::varUnion({Env, Param}), Latent);
    CS.solve();
    const std::string Where =
        DrivingFirst ? "driving side first" : "passive side first";
    EXPECT_TRUE(CS.member(EffectKind::Read, L, Latent)) << Where;
    EXPECT_FALSE(CS.member(EffectKind::Write, BodyOnly, Latent)) << Where;
    EXPECT_FALSE(CS.member(EffectKind::Alloc, EnvOnly, Latent)) << Where;
    // Body's two elements test the union once each; only when Body
    // flushed first does Env's flush test the waiting read(l) again.
    EXPECT_EQ(CS.stats().IntersectionTests, DrivingFirst ? 3u : 2u) << Where;
    EXPECT_GT(expectThreeWayAgreement(CS, 1, 1, Where), 0u);
  }
}

// The passive side gets the element a round later, through an edge a
// conditional fires: the driving side's miss from round 1 is still
// waiting when the fired edge's flush looks it up.
TEST(SolverIntersection, FiredEdgeFillsThePassiveSideInALaterRound) {
  LocTable Locs;
  ConstraintSystem CS(Locs);
  LocId L = Locs.fresh(), T = Locs.fresh();
  EffVar Body = CS.makeVar(), Src = CS.makeVar(), Trig = CS.makeVar(),
         Env = CS.makeVar(), Param = CS.makeVar(), Latent = CS.makeVar();
  CS.addElement(EffectKind::Read, L, Body);
  CS.addElement(EffectKind::Read, L, Src);
  CS.addElement(EffectKind::Read, T, Trig);
  CS.addIntersection(InterOperand::var(Body),
                     InterOperand::varUnion({Env, Param}), Latent);
  CS.addConditional(firesOn(T, Trig, {{CondAction::Kind::AddEdge, Src, Param}}));
  CS.solve();
  EXPECT_EQ(CS.stats().CondFirings, 1u);
  EXPECT_EQ(CS.stats().Rounds, 2u);
  EXPECT_TRUE(CS.member(EffectKind::Read, L, Param));
  EXPECT_TRUE(CS.member(EffectKind::Read, L, Latent));
  EXPECT_GT(expectThreeWayAgreement(CS, 1, 1, "fired edge"), 0u);
}

// read(l1) waits on Body's side; the union holds read(l0). A conditional
// unifies l0 and l1. If l1 survives, the union's set changes and its
// re-pushed read(l1) finds the waiting entry; if l0 survives, Body's set
// changes and its re-pushed read(l0) tests the union directly, leaving
// the read(l1) key dead. Both directions must fire.
TEST(SolverIntersection, WaitingElementSurvivesALocationUnify) {
  std::vector<bool> Survivors;
  for (bool IntoL0 : {true, false}) {
    LocTable Locs;
    ConstraintSystem CS(Locs);
    LocId L0 = Locs.fresh(), L1 = Locs.fresh(), T = Locs.fresh();
    EffVar Body = CS.makeVar(), Trig = CS.makeVar(), Env = CS.makeVar(),
           Param = CS.makeVar(), Latent = CS.makeVar();
    CS.addElement(EffectKind::Read, L1, Body);
    CS.addElement(EffectKind::Read, L0, Param);
    CS.addElement(EffectKind::Read, T, Trig);
    CS.addIntersection(InterOperand::var(Body),
                       InterOperand::varUnion({Env, Param}), Latent);
    CS.addConditional(firesOn(T, Trig,
                              {{CondAction::Kind::UnifyLocs,
                                IntoL0 ? L1 : L0, IntoL0 ? L0 : L1}}));
    CS.solve();
    ASSERT_TRUE(Locs.sameClass(L0, L1));
    Survivors.push_back(Locs.find(L0) == L0);
    const std::string Where = IntoL0 ? "unify into l0" : "unify into l1";
    EXPECT_TRUE(CS.member(EffectKind::Read, L0, Latent)) << Where;
    EXPECT_GT(expectThreeWayAgreement(CS, 1, 1, Where), 0u);
  }
  // Each location survived once: both re-push paths ran.
  EXPECT_NE(Survivors[0], Survivors[1]);
}

// A union on the driving side: read(l) reaches both members before the
// passive variable, so it waits twice for the same intersection; one
// flush of the passive side fires it once and clears both entries.
TEST(SolverIntersection, UnionDrivingSide) {
  LocTable Locs;
  ConstraintSystem CS(Locs);
  LocId L = Locs.fresh(), M = Locs.fresh(), PassiveOnly = Locs.fresh();
  EffVar Src = CS.makeVar(), D1 = CS.makeVar(), D2 = CS.makeVar(),
         P = CS.makeVar(), Out = CS.makeVar();
  CS.addElement(EffectKind::Read, L, D1);
  CS.addElement(EffectKind::Read, L, D2);
  CS.addElement(EffectKind::Write, M, D2);
  CS.addElement(EffectKind::Read, L, Src);
  CS.addElement(EffectKind::Write, M, Src);
  CS.addElement(EffectKind::Alloc, PassiveOnly, Src);
  CS.addEdge(Src, P);
  CS.addIntersection(InterOperand::varUnion({D1, D2}), InterOperand::var(P),
                     Out);
  CS.solve();
  EXPECT_TRUE(CS.member(EffectKind::Read, L, Out));
  EXPECT_TRUE(CS.member(EffectKind::Write, M, Out));
  EXPECT_FALSE(CS.member(EffectKind::Alloc, PassiveOnly, Out));
  EXPECT_EQ(CS.solution(Out).size(), 2u);
  EXPECT_GT(expectThreeWayAgreement(CS, 1, 1, "union driving side"), 0u);
}

// ({read(l)} n V) <= Out1: a constant element never arrives, so V's side
// drives. V also sits on the passive side of (D n V) <= Out2, whose
// driving side already holds read(l) when V's flush comes. V gets
// read(l) through an edge, so the element-operand check at seeding time
// cannot fire Out1 for it.
TEST(SolverIntersection, ElementOnSideAFlipsTheDrivingSide) {
  LocTable Locs;
  ConstraintSystem CS(Locs);
  LocId L = Locs.fresh(), Other = Locs.fresh();
  EffVar Src = CS.makeVar(), D = CS.makeVar(), V = CS.makeVar(),
         Out1 = CS.makeVar(), Out2 = CS.makeVar();
  CS.addElement(EffectKind::Read, L, Src);
  CS.addElement(EffectKind::Write, Other, Src);
  CS.addElement(EffectKind::Read, L, D);
  CS.addEdge(Src, V);
  CS.addIntersection(InterOperand::elem(EffectElem(EffectKind::Read, L)),
                     InterOperand::var(V), Out1);
  CS.addIntersection(InterOperand::var(D), InterOperand::var(V), Out2);
  CS.solve();
  for (EffVar Out : {Out1, Out2}) {
    EXPECT_TRUE(CS.member(EffectKind::Read, L, Out)) << Out;
    EXPECT_FALSE(CS.member(EffectKind::Write, Other, Out)) << Out;
  }
  EXPECT_GT(expectThreeWayAgreement(CS, 1, 1, "element on side A"), 0u);
}

// One shared variable S with G elements is the passive side of F
// intersections whose bodies are disjoint: body j holds its own element
// and the j-th of S's. S gets its elements through an edge, after every
// body flushed. Testing each of S's elements against every body costs
// F * G operand tests; the waiting index costs one per body element and
// one per waiting shared element.
TEST(SolverIntersection, SharedSetIsNotTestedAgainstEveryBody) {
  constexpr uint32_t F = 200, G = 200;
  LocTable Locs;
  ConstraintSystem CS(Locs);
  std::vector<LocId> Shared, Own;
  for (uint32_t I = 0; I < G; ++I)
    Shared.push_back(Locs.fresh());
  for (uint32_t J = 0; J < F; ++J)
    Own.push_back(Locs.fresh());
  EffVar Src = CS.makeVar(), S = CS.makeVar();
  for (LocId L : Shared)
    CS.addElement(EffectKind::Read, L, Src);
  CS.addEdge(Src, S);
  std::vector<EffVar> Outs;
  for (uint32_t J = 0; J < F; ++J) {
    EffVar Body = CS.makeVar(), Out = CS.makeVar();
    CS.addElement(EffectKind::Read, Own[J], Body);
    CS.addElement(EffectKind::Read, Shared[J % G], Body);
    CS.addIntersection(InterOperand::var(Body), InterOperand::varUnion({S}),
                       Out);
    Outs.push_back(Out);
  }
  CS.solve();
  EXPECT_GT(CS.stats().IntersectionTests, 0u);
  EXPECT_LT(CS.stats().IntersectionTests, uint64_t{F} * G / 10);
  for (uint32_t J = 0; J < F; ++J) {
    EXPECT_TRUE(CS.member(EffectKind::Read, Shared[J % G], Outs[J])) << J;
    EXPECT_EQ(CS.solution(Outs[J]).size(), 1u) << J;
  }
  EXPECT_GT(expectThreeWayAgreement(CS, 97, 5, "shared set"), 0u);
}

//===----------------------------------------------------------------------===//
// Agreement with the reference on analysis graphs.
//===----------------------------------------------------------------------===//

// Runs \p Source in both pipeline modes under both alias backends and
// checks three-way agreement on each session's final constraint graph.
// Returns the number of reachable queries checked.
uint64_t expectSessionsAgree(const std::string &Source, uint64_t ReachStride,
                             uint64_t ExplainStride,
                             const std::string &Name) {
  uint64_t Reachable = 0;
  for (PipelineMode Mode :
       {PipelineMode::CheckAnnotations, PipelineMode::Infer})
    for (AliasBackendKind Backend :
         {AliasBackendKind::Steensgaard, AliasBackendKind::Andersen}) {
      PipelineOptions Opts;
      Opts.Mode = Mode;
      Opts.AliasBackend = Backend;
      AnalysisSession S(Opts);
      if (!S.run(Source))
        continue;
      PipelineResult &R = S.result();
      ConstraintSystem &CS = R.State->CS;
      // A checking run with no scope stops after typing. Build the graph
      // it skipped, so the checking-mode constraint shape (plain lets
      // unified, strict restrict effect) is still compared here.
      if (Mode == PipelineMode::CheckAnnotations &&
          !hasScopesToCheck(R.Alias))
        R.Eff = EffectInference(S.context(), R.Analyzed, R.Alias,
                                R.State->Types, CS, {})
                    .run();
      // Checking answers restricts with CHECK-SAT and solves only when
      // conditionals or explicit confines need it; inference has already
      // solved to its fixpoint.
      if (Mode == PipelineMode::CheckAnnotations)
        CS.solve();
      Reachable += expectThreeWayAgreement(
          CS, ReachStride, ExplainStride,
          Name + (Mode == PipelineMode::Infer ? " [infer/" : " [check/") +
              aliasBackendName(Backend) + "]");
    }
  return Reachable;
}

// One instance per committed fixture and regression reproducer: the full
// (var, loc, kind) sweep for member vs reaches, a strided sample for the
// allocating explainReach reference. In the test name, the "baseline" is
// explainReach's uncollapsed traversal.
class SolverIdentityCorpus : public ::testing::TestWithParam<std::string> {};

TEST_P(SolverIdentityCorpus, BaselineAndCollapsedReportsAreIdentical) {
  std::ifstream In(GetParam());
  ASSERT_TRUE(In.good()) << "cannot open " << GetParam();
  std::stringstream Buf;
  Buf << In.rdbuf();
  expectSessionsAgree(Buf.str(), 1, 7, GetParam());
}

// The generated 589-module corpus, strided: every corpus shape's final
// graphs are checked against the uncollapsed reference.
TEST(SolverCorpus, GeneratedCorpusAgreesWithReference) {
  std::vector<ModuleSpec> Corpus = generateCorpus();
  ASSERT_EQ(Corpus.size(), 589u);
  uint64_t Reachable = 0;
  for (const ModuleSpec &M : Corpus)
    Reachable += expectSessionsAgree(M.Source, 53, 11, M.Name);
  EXPECT_GT(Reachable, 0u);
}

// Agreement on a graph too large to sweep: every VarStride-th variable,
// each element of its least solution and as many (loc, kind) pairs picked
// at a fixed stride, member() against reaches(), and every
// ExplainStride-th query against explainReach too. Returns how many
// checked queries were reachable.
uint64_t expectStridedAgreement(ConstraintSystem &CS, uint32_t VarStride,
                                uint64_t ExplainStride,
                                const std::string &Where) {
  const LocTable &Locs = CS.locs();
  uint64_t Checked = 0, Reachable = 0, Disagreements = 0;
  auto Check = [&](EffVar V, EffectKind K, LocId L) {
    bool Member = CS.member(K, L, V);
    bool Reaches = CS.reaches(K, L, V);
    bool Reference = Checked++ % ExplainStride == 0
                         ? !CS.explainReach(K, L, V).empty()
                         : Reaches;
    Reachable += Reaches;
    if (Member == Reaches && Reaches == Reference)
      return;
    if (++Disagreements <= 5)
      ADD_FAILURE() << Where << ": kind " << static_cast<int>(K) << ", loc "
                    << L << ", var " << V << ": member " << Member
                    << ", reaches " << Reaches << ", explainReach "
                    << Reference;
  };
  for (EffVar V = 0; V < CS.numVars(); V += VarStride) {
    std::vector<uint32_t> Sol;
    for (uint32_t E : CS.solution(V))
      Sol.push_back(E);
    std::sort(Sol.begin(), Sol.end());
    for (uint32_t E : Sol)
      Check(V, EffectElem(E).kind(), EffectElem(E).loc());
    for (uint32_t J = 0; J < std::max<size_t>(Sol.size(), 1); ++J)
      Check(V, static_cast<EffectKind>(J % 3),
            Locs.find((V * 7919u + J * 104729u) % Locs.size()));
  }
  EXPECT_EQ(Disagreements, 0u) << Where;
  return Reachable;
}

// Hard and Recoverable modules with hundreds of functions, where every
// (Down) intersection shares the environment union: inference under both
// backends agrees with the reference, and the solver's counters are
// those the per-feed scan produced (a different firing schedule or a
// missed firing would move them).
TEST(SolverCorpus, ManyFunctionModulesAgreeWithReference) {
  struct Pin {
    ModuleCategory Cat;
    uint32_t SizeHint;
    AliasBackendKind Backend;
    uint64_t PropagatedElems, Rounds, CondFirings;
  };
  const Pin Pins[] = {
      {ModuleCategory::Hard, 220, AliasBackendKind::Steensgaard, 13317, 4,
       446},
      {ModuleCategory::Hard, 220, AliasBackendKind::Andersen, 14091, 4, 532},
      {ModuleCategory::Recoverable, 400, AliasBackendKind::Steensgaard, 9817,
       3, 259},
      {ModuleCategory::Recoverable, 400, AliasBackendKind::Andersen, 9817, 3,
       259},
  };
  for (const Pin &P : Pins) {
    const ModuleSpec M = generateModule(P.Cat, 3, P.SizeHint);
    const std::string Where = std::string(moduleCategoryName(P.Cat)) + "-" +
                              std::to_string(P.SizeHint) + " [" +
                              aliasBackendName(P.Backend) + "]";
    PipelineOptions Opts;
    Opts.Mode = PipelineMode::Infer;
    Opts.AliasBackend = P.Backend;
    AnalysisSession S(Opts);
    ASSERT_TRUE(S.run(M.Source)) << Where;
    ConstraintSystem &CS = S.result().State->CS;
    const SolverStats &SS = CS.stats();
    EXPECT_EQ(SS.PropagatedElems, P.PropagatedElems) << Where;
    EXPECT_EQ(SS.Rounds, P.Rounds) << Where;
    EXPECT_EQ(SS.CondFirings, P.CondFirings) << Where;
    EXPECT_GT(expectStridedAgreement(CS, CS.numVars() / 600 + 1, 4, Where),
              0u)
        << Where;
  }
}

std::vector<std::string> identityFiles() {
  std::vector<std::string> Files;
  for (const char *Dir : {LNA_SOLVER_REGRESSION_DIR, LNA_SOLVER_FIXTURE_DIR})
    for (const auto &Entry : std::filesystem::directory_iterator(Dir))
      if (Entry.path().extension() == ".lna")
        Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string identityName(const ::testing::TestParamInfo<std::string> &Info) {
  std::string Stem = std::filesystem::path(Info.param).stem().string();
  for (char &C : Stem)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Stem;
}

INSTANTIATE_TEST_SUITE_P(Fixtures, SolverIdentityCorpus,
                         ::testing::ValuesIn(identityFiles()), identityName);

} // namespace

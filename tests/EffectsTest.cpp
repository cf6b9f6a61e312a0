//===- EffectsTest.cpp - Constraint system unit tests ---------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "effects/EffectTerm.h"

#include <gtest/gtest.h>

using namespace lna;

namespace {

struct EffectsFixture : ::testing::Test {
  LocTable Locs;
  ConstraintSystem CS{Locs};

  LocId L(int) { return Locs.fresh(); }
};

//===----------------------------------------------------------------------===//
// Propagation basics
//===----------------------------------------------------------------------===//

TEST_F(EffectsFixture, ElementSeedsAppearInSolution) {
  EffVar V = CS.makeVar();
  LocId A = Locs.fresh();
  CS.addElement(EffectKind::Read, A, V);
  CS.solve();
  EXPECT_TRUE(CS.member(EffectKind::Read, A, V));
  EXPECT_FALSE(CS.member(EffectKind::Write, A, V));
}

TEST_F(EffectsFixture, EdgesPropagate) {
  EffVar V1 = CS.makeVar();
  EffVar V2 = CS.makeVar();
  EffVar V3 = CS.makeVar();
  LocId A = Locs.fresh();
  CS.addElement(EffectKind::Write, A, V1);
  CS.addEdge(V1, V2);
  CS.addEdge(V2, V3);
  CS.solve();
  EXPECT_TRUE(CS.member(EffectKind::Write, A, V3));
}

TEST_F(EffectsFixture, CyclesConverge) {
  EffVar V1 = CS.makeVar();
  EffVar V2 = CS.makeVar();
  LocId A = Locs.fresh();
  CS.addElement(EffectKind::Alloc, A, V1);
  CS.addEdge(V1, V2);
  CS.addEdge(V2, V1);
  CS.solve();
  EXPECT_TRUE(CS.member(EffectKind::Alloc, A, V1));
  EXPECT_TRUE(CS.member(EffectKind::Alloc, A, V2));
  EXPECT_EQ(CS.solution(V1).size(), 1u);
}

TEST_F(EffectsFixture, LeastSolutionIsMinimal) {
  // Nothing flows into V; its solution must be empty.
  EffVar V = CS.makeVar();
  EffVar Other = CS.makeVar();
  CS.addElement(EffectKind::Read, Locs.fresh(), Other);
  CS.solve();
  EXPECT_TRUE(CS.solution(V).empty());
}

//===----------------------------------------------------------------------===//
// Intersections (the I nodes of Figure 5)
//===----------------------------------------------------------------------===//

TEST_F(EffectsFixture, IntersectionKeepsOnlyCommonElements) {
  EffVar A = CS.makeVar(), B = CS.makeVar(), Out = CS.makeVar();
  LocId X = Locs.fresh(), Y = Locs.fresh(), Z = Locs.fresh();
  CS.addElement(EffectKind::Read, X, A);
  CS.addElement(EffectKind::Read, Y, A);
  CS.addElement(EffectKind::Read, Y, B);
  CS.addElement(EffectKind::Read, Z, B);
  CS.addIntersection(InterOperand::var(A), InterOperand::var(B), Out);
  CS.solve();
  EXPECT_FALSE(CS.member(EffectKind::Read, X, Out));
  EXPECT_TRUE(CS.member(EffectKind::Read, Y, Out));
  EXPECT_FALSE(CS.member(EffectKind::Read, Z, Out));
}

TEST_F(EffectsFixture, IntersectionDistinguishesKinds) {
  EffVar A = CS.makeVar(), B = CS.makeVar(), Out = CS.makeVar();
  LocId X = Locs.fresh();
  CS.addElement(EffectKind::Read, X, A);
  CS.addElement(EffectKind::Write, X, B);
  CS.addIntersection(InterOperand::var(A), InterOperand::var(B), Out);
  CS.solve();
  EXPECT_TRUE(CS.solution(Out).empty());
}

TEST_F(EffectsFixture, IntersectionWithElemOperand) {
  EffVar A = CS.makeVar(), Out = CS.makeVar();
  LocId X = Locs.fresh(), Y = Locs.fresh();
  CS.addElement(EffectKind::Write, X, A);
  CS.addElement(EffectKind::Write, Y, A);
  CS.addIntersection(InterOperand::var(A),
                     InterOperand::elem(EffectElem(EffectKind::Write, X)),
                     Out);
  CS.solve();
  EXPECT_TRUE(CS.member(EffectKind::Write, X, Out));
  EXPECT_FALSE(CS.member(EffectKind::Write, Y, Out));
}

TEST_F(EffectsFixture, ConstantIntersectionOfEqualElems) {
  EffVar Out = CS.makeVar();
  LocId X = Locs.fresh();
  CS.addIntersection(InterOperand::elem(EffectElem(EffectKind::Read, X)),
                     InterOperand::elem(EffectElem(EffectKind::Read, X)),
                     Out);
  CS.solve();
  EXPECT_TRUE(CS.member(EffectKind::Read, X, Out));
}

TEST_F(EffectsFixture, UnificationMakesIntersectionFire) {
  // read(X) n read(Y) is empty until X and Y unify.
  EffVar A = CS.makeVar(), B = CS.makeVar(), Out = CS.makeVar(),
         Trigger = CS.makeVar();
  LocId X = Locs.fresh(), Y = Locs.fresh(), T = Locs.fresh();
  CS.addElement(EffectKind::Read, X, A);
  CS.addElement(EffectKind::Read, Y, B);
  CS.addIntersection(InterOperand::var(A), InterOperand::var(B), Out);
  // Conditional: when T is read in Trigger, unify X = Y.
  CS.addElement(EffectKind::Read, T, Trigger);
  CondConstraint C;
  C.P = CondConstraint::Premise::LocInVar;
  C.Rho = T;
  C.Var = Trigger;
  C.Actions.push_back({CondAction::Kind::UnifyLocs, X, Y});
  CS.addConditional(std::move(C));
  CS.solve();
  EXPECT_TRUE(Locs.sameClass(X, Y));
  EXPECT_TRUE(CS.member(EffectKind::Read, X, Out));
}

//===----------------------------------------------------------------------===//
// CHECK-SAT (Figure 5) vs. full propagation
//===----------------------------------------------------------------------===//

TEST_F(EffectsFixture, ReachesAgreesWithPropagationOnChains) {
  EffVar V1 = CS.makeVar(), V2 = CS.makeVar(), V3 = CS.makeVar();
  LocId A = Locs.fresh(), B = Locs.fresh();
  CS.addElement(EffectKind::Read, A, V1);
  CS.addElement(EffectKind::Write, B, V2);
  CS.addEdge(V1, V2);
  EXPECT_TRUE(CS.reaches(EffectKind::Read, A, V2));
  EXPECT_FALSE(CS.reaches(EffectKind::Read, A, V3));
  EXPECT_FALSE(CS.reaches(EffectKind::Write, B, V1));
  EXPECT_TRUE(CS.reachesAnyKind(B, V2));
}

TEST_F(EffectsFixture, ReachesThroughIntersectionNeedsBothSides) {
  EffVar A = CS.makeVar(), B = CS.makeVar(), Out = CS.makeVar();
  LocId X = Locs.fresh();
  CS.addElement(EffectKind::Read, X, A);
  CS.addIntersection(InterOperand::var(A), InterOperand::var(B), Out);
  // Only one input has the element: it must not reach Out.
  EXPECT_FALSE(CS.reaches(EffectKind::Read, X, Out));
  CS.addElement(EffectKind::Read, X, B);
  EXPECT_TRUE(CS.reaches(EffectKind::Read, X, Out));
}

TEST_F(EffectsFixture, ReachesHandlesDiamonds) {
  //      V1
  //     /  \.
  //   V2    V3   both feed an intersection
  EffVar V1 = CS.makeVar(), V2 = CS.makeVar(), V3 = CS.makeVar(),
         Out = CS.makeVar();
  LocId X = Locs.fresh();
  CS.addElement(EffectKind::Alloc, X, V1);
  CS.addEdge(V1, V2);
  CS.addEdge(V1, V3);
  CS.addIntersection(InterOperand::var(V2), InterOperand::var(V3), Out);
  EXPECT_TRUE(CS.reaches(EffectKind::Alloc, X, Out));
}

TEST_F(EffectsFixture, CheckSatRandomGraphsAgreeWithPropagation) {
  // Property check: on random DAG-ish graphs with intersections, the
  // per-source CHECK-SAT answer equals least-solution membership.
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    LocTable Locs2;
    ConstraintSystem CS2(Locs2);
    // Deterministic pseudo-random structure from the seed.
    uint64_t S = Seed * 0x9e3779b97f4a7c15ULL;
    auto Next = [&S]() {
      S ^= S << 13;
      S ^= S >> 7;
      S ^= S << 17;
      return S;
    };
    const int NumVars = 20;
    const int NumLocs = 6;
    std::vector<EffVar> Vars;
    std::vector<LocId> Ls;
    for (int I = 0; I < NumVars; ++I)
      Vars.push_back(CS2.makeVar());
    for (int I = 0; I < NumLocs; ++I)
      Ls.push_back(Locs2.fresh());
    for (int I = 0; I < 12; ++I)
      CS2.addElement(static_cast<EffectKind>(Next() % 3),
                     Ls[Next() % NumLocs], Vars[Next() % NumVars]);
    for (int I = 0; I < 25; ++I)
      CS2.addEdge(Vars[Next() % NumVars], Vars[Next() % NumVars]);
    for (int I = 0; I < 6; ++I)
      CS2.addIntersection(InterOperand::var(Vars[Next() % NumVars]),
                          InterOperand::var(Vars[Next() % NumVars]),
                          Vars[Next() % NumVars]);
    // Ask CHECK-SAT first (pure), then solve and compare membership.
    std::vector<std::vector<std::vector<bool>>> Reaches(
        3, std::vector<std::vector<bool>>(NumLocs,
                                          std::vector<bool>(NumVars)));
    for (int K = 0; K < 3; ++K)
      for (int L = 0; L < NumLocs; ++L)
        for (int V = 0; V < NumVars; ++V)
          Reaches[K][L][V] =
              CS2.reaches(static_cast<EffectKind>(K), Ls[L], Vars[V]);
    CS2.solve();
    for (int K = 0; K < 3; ++K)
      for (int L = 0; L < NumLocs; ++L)
        for (int V = 0; V < NumVars; ++V)
          EXPECT_EQ(Reaches[K][L][V],
                    CS2.member(static_cast<EffectKind>(K), Ls[L], Vars[V]))
              << "seed " << Seed << " kind " << K << " loc " << L << " var "
              << V;
  }
}

//===----------------------------------------------------------------------===//
// Conditional constraints
//===----------------------------------------------------------------------===//

TEST_F(EffectsFixture, ConditionalFiresWhenPremiseHolds) {
  EffVar V = CS.makeVar(), Out = CS.makeVar();
  LocId A = Locs.fresh(), B = Locs.fresh();
  CS.addElement(EffectKind::Write, A, V);
  CondConstraint C;
  C.P = CondConstraint::Premise::LocInVar;
  C.Rho = A;
  C.Var = V;
  C.Actions.push_back({CondAction::Kind::AddElemAllKinds, B, Out});
  CS.addConditional(std::move(C));
  CS.solve();
  EXPECT_TRUE(CS.memberAnyKind(B, Out));
}

TEST_F(EffectsFixture, ConditionalDoesNotFireOtherwise) {
  EffVar V = CS.makeVar(), Out = CS.makeVar();
  LocId A = Locs.fresh(), B = Locs.fresh();
  CondConstraint C;
  C.P = CondConstraint::Premise::LocInVar;
  C.Rho = A;
  C.Var = V;
  C.Actions.push_back({CondAction::Kind::AddElemAllKinds, B, Out});
  CS.addConditional(std::move(C));
  CS.solve();
  EXPECT_TRUE(CS.solution(Out).empty());
  EXPECT_EQ(CS.stats().CondFirings, 0u);
}

TEST_F(EffectsFixture, ConditionalChainsFireTransitively) {
  // C1's action satisfies C2's premise.
  EffVar V1 = CS.makeVar(), V2 = CS.makeVar(), Out = CS.makeVar();
  LocId A = Locs.fresh(), B = Locs.fresh(), Z = Locs.fresh();
  CS.addElement(EffectKind::Read, A, V1);
  CondConstraint C1;
  C1.P = CondConstraint::Premise::LocInVar;
  C1.Rho = A;
  C1.Var = V1;
  C1.Actions.push_back({CondAction::Kind::AddElemAllKinds, B, V2});
  CS.addConditional(std::move(C1));
  CondConstraint C2;
  C2.P = CondConstraint::Premise::LocInVar;
  C2.Rho = B;
  C2.Var = V2;
  C2.Actions.push_back({CondAction::Kind::AddElemReadWrite, Z, Out});
  CS.addConditional(std::move(C2));
  CS.solve();
  EXPECT_TRUE(CS.member(EffectKind::Read, Z, Out));
  EXPECT_TRUE(CS.member(EffectKind::Write, Z, Out));
  EXPECT_FALSE(CS.member(EffectKind::Alloc, Z, Out));
  EXPECT_EQ(CS.stats().CondFirings, 2u);
}

TEST_F(EffectsFixture, SideEffectPremiseIgnoresReads) {
  EffVar V = CS.makeVar(), Out = CS.makeVar();
  LocId A = Locs.fresh(), B = Locs.fresh();
  CS.addElement(EffectKind::Read, A, V);
  CondConstraint C;
  C.P = CondConstraint::Premise::SideEffectNonEmpty;
  C.Var = V;
  C.Actions.push_back({CondAction::Kind::AddElemAllKinds, B, Out});
  CS.addConditional(std::move(C));
  CS.solve();
  EXPECT_TRUE(CS.solution(Out).empty());
}

TEST_F(EffectsFixture, SideEffectPremiseFiresOnWriteOrAlloc) {
  for (EffectKind K : {EffectKind::Write, EffectKind::Alloc}) {
    LocTable Locs2;
    ConstraintSystem CS2(Locs2);
    EffVar V = CS2.makeVar(), Out = CS2.makeVar();
    LocId A = Locs2.fresh(), B = Locs2.fresh();
    CS2.addElement(K, A, V);
    CondConstraint C;
    C.P = CondConstraint::Premise::SideEffectNonEmpty;
    C.Var = V;
    C.Actions.push_back({CondAction::Kind::AddElemAllKinds, B, Out});
    CS2.addConditional(std::move(C));
    CS2.solve();
    EXPECT_TRUE(CS2.memberAnyKind(B, Out));
  }
}

TEST_F(EffectsFixture, ReadWriteOverlapPremise) {
  EffVar Reads = CS.makeVar(), Writes = CS.makeVar(), Out = CS.makeVar();
  LocId A = Locs.fresh(), B = Locs.fresh(), Z = Locs.fresh();
  CS.addElement(EffectKind::Read, A, Reads);
  CS.addElement(EffectKind::Write, B, Writes); // disjoint: no overlap
  CondConstraint C;
  C.P = CondConstraint::Premise::ReadWriteOverlap;
  C.VarA = Reads;
  C.Var = Writes;
  C.Actions.push_back({CondAction::Kind::AddElemAllKinds, Z, Out});
  CS.addConditional(std::move(C));
  CS.solve();
  EXPECT_TRUE(CS.solution(Out).empty());
}

TEST_F(EffectsFixture, ReadWriteOverlapFiresAfterUnification) {
  // Reads {read(A)}, writes {write(B)}: overlap only if A = B, which a
  // first conditional establishes.
  EffVar Reads = CS.makeVar(), Writes = CS.makeVar(), Out = CS.makeVar(),
         Trig = CS.makeVar();
  LocId A = Locs.fresh(), B = Locs.fresh(), T = Locs.fresh(),
        Z = Locs.fresh();
  CS.addElement(EffectKind::Read, A, Reads);
  CS.addElement(EffectKind::Write, B, Writes);
  CS.addElement(EffectKind::Read, T, Trig);
  CondConstraint C1;
  C1.P = CondConstraint::Premise::LocInVar;
  C1.Rho = T;
  C1.Var = Trig;
  C1.Actions.push_back({CondAction::Kind::UnifyLocs, A, B});
  CS.addConditional(std::move(C1));
  CondConstraint C2;
  C2.P = CondConstraint::Premise::ReadWriteOverlap;
  C2.VarA = Reads;
  C2.Var = Writes;
  C2.Actions.push_back({CondAction::Kind::AddElemAllKinds, Z, Out});
  CS.addConditional(std::move(C2));
  CS.solve();
  EXPECT_TRUE(CS.memberAnyKind(Z, Out));
}

TEST_F(EffectsFixture, AddEdgeActionFlowsExistingSolution) {
  EffVar Src = CS.makeVar(), Dst = CS.makeVar(), Trig = CS.makeVar();
  LocId A = Locs.fresh(), T = Locs.fresh();
  CS.addElement(EffectKind::Alloc, A, Src);
  CS.addElement(EffectKind::Read, T, Trig);
  CondConstraint C;
  C.P = CondConstraint::Premise::LocInVar;
  C.Rho = T;
  C.Var = Trig;
  C.Actions.push_back({CondAction::Kind::AddEdge, Src, Dst});
  CS.addConditional(std::move(C));
  CS.solve();
  EXPECT_TRUE(CS.member(EffectKind::Alloc, A, Dst));
}

//===----------------------------------------------------------------------===//
// Backwards search (Section 6.2)
//===----------------------------------------------------------------------===//

TEST_F(EffectsFixture, FilteredSolveCoversQueriedVariables) {
  EffVar V1 = CS.makeVar(), V2 = CS.makeVar(), Unrelated = CS.makeVar();
  LocId A = Locs.fresh(), B = Locs.fresh();
  CS.addElement(EffectKind::Read, A, V1);
  CS.addEdge(V1, V2);
  CS.addElement(EffectKind::Write, B, Unrelated);
  CS.solve({V2});
  EXPECT_TRUE(CS.member(EffectKind::Read, A, V2));
}

TEST_F(EffectsFixture, FilteredSolveGivesSameAnswersAsFull) {
  // Build the same system twice; compare queried variables' solutions.
  auto Build = [](ConstraintSystem &S, LocTable &L, std::vector<EffVar> &Vs,
                  std::vector<LocId> &Ls) {
    for (int I = 0; I < 10; ++I)
      Vs.push_back(S.makeVar());
    for (int I = 0; I < 4; ++I)
      Ls.push_back(L.fresh());
    S.addElement(EffectKind::Read, Ls[0], Vs[0]);
    S.addElement(EffectKind::Write, Ls[1], Vs[1]);
    S.addElement(EffectKind::Alloc, Ls[2], Vs[5]);
    S.addEdge(Vs[0], Vs[2]);
    S.addEdge(Vs[1], Vs[2]);
    S.addEdge(Vs[2], Vs[3]);
    S.addEdge(Vs[5], Vs[6]);
    S.addIntersection(InterOperand::var(Vs[2]), InterOperand::var(Vs[1]),
                      Vs[4]);
  };
  LocTable LF, LB;
  ConstraintSystem Full(LF), Filtered(LB);
  std::vector<EffVar> VF, VB;
  std::vector<LocId> LsF, LsB;
  Build(Full, LF, VF, LsF);
  Build(Filtered, LB, VB, LsB);
  Full.solve();
  Filtered.solve({VB[3], VB[4]});
  EXPECT_EQ(Full.solution(VF[3]), Filtered.solution(VB[3]));
  EXPECT_EQ(Full.solution(VF[4]), Filtered.solution(VB[4]));
}

//===----------------------------------------------------------------------===//
// Term normalization (Figure 4b)
//===----------------------------------------------------------------------===//

TEST_F(EffectsFixture, NormalizeUnionSplits) {
  TermPool Pool;
  EffVar Target = CS.makeVar();
  LocId A = Locs.fresh(), B = Locs.fresh();
  TermId T = Pool.unite(Pool.elem(EffectKind::Read, A),
                        Pool.elem(EffectKind::Write, B));
  normalizeInclusion(Pool, T, Target, CS);
  CS.solve();
  EXPECT_TRUE(CS.member(EffectKind::Read, A, Target));
  EXPECT_TRUE(CS.member(EffectKind::Write, B, Target));
}

TEST_F(EffectsFixture, NormalizeEmptyDropsConstraint) {
  TermPool Pool;
  EffVar Target = CS.makeVar();
  normalizeInclusion(Pool, Pool.empty(), Target, CS);
  CS.solve();
  EXPECT_TRUE(CS.solution(Target).empty());
}

TEST_F(EffectsFixture, NormalizeIntersectionOfUnions) {
  // ({read A} u {read B}) n ({read B} u {read C}) <= Target: only read B.
  TermPool Pool;
  EffVar Target = CS.makeVar();
  LocId A = Locs.fresh(), B = Locs.fresh(), C = Locs.fresh();
  TermId Left = Pool.unite(Pool.elem(EffectKind::Read, A),
                           Pool.elem(EffectKind::Read, B));
  TermId Right = Pool.unite(Pool.elem(EffectKind::Read, B),
                            Pool.elem(EffectKind::Read, C));
  normalizeInclusion(Pool, Pool.inter(Left, Right), Target, CS);
  CS.solve();
  EXPECT_FALSE(CS.member(EffectKind::Read, A, Target));
  EXPECT_TRUE(CS.member(EffectKind::Read, B, Target));
  EXPECT_FALSE(CS.member(EffectKind::Read, C, Target));
}

TEST_F(EffectsFixture, NormalizeIntersectionWithEmptyDrops) {
  TermPool Pool;
  EffVar Target = CS.makeVar();
  LocId A = Locs.fresh();
  normalizeInclusion(
      Pool, Pool.inter(Pool.empty(), Pool.elem(EffectKind::Read, A)), Target,
      CS);
  normalizeInclusion(
      Pool, Pool.inter(Pool.elem(EffectKind::Read, A), Pool.empty()), Target,
      CS);
  CS.solve();
  EXPECT_TRUE(CS.solution(Target).empty());
}

TEST_F(EffectsFixture, NormalizeNestedIntersections) {
  // (A n A) n A <= Target keeps A's single common element.
  TermPool Pool;
  EffVar V = CS.makeVar(), Target = CS.makeVar();
  LocId X = Locs.fresh();
  CS.addElement(EffectKind::Alloc, X, V);
  TermId Inner = Pool.inter(Pool.var(V), Pool.var(V));
  normalizeInclusion(Pool, Pool.inter(Inner, Pool.var(V)), Target, CS);
  CS.solve();
  EXPECT_TRUE(CS.member(EffectKind::Alloc, X, Target));
}

TEST_F(EffectsFixture, VarForTermReturnsExistingVarDirectly) {
  TermPool Pool;
  EffVar V = CS.makeVar();
  EXPECT_EQ(varForTerm(Pool, Pool.var(V), CS), V);
  // Non-variable terms get a fresh variable.
  LocId A = Locs.fresh();
  EffVar W = varForTerm(Pool, Pool.elem(EffectKind::Read, A), CS);
  EXPECT_NE(W, V);
  CS.solve();
  EXPECT_TRUE(CS.member(EffectKind::Read, A, W));
}

TEST_F(EffectsFixture, UniteAllFoldsLists) {
  TermPool Pool;
  EXPECT_EQ(Pool.node(Pool.uniteAll({})).K, TermPool::Kind::Empty);
  LocId A = Locs.fresh(), B = Locs.fresh();
  EffVar Target = CS.makeVar();
  TermId T = Pool.uniteAll({Pool.elem(EffectKind::Read, A),
                            Pool.elem(EffectKind::Read, B), Pool.empty()});
  normalizeInclusion(Pool, T, Target, CS);
  CS.solve();
  EXPECT_EQ(CS.solution(Target).size(), 2u);
}

//===----------------------------------------------------------------------===//
// Fuzzer-seeded: normalization idempotence and re-canonicalization
//===----------------------------------------------------------------------===//

TEST_F(EffectsFixture, NormalizationIsIdempotent) {
  // Installing the same `L <= Target` twice must not change the least
  // solution: the Figure 4b rewriting only ever *adds* the constraints
  // the first installation already implied.
  TermPool Pool;
  LocId A = Locs.fresh();
  LocId B = Locs.fresh();
  EffVar E1 = CS.makeVar();
  CS.addElement(EffectKind::Write, B, E1);
  TermId L = Pool.unite(Pool.elem(EffectKind::Read, A),
                        Pool.inter(Pool.var(E1), Pool.var(E1)));
  EffVar Target = CS.makeVar();
  normalizeInclusion(Pool, L, Target, CS);
  ConstraintSystem Once{Locs};
  // Mirror the single installation into a sibling system over the same
  // locations to compare least solutions.
  EffVar OE1 = Once.makeVar();
  Once.addElement(EffectKind::Write, B, OE1);
  EffVar OTarget = Once.makeVar();
  normalizeInclusion(Pool, L, OTarget, Once);
  normalizeInclusion(Pool, L, Target, CS); // second installation
  CS.solve();
  Once.solve();
  EXPECT_EQ(CS.solution(Target), Once.solution(OTarget));
  EXPECT_TRUE(CS.member(EffectKind::Read, A, Target));
  EXPECT_TRUE(CS.member(EffectKind::Write, B, Target));
}

TEST_F(EffectsFixture, VarForTermIsStableAcrossCalls) {
  TermPool Pool;
  LocId A = Locs.fresh();
  TermId L = Pool.unite(Pool.elem(EffectKind::Read, A), Pool.empty());
  EffVar V1 = varForTerm(Pool, L, CS);
  EffVar V2 = varForTerm(Pool, L, CS);
  CS.solve();
  EXPECT_EQ(CS.solution(V1), CS.solution(V2));
  EXPECT_TRUE(CS.member(EffectKind::Read, A, V1));
}

TEST_F(EffectsFixture, SolutionsRecanonicalizeAfterConditionalUnify) {
  // A conditional firing unify(A, B) must fold the two locations'
  // elements together in every stored solution, so membership queries
  // through either name agree afterwards (the fuzzer's solver-agreement
  // oracle depends on this).
  EffVar V = CS.makeVar();
  EffVar W = CS.makeVar();
  LocId A = Locs.fresh();
  LocId B = Locs.fresh();
  CS.addElement(EffectKind::Read, A, V);
  CS.addElement(EffectKind::Read, B, V);
  CS.addElement(EffectKind::Write, A, W);
  CondConstraint C;
  C.P = CondConstraint::Premise::LocInVar;
  C.Rho = A;
  C.Var = V;
  C.Actions.push_back(
      {CondAction::Kind::UnifyLocs, static_cast<uint32_t>(A),
       static_cast<uint32_t>(B)});
  CS.addConditional(std::move(C));
  CS.solve();
  EXPECT_TRUE(Locs.sameClass(A, B));
  // read(A) and read(B) collapsed into one canonical element.
  EXPECT_EQ(CS.solution(V).size(), 1u);
  // Queries through the non-representative name canonicalize too.
  EXPECT_TRUE(CS.member(EffectKind::Read, A, V));
  EXPECT_TRUE(CS.member(EffectKind::Read, B, V));
  EXPECT_TRUE(CS.member(EffectKind::Write, B, W));
  EXPECT_TRUE(CS.memberAnyKind(B, V));
}

TEST_F(EffectsFixture, ChainedConditionalUnifiesRecanonicalize) {
  // Second-round firing: unifying (A, B) makes B's access visible as A's,
  // which fires a second conditional that unifies (B, C). All three
  // classes end up merged and every stored element canonical.
  EffVar V = CS.makeVar();
  LocId A = Locs.fresh();
  LocId B = Locs.fresh();
  LocId C = Locs.fresh();
  CS.addElement(EffectKind::Write, A, V);
  CondConstraint C1;
  C1.P = CondConstraint::Premise::LocInVar;
  C1.Rho = A;
  C1.Var = V;
  C1.Actions.push_back(
      {CondAction::Kind::UnifyLocs, static_cast<uint32_t>(A),
       static_cast<uint32_t>(B)});
  CS.addConditional(std::move(C1));
  CondConstraint C2;
  C2.P = CondConstraint::Premise::LocInVar;
  C2.Rho = B;
  C2.Var = V;
  C2.Actions.push_back(
      {CondAction::Kind::UnifyLocs, static_cast<uint32_t>(B),
       static_cast<uint32_t>(C)});
  CS.addConditional(std::move(C2));
  CS.solve();
  EXPECT_TRUE(Locs.sameClass(A, B));
  EXPECT_TRUE(Locs.sameClass(B, C));
  EXPECT_EQ(CS.solution(V).size(), 1u);
  EXPECT_TRUE(CS.member(EffectKind::Write, C, V));
}

TEST_F(EffectsFixture, SolutionToStringRendersElements) {
  EffVar V = CS.makeVar();
  LocId A = Locs.fresh();
  CS.addElement(EffectKind::Read, A, V);
  CS.solve();
  std::string S = CS.solutionToString(V);
  EXPECT_NE(S.find("read(rho"), std::string::npos);
}

TEST_F(EffectsFixture, StatsCountQueriesAndFirings) {
  EffVar V = CS.makeVar();
  LocId A = Locs.fresh();
  CS.addElement(EffectKind::Read, A, V);
  CS.reachesAnyKind(A, V);
  EXPECT_GE(CS.stats().CheckSatQueries, 1u);
}

} // namespace

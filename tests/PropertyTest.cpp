//===- PropertyTest.cpp - Cross-cutting invariants ------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Property-style sweeps over generated programs and random constraint
// systems:
//
//  * inference soundness: materializing the inferred restricts (rewriting
//    the inferred `let`s as explicit `restrict`s) yields a program the
//    *checker* accepts, and marking any single non-inferred pointer `let`
//    as restrict is rejected -- i.e. the inferred set is exactly the
//    unique maximum (Section 5's optimality);
//  * analysis-mode monotonicity over the corpus generator's modules;
//  * backwards-search solver equivalence on whole modules;
//  * least-solution minimality vs. brute-force fixpoints on random
//    systems.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "corpus/Experiment.h"
#include "lang/AstPrinter.h"
#include "qual/LockAnalysis.h"

#include <gtest/gtest.h>

using namespace lna;

namespace {

//===----------------------------------------------------------------------===//
// Inference soundness and maximality
//===----------------------------------------------------------------------===//

/// Programs with interesting let/alias structure for the soundness sweep.
const char *SoundnessPrograms[] = {
    "fun f(q : ptr int) : int { let p = q in *p }",
    "fun f(q : ptr int) : int { let p = q in { *p; *q } }",
    "var x : ptr int;\n"
    "fun f(q : ptr int) : int { let p = q in { x := p; 0 } }",
    "fun f(q : ptr int) : int { let p = q in let r = p in *r }",
    "fun f(q : ptr int) : int {\n"
    "  let a = q in *a;\n"
    "  let b = q in *b\n}",
    "fun f(q : ptr int) : int {\n"
    "  let a = q in { *a; let b = q in *b }\n}",
    "fun touch(q : ptr int) : int { *q }\n"
    "fun f(q : ptr int) : int { let p = q in { touch(q); *p } }",
    "fun touch(q : ptr int) : int { *q }\n"
    "fun f(q : ptr int) : int { let p = q in touch(p) }",
    "var a : array lock;\n"
    "fun f(i : int) : int {\n"
    "  let p = a[i] in { spin_lock(p); work(); spin_unlock(p) } }",
    "fun f(q : ptr int, w : ptr int) : int {\n"
    "  let y = q in { *y; *q };\n"
    "  let z = w in *z\n}",
    "fun f(q : ptr ptr int) : int { let p = q in { **p } }",
    "fun f(q : ptr int) : ptr int { let p = q in p }",
};

struct InferThenCheck : ::testing::TestWithParam<const char *> {};

/// Prints the program with the inferred restricts materialized, then runs
/// the annotation checker over it.
bool materializedProgramChecks(const char *Src,
                               const std::set<ExprId> &ExtraRestricts) {
  // Round 1: infer.
  PipelineOptions Opts;
  Opts.PlaceConfines = false;
  AnalysisSession S(Opts);
  EXPECT_TRUE(S.run(Src)) << S.diags().render();

  PrintOverlay Overlay;
  Overlay.BindAsRestrict = S.result().Inference.RestrictableBinds;
  for (ExprId Id : ExtraRestricts)
    Overlay.BindAsRestrict.insert(Id);
  std::string Materialized =
      AstPrinter(S.context(), &Overlay).print(S.result().Analyzed);

  // Round 2: check the materialized program.
  PipelineOptions CheckOpts;
  CheckOpts.Mode = PipelineMode::CheckAnnotations;
  // Inference uses the liberal restrict-effect semantics (Section 5,
  // footnote 2); check the materialized annotations under the same.
  CheckOpts.LiberalRestrictEffect = true;
  AnalysisSession S2(CheckOpts);
  bool Ok = S2.run(Materialized);
  EXPECT_TRUE(Ok) << S2.diags().render() << "\n" << Materialized;
  return Ok && S2.result().Checks.ok();
}

TEST_P(InferThenCheck, InferredRestrictsPassTheChecker) {
  EXPECT_TRUE(materializedProgramChecks(GetParam(), {}));
}

TEST_P(InferThenCheck, InferredSetIsMaximal) {
  // Adding any single non-inferred pointer let as restrict must fail the
  // checker (otherwise the inferred set was not maximum).
  PipelineOptions Opts;
  Opts.PlaceConfines = false;
  AnalysisSession S(Opts);
  ASSERT_TRUE(S.run(GetParam())) << S.diags().render();
  const PipelineResult &R = S.result();
  for (const BindInfo &BI : R.Alias.Binds) {
    if (!BI.IsPointer || BI.ExplicitRestrict)
      continue;
    if (R.Inference.RestrictableBinds.count(BI.Id))
      continue;
    EXPECT_FALSE(materializedProgramChecks(GetParam(), {BI.Id}))
        << "bind " << BI.Id << " was not inferred but passes checking";
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, InferThenCheck,
                         ::testing::ValuesIn(SoundnessPrograms));

//===----------------------------------------------------------------------===//
// Analysis-mode monotonicity over generated modules
//===----------------------------------------------------------------------===//

struct ModeMonotonicity
    : ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(ModeMonotonicity, StrongLeqConfineLeqNoConfine) {
  auto [CatIdx, Seed] = GetParam();
  ModuleCategory Cat = static_cast<ModuleCategory>(CatIdx);
  ModuleSpec M = generateModule(Cat, Seed + 1, 4 + Seed % 5);
  ModuleModeResult R = analyzeModuleAllModes(M.Source);
  ASSERT_TRUE(R.Ok) << R.Error;
  // All-strong is the upper bound on what confine can recover; confine
  // never makes things worse than no confine.
  EXPECT_LE(R.Counts.AllStrong, R.Counts.ConfineInference);
  EXPECT_LE(R.Counts.ConfineInference, R.Counts.NoConfine);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModeMonotonicity,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u),
                       ::testing::Range(0u, 8u)));

//===----------------------------------------------------------------------===//
// Backwards-search equivalence on whole modules
//===----------------------------------------------------------------------===//

struct BackwardsEquivalence : ::testing::TestWithParam<uint32_t> {};

TEST_P(BackwardsEquivalence, SameInferenceResults) {
  ModuleSpec M =
      generateModule(ModuleCategory::Recoverable, GetParam() + 11, 8);
  auto Run = [&](bool Backwards) {
    PipelineOptions Opts;
    Opts.UseBackwardsSearch = Backwards;
    AnalysisSession S(Opts);
    EXPECT_TRUE(S.run(M.Source)) << S.diags().render();
    // Compare the *shape* of the results (counts are id-stable across the
    // two runs because parsing is deterministic).
    return std::make_pair(S.result().Inference.RestrictableBinds,
                          S.result().Inference.SucceededConfines);
  };
  auto Full = Run(false);
  auto Back = Run(true);
  EXPECT_EQ(Full.first, Back.first);
  EXPECT_EQ(Full.second, Back.second);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BackwardsEquivalence,
                         ::testing::Range(0u, 10u));

//===----------------------------------------------------------------------===//
// Least-solution minimality vs. brute force on random systems
//===----------------------------------------------------------------------===//

struct LeastSolution : ::testing::TestWithParam<uint32_t> {};

TEST_P(LeastSolution, PropagationMatchesNaiveFixpoint) {
  uint64_t S = (GetParam() + 1) * 0x9e3779b97f4a7c15ULL;
  auto Next = [&S]() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  };
  LocTable Locs;
  ConstraintSystem CS(Locs);
  const int NumVars = 12;
  const int NumLocs = 5;
  std::vector<EffVar> Vars;
  std::vector<LocId> Ls;
  for (int I = 0; I < NumVars; ++I)
    Vars.push_back(CS.makeVar());
  for (int I = 0; I < NumLocs; ++I)
    Ls.push_back(Locs.fresh());

  struct Edge {
    int From, To;
  };
  struct Seed {
    int Kind, Loc, Var;
  };
  struct Inter {
    int A, B, Out;
  };
  std::vector<Edge> Edges;
  std::vector<Seed> Seeds;
  std::vector<Inter> Inters;
  for (int I = 0; I < 8; ++I)
    Seeds.push_back({int(Next() % 3), int(Next() % NumLocs),
                     int(Next() % NumVars)});
  for (int I = 0; I < 14; ++I)
    Edges.push_back({int(Next() % NumVars), int(Next() % NumVars)});
  for (int I = 0; I < 4; ++I)
    Inters.push_back({int(Next() % NumVars), int(Next() % NumVars),
                      int(Next() % NumVars)});

  for (const Seed &X : Seeds)
    CS.addElement(static_cast<EffectKind>(X.Kind), Ls[X.Loc], Vars[X.Var]);
  for (const Edge &E : Edges)
    CS.addEdge(Vars[E.From], Vars[E.To]);
  for (const Inter &I : Inters)
    CS.addIntersection(InterOperand::var(Vars[I.A]),
                       InterOperand::var(Vars[I.B]), Vars[I.Out]);
  CS.solve();

  // Naive fixpoint over explicit sets.
  using Set = std::set<std::pair<int, int>>; // (kind, loc index)
  std::vector<Set> Sol(NumVars);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const Seed &X : Seeds)
      Changed |= Sol[X.Var].insert({X.Kind, X.Loc}).second;
    for (const Edge &E : Edges)
      for (const auto &El : Sol[E.From])
        Changed |= Sol[E.To].insert(El).second;
    for (const Inter &I : Inters)
      for (const auto &El : Sol[I.A])
        if (Sol[I.B].count(El))
          Changed |= Sol[I.Out].insert(El).second;
  }

  for (int V = 0; V < NumVars; ++V) {
    EXPECT_EQ(CS.solution(Vars[V]).size(), Sol[V].size()) << "var " << V;
    for (const auto &[K, L] : Sol[V])
      EXPECT_TRUE(
          CS.member(static_cast<EffectKind>(K), Ls[L], Vars[V]))
          << "var " << V;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LeastSolution, ::testing::Range(0u, 25u));

//===----------------------------------------------------------------------===//
// Qual determinism
//===----------------------------------------------------------------------===//

struct QualDeterminism : ::testing::TestWithParam<uint32_t> {};

TEST_P(QualDeterminism, RepeatedAnalysisIsStable) {
  ModuleSpec M = generateModule(ModuleCategory::Hard, GetParam() + 3, 4);
  ModuleModeResult A = analyzeModuleAllModes(M.Source);
  ModuleModeResult B = analyzeModuleAllModes(M.Source);
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_TRUE(A.Counts == B.Counts);
}

INSTANTIATE_TEST_SUITE_P(Sweep, QualDeterminism, ::testing::Range(0u, 6u));

} // namespace

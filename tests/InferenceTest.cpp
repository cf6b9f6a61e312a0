//===- InferenceTest.cpp - Restrict/confine inference tests ---*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"

#include <gtest/gtest.h>

using namespace lna;

namespace {

struct Inferred {
  std::unique_ptr<AnalysisSession> S;
  const PipelineResult *R = nullptr;

  void run(std::string_view Src, bool PlaceConfines = false,
           bool Backwards = false) {
    PipelineOptions Opts;
    Opts.PlaceConfines = PlaceConfines;
    Opts.UseBackwardsSearch = Backwards;
    S = std::make_unique<AnalysisSession>(Opts);
    ASSERT_TRUE(S->run(Src)) << S->diags().render();
    R = &S->result();
  }

  ASTContext &ctx() { return S->context(); }

  /// The bind node for variable \p Name (first match).
  const BindInfo *bindOf(const std::string &Name) {
    Symbol Sym = ctx().intern(Name);
    for (const BindInfo &BI : R->Alias.Binds) {
      const auto *B = cast<BindExpr>(ctx().expr(BI.Id));
      if (B->name() == Sym)
        return &BI;
    }
    return nullptr;
  }

  bool inferredRestrict(const std::string &Name) {
    const BindInfo *BI = bindOf(Name);
    EXPECT_NE(BI, nullptr);
    return BI && R->Inference.RestrictableBinds.count(BI->Id) != 0;
  }
};

//===----------------------------------------------------------------------===//
// Restrict inference (Section 5)
//===----------------------------------------------------------------------===//

TEST(RestrictInference, UnaliasedLetBecomesRestrict) {
  Inferred I;
  I.run("fun f(q : ptr int) : int { let p = q in *p }");
  EXPECT_TRUE(I.inferredRestrict("p"));
}

TEST(RestrictInference, AliasUseInBodyPreventsRestrict) {
  Inferred I;
  I.run("fun f(q : ptr int) : int { let p = q in { *p; *q } }");
  EXPECT_FALSE(I.inferredRestrict("p"));
}

TEST(RestrictInference, EscapePreventsRestrict) {
  Inferred I;
  I.run("var x : ptr int;\n"
        "fun f(q : ptr int) : int { let p = q in { x := p; 0 } }");
  EXPECT_FALSE(I.inferredRestrict("p"));
}

TEST(RestrictInference, ReturnEscapePreventsRestrict) {
  Inferred I;
  I.run("fun f(q : ptr int) : ptr int { let p = q in p }");
  EXPECT_FALSE(I.inferredRestrict("p"));
}

TEST(RestrictInference, UnusedBindingIsRestrictable) {
  Inferred I;
  I.run("fun f(q : ptr int) : int { let p = q in 0 }");
  EXPECT_TRUE(I.inferredRestrict("p"));
}

TEST(RestrictInference, IntBindingsAreNeverCandidates) {
  Inferred I;
  I.run("fun f() : int { let n = 3 in n + 1 }");
  const BindInfo *BI = I.bindOf("n");
  ASSERT_NE(BI, nullptr);
  EXPECT_FALSE(BI->IsPointer);
  EXPECT_TRUE(I.R->Inference.RestrictableBinds.empty());
}

TEST(RestrictInference, MutuallyInterferingBindingsBothStayLets) {
  Inferred I;
  I.run("fun f(q : ptr int) : int {\n"
        "  let a = q in let b = q in { *a; *b }\n}");
  // Each binder's scope accesses the location through the *other* name,
  // so neither satisfies (Restrict): the maximum restrictable set is
  // empty here.
  EXPECT_FALSE(I.inferredRestrict("a"));
  EXPECT_FALSE(I.inferredRestrict("b"));
}

TEST(RestrictInference, InnerBindingRestrictableWhenOuterUseIsOutside) {
  Inferred I;
  I.run("fun f(q : ptr int) : int {\n"
        "  let a = q in { *a; let b = q in *b }\n}");
  // *b inside a's scope kills a; b's own scope contains only *b.
  EXPECT_FALSE(I.inferredRestrict("a"));
  EXPECT_TRUE(I.inferredRestrict("b"));
}

TEST(RestrictInference, ChainedCopiesStayRestrictable) {
  Inferred I;
  // A local copy inside the scope is allowed (Section 2's third example).
  I.run("fun f(q : ptr int) : int { let p = q in let r = p in *r }");
  EXPECT_TRUE(I.inferredRestrict("p"));
  EXPECT_TRUE(I.inferredRestrict("r"));
}

TEST(RestrictInference, MaximumSetIsUniqueAndSound) {
  // A mix: one binding that must stay a let (its location is also used
  // through the original name inside its scope) next to one that can be
  // restricted; the least solution restricts exactly the latter.
  Inferred I;
  I.run("fun f(x : ptr int, w : ptr int) : int {\n"
        "  let y = x in { *y; *x };\n"
        "  let z = w in *z\n}");
  EXPECT_FALSE(I.inferredRestrict("y"));
  EXPECT_TRUE(I.inferredRestrict("z"));
}

TEST(RestrictInference, WriteAccessAlsoCounts) {
  Inferred I;
  I.run("fun f(q : ptr int) : int { let p = q in { q := 3; *p } }");
  EXPECT_FALSE(I.inferredRestrict("p"));
}

TEST(RestrictInference, SiblingScopesDoNotInterfere) {
  Inferred I;
  I.run("fun f(q : ptr int) : int {\n"
        "  let a = q in *a;\n"
        "  let b = q in *b\n}");
  EXPECT_TRUE(I.inferredRestrict("a"));
  EXPECT_TRUE(I.inferredRestrict("b"));
}

TEST(RestrictInference, ExplicitRestrictViolationIsReported) {
  Inferred I;
  I.run("fun f(q : ptr int) : int { restrict p = q in { *p; *q } }");
  EXPECT_FALSE(I.R->Inference.Violations.empty());
}

TEST(RestrictInference, ExplicitValidRestrictHasNoViolations) {
  Inferred I;
  I.run("fun f(q : ptr int) : int { restrict p = q in *p }");
  EXPECT_TRUE(I.R->Inference.Violations.empty());
}

TEST(RestrictInference, CastTaintedLocationIsNotRestrictable) {
  Inferred I;
  I.run("var raw : ptr int;\n"
        "fun f() : int { let p = cast<ptr lock>(*raw) in 0 }");
  EXPECT_FALSE(I.inferredRestrict("p"));
}

TEST(RestrictInference, CalleeAccessThroughAliasPreventsRestrict) {
  Inferred I;
  // touch() accesses *q; calling it inside p's scope accesses rho through
  // a name other than p.
  I.run("fun touch(q : ptr int) : int { *q }\n"
        "fun f(q : ptr int) : int { let p = q in { touch(q); *p } }");
  EXPECT_FALSE(I.inferredRestrict("p"));
}

TEST(RestrictInference, CalleeAccessThroughTheBinderItselfIsFine) {
  Inferred I;
  I.run("fun touch(q : ptr int) : int { *q }\n"
        "fun f(q : ptr int) : int { let p = q in touch(p) }");
  EXPECT_TRUE(I.inferredRestrict("p"));
}

TEST(RestrictInference, BackwardsSearchGivesSameResults) {
  const char *Src = "var x : ptr int;\n"
                    "fun f(q : ptr int, r : ptr int) : int {\n"
                    "  let a = q in *a;\n"
                    "  let b = q in { x := b; 0 };\n"
                    "  let c = r in { *r; *c }\n}";
  Inferred Full, Back;
  Full.run(Src, false, false);
  Back.run(Src, false, true);
  auto Names = {"a", "b", "c"};
  for (const char *N : Names)
    EXPECT_EQ(Full.inferredRestrict(N), Back.inferredRestrict(N)) << N;
}

//===----------------------------------------------------------------------===//
// Confine inference (Section 6) -- explicit confines in inference mode
// and automatically placed confine? candidates.
//===----------------------------------------------------------------------===//

TEST(ConfineInference, ExplicitConfineVerifiesInInferMode) {
  Inferred I;
  I.run("var locks : array lock;\n"
        "fun f(i : int) : int {\n"
        "  confine locks[i] in { spin_lock(locks[i]);"
        " spin_unlock(locks[i]) } }");
  EXPECT_TRUE(I.R->Inference.Violations.empty());
  EXPECT_EQ(I.R->Inference.SucceededConfines.size(), 1u);
}

TEST(ConfineInference, PlacementInsertsAndVerifiesCandidates) {
  Inferred I;
  I.run("var locks : array lock;\n"
        "fun f(i : int) : int {\n"
        "  spin_lock(locks[i]); work(); spin_unlock(locks[i]) }",
        /*PlaceConfines=*/true);
  EXPECT_FALSE(I.R->OptionalConfines.empty());
  EXPECT_FALSE(I.R->Inference.SucceededConfines.empty());
}

TEST(ConfineInference, FailedCandidateIsNotAnError) {
  Inferred I;
  // The subject escapes within the scope: the candidate fails, silently.
  I.run("var locks : array lock;\nvar saved : ptr lock;\n"
        "fun f(i : int) : int {\n"
        "  spin_lock(locks[i]);\n"
        "  saved := locks[i];\n"
        "  work();\n"
        "  spin_unlock(locks[i]) }",
        /*PlaceConfines=*/true);
  EXPECT_TRUE(I.R->Inference.Violations.empty());
  // Every candidate containing the escape fails. (Singleton-statement
  // candidates around just the lock or just the unlock may still
  // succeed.)
  for (ExprId Id : I.R->Inference.SucceededConfines) {
    const ConfineSiteInfo *CSI = I.R->Alias.confineInfo(Id);
    ASSERT_NE(CSI, nullptr);
    const auto *Conf = cast<ConfineExpr>(I.ctx().expr(Id));
    const auto *Body = cast<BlockExpr>(Conf->body());
    EXPECT_LE(Body->stmts().size(), 1u);
  }
}

TEST(ConfineInference, SubjectWithSideEffectsNeverConfined) {
  Inferred I;
  // *cell reads mutable state that the body writes: not referentially
  // transparent.
  I.run("var g2 : lock;\nvar cell : ptr lock;\n"
        "fun f() : int {\n"
        "  spin_lock(*cell);\n"
        "  cell := g2;\n"
        "  spin_unlock(*cell) }",
        /*PlaceConfines=*/true);
  // The wide candidate spanning the write must fail; the lock state is
  // not recovered for the unlock.
  for (ExprId Id : I.R->Inference.SucceededConfines) {
    const auto *Conf = cast<ConfineExpr>(I.ctx().expr(Id));
    const auto *Body = cast<BlockExpr>(Conf->body());
    EXPECT_LE(Body->stmts().size(), 1u);
  }
}

TEST(ConfineInference, ScopeChainSelectsOutermostSucceeding) {
  Inferred I;
  // Lock/unlock at top level of the function body: the whole-body
  // candidate succeeds.
  I.run("var locks : array lock;\n"
        "fun f(i : int) : int {\n"
        "  spin_lock(locks[i]);\n"
        "  if nondet() then work() else work();\n"
        "  spin_unlock(locks[i]) }",
        /*PlaceConfines=*/true);
  bool FoundWide = false;
  for (ExprId Id : I.R->Inference.SucceededConfines) {
    const auto *Conf = cast<ConfineExpr>(I.ctx().expr(Id));
    const auto *Body = cast<BlockExpr>(Conf->body());
    FoundWide |= Body->stmts().size() == 3;
  }
  EXPECT_TRUE(FoundWide);
}

TEST(ConfineInference, NestedConfinesOfDifferentLocksBothSucceed) {
  Inferred I;
  I.run("var a : array lock;\nvar b : array lock;\n"
        "fun f(i : int, j : int) : int {\n"
        "  spin_lock(a[i]);\n"
        "  spin_lock(b[j]);\n"
        "  work();\n"
        "  spin_unlock(b[j]);\n"
        "  spin_unlock(a[i]) }",
        /*PlaceConfines=*/true);
  // At least two distinct subjects succeeded.
  std::set<std::string> Subjects;
  for (ExprId Id : I.R->Inference.SucceededConfines) {
    const ConfineSiteInfo *CSI = I.R->Alias.confineInfo(Id);
    const auto *Idx = dyn_cast<IndexExpr>(CSI->Subject);
    ASSERT_NE(Idx, nullptr);
    Subjects.insert(
        I.ctx().text(cast<VarRefExpr>(Idx->array())->name()));
  }
  EXPECT_EQ(Subjects.size(), 2u);
}

TEST(ConfineInference, UntrackableSubjectFails) {
  Inferred I;
  I.run("var raw : ptr int;\n"
        "fun f() : int {\n"
        "  let p = cast<ptr lock>(*raw) in {\n"
        "    spin_lock(p); work(); spin_unlock(p) } }",
        /*PlaceConfines=*/true);
  EXPECT_TRUE(I.R->Inference.SucceededConfines.empty());
}

TEST(ConfineInference, OccurrencesShareTheConfinedLocation) {
  Inferred I;
  I.run("var locks : array lock;\n"
        "fun f(i : int) : int {\n"
        "  spin_lock(locks[i]); work(); spin_unlock(locks[i]) }",
        /*PlaceConfines=*/true);
  // Find a succeeded multi-statement confine and check both lock sites'
  // arguments point at its rho'.
  for (ExprId Id : I.R->Inference.SucceededConfines) {
    const ConfineSiteInfo *CSI = I.R->Alias.confineInfo(Id);
    const auto *Conf = cast<ConfineExpr>(I.ctx().expr(Id));
    const auto *Body = dyn_cast<BlockExpr>(Conf->body());
    if (!Body || Body->stmts().size() != 3)
      continue;
    const LocTable &Locs = I.R->State->Locs;
    const TypeTable &Types = I.R->State->Types;
    for (const LockSite &LS : I.R->Alias.LockSites) {
      TypeId T = I.R->Alias.ExprType[LS.Arg->id()];
      // The innermost confine wins occurrence typing; its rho chains up
      // to this confine's rho' or equals it.
      EXPECT_TRUE(Types.isPointerLike(T));
    }
    EXPECT_TRUE(Locs.isLinear(CSI->RhoPrime));
  }
}

} // namespace

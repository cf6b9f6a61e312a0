//===- EffectInference.h - Figure 3 constraint generation -----*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Walks a typed program and generates the effect constraints of Figure 3
/// (with the read/write/alloc effect kinds of Section 6.1):
///
///  * every AST node e gets an effect variable eps_e with inclusion edges
///    from its children plus its own access elements (alloc at `new`,
///    read at `*e`, write at `:=` and at the lock primitives);
///  * type-locations sets locs(t) are memoized as effect variables e_t
///    with constraints `{rho} u e_t' <= e_ref rho(t')`, exactly the
///    memoization trick of Section 4 that avoids quadratic type walks;
///  * environment-locations sets eps_Gamma are threaded through binders
///    with `eps_Gamma u e_t(x) <= eps_Gamma'`;
///  * the effect-removal rule (Down) of Section 3.1 is applied once per
///    function (the paper proves this placement suffices), as the
///    intersection `eps_body n (eps_Gamma_f u e_ret) <= eps_f` feeding
///    the function's latent effect;
///  * for every pointer-typed binding, confine site, and restrict-
///    qualified parameter, the variables the (Restrict)/(Let-or-Restrict)
///    /(Confine?) side conditions need are recorded for the checker
///    (src/core/RestrictChecker) and the inferencer (src/core/Inference).
///
/// Generation is O(n) and produces O(n) constraints, matching Section 4.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_CORE_EFFECTINFERENCE_H
#define LNA_CORE_EFFECTINFERENCE_H

#include "alias/TypeChecker.h"
#include "effects/ConstraintSystem.h"

#include <unordered_map>
#include <vector>

namespace lna {

/// The constraint-relevant variables of one pointer-typed binding
/// (let / restrict / let-or-restrict).
struct BindConstraintVars {
  uint32_t BindIdx = 0;  ///< index into AliasResult::Binds
  EffVar BodyEff = InvalidEffVar; ///< L2, effect of the binder's body
  /// eps_Gamma u e_t1 u e_t2, as a list of shared variables (the union is
  /// virtual; see ConstraintSystem's VarUnion/AnyOf).
  std::vector<EffVar> EscapeVars;
  EffVar ResultVar = InvalidEffVar; ///< effect of the whole bind expression
};

/// The constraint-relevant variables of one confine site.
struct ConfineConstraintVars {
  uint32_t ConfIdx = 0; ///< index into AliasResult::Confines
  EffVar SubjectEff = InvalidEffVar; ///< L1, effect of evaluating e1
  EffVar BodyEff = InvalidEffVar;    ///< L2
  std::vector<EffVar> EscapeVars;
  EffVar PVar = InvalidEffVar; ///< p', the effect of each occurrence of e1
  EffVar ResultVar = InvalidEffVar;
};

/// The constraint-relevant variables of one restrict-qualified parameter.
struct ParamConstraintVars {
  uint32_t ParamRestrictIdx = 0; ///< into AliasResult::ParamRestricts
  EffVar BodyEff = InvalidEffVar;
  std::vector<EffVar> EscapeVars;
};

/// Everything the checker/inferencer needs from constraint generation.
struct EffectInfResult {
  std::vector<EffVar> NodeEff; ///< by ExprId; InvalidEffVar if unwalked
  std::vector<EffVar> FunLatent;  ///< by FunDef::Index
  std::vector<EffVar> FunBodyEff; ///< by FunDef::Index (pre-(Down))
  std::vector<BindConstraintVars> Binds;
  std::vector<ConfineConstraintVars> Confines;
  std::vector<ParamConstraintVars> ParamRestricts;
  EffVar GlobalsEnv = InvalidEffVar; ///< e_Gamma of the global scope
};

/// Options for constraint generation.
struct EffectInferenceOptions {
  /// Apply (Down) at function boundaries. Disabling it (for the ablation
  /// benchmark) makes every function's latent effect its full body effect,
  /// reproducing the failure mode Section 3.1 describes: effects grow all
  /// the way to the root and restrict checking fails spuriously.
  bool ApplyDown = true;
  /// Use the liberal restrict semantics of Section 5 (footnote 2, "the
  /// semantics of restrict in C") for *explicit* annotations too: the
  /// restrict effect {rho} is emitted only if the restricted pointer is
  /// actually used in the scope. The default is the strict Figure 2/3
  /// semantics (unconditional effect). Inference always uses the liberal
  /// form, so round-tripping inferred annotations through the checker
  /// requires this flag.
  bool LiberalRestrictEffect = false;
};

/// Generates Figure 3 constraints into \p CS.
class EffectInference {
public:
  EffectInference(ASTContext &Ctx, const Program &P, const AliasResult &Alias,
                  TypeTable &Types, ConstraintSystem &CS,
                  const EffectInferenceOptions &Opts = {});

  /// Runs generation and returns the recorded variables.
  EffectInfResult run();

private:
  /// The memoized e_t variable for locs(T).
  EffVar typeEffVar(TypeId T);
  /// addEdge stamped with \p E's location and \p Note as provenance (see
  /// ConstraintSystem::setOrigin); the stamp must happen after the
  /// child's own constraints are generated, which argument evaluation
  /// guarantees when called as edge(walk(Child, Env), V, E, "...").
  void edge(EffVar From, EffVar To, const Expr *E, const char *Note) {
    CS.setOrigin(E->loc(), Note);
    CS.addEdge(From, To);
  }
  /// Walks \p E under the environment-locations set, represented as a
  /// list of shared e_t variables whose (virtual) union is eps_Gamma.
  /// Returns eps_E.
  EffVar walk(const Expr *E, const std::vector<EffVar> &EnvList);
  EffVar walkBind(const BindExpr *E, const std::vector<EffVar> &EnvList);
  EffVar walkConfine(const ConfineExpr *E, const std::vector<EffVar> &EnvList);
  EffVar walkCall(const CallExpr *E, const std::vector<EffVar> &EnvList);

  ASTContext &Ctx;
  const Program &Prog;
  const AliasResult &Alias;
  TypeTable &Types;
  ConstraintSystem &CS;
  EffectInferenceOptions Opts;
  EffectInfResult Result;
  std::unordered_map<TypeId, EffVar> TypeEffMemo;
  /// p' variables of valid confines, indexed by confine index, so
  /// occurrence nodes can find them.
  std::vector<EffVar> ConfinePVar;

  Symbol SymSpinLock, SymSpinUnlock, SymWork, SymNondet;
};

} // namespace lna

#endif // LNA_CORE_EFFECTINFERENCE_H

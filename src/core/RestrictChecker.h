//===- RestrictChecker.h - Checking restrict/confine annotations -*- C++ -*-=//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks programmer-written restrict (and confine) annotations, Section
/// 4. For each of the k restricts the checker issues CHECK-SAT queries
/// (Figure 5) against the normal-form constraint graph:
///
///  * `rho not-in L2`: no access to the restricted location within the
///    scope;
///  * `rho' not-in locs(Gamma, t1, t2)`: the fresh location does not
///    escape.
///
/// Each query is O(n), so checking is O(kn) overall -- the paper's bound.
/// At k = 0 there is nothing to query: hasScopesToCheck() says so from
/// the typing results alone, and the session then skips constraint
/// generation, so a checking run with no scope costs typing alone.
///
/// Programmer-written confines additionally need the referential-
/// transparency conditions of Section 6.1, which quantify over the whole
/// effect of the subject; those are checked against the propagated least
/// solution (computed once) rather than per-source queries.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_CORE_RESTRICTCHECKER_H
#define LNA_CORE_RESTRICTCHECKER_H

#include "alias/AliasAnalysis.h"
#include "core/EffectInference.h"

#include <string>
#include <vector>

namespace lna {

/// One violated side condition.
struct RestrictViolation {
  enum class Kind : uint8_t {
    AccessedInScope,       ///< rho in L2
    Escapes,               ///< rho' in locs(Gamma, t1, t2)
    SubjectHasSideEffect,  ///< confine subject writes or allocates
    SubjectModifiedInBody, ///< body writes a location the subject reads
    Untrackable,           ///< location's aliases defeated by a bad cast
  };
  Kind K;
  ExprId Node = InvalidExprId; ///< the bind/confine node (or InvalidExprId
                               ///< for a restrict parameter)
  uint32_t FunIndex = 0;       ///< for restrict parameters
  uint32_t ParamIndex = 0;     ///< for restrict parameters
  std::string Message;
  /// The (location, effect variable) pair whose reachability established
  /// the violation, for --explain (ConstraintSystem::explainReachAnyKind).
  /// Invalid for Untrackable violations, which have no constraint path.
  LocId ExplainRho = InvalidLocId;
  EffVar ExplainTarget = InvalidEffVar;
};

/// Result of checking all explicit annotations.
struct RestrictCheckResult {
  std::vector<RestrictViolation> Violations;
  bool ok() const { return Violations.empty(); }
};

/// True if \p Alias has a scope checkRestricts() checks: an explicit
/// restrict on a pointer, a restrict parameter, or a programmer-written
/// confine. When false, checkRestricts() would report nothing.
bool hasScopesToCheck(const AliasResult &Alias);

/// Checks all explicit restrict/confine annotations of a typed program.
/// Expects type checking to have run with SplitLetLocations = false (plain
/// lets already unified) and no optional confines. Untrackability is
/// asked of \p AA, the selected may-alias backend.
RestrictCheckResult
checkRestricts(const ASTContext &Ctx, const AliasResult &Alias,
               const EffectInfResult &Eff, ConstraintSystem &CS,
               TypeTable &Types, const AliasAnalysis &AA);

} // namespace lna

#endif // LNA_CORE_RESTRICTCHECKER_H

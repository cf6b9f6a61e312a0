//===- RestrictChecker.cpp - Checking restrict/confine annotations -------===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "core/RestrictChecker.h"

using namespace lna;

// The scopes checkRestricts() checks. hasScopesToCheck() asks the same
// two questions, so the session's k = 0 skip cannot drift from them.
static bool isCheckedRestrict(const BindInfo &BI) {
  return BI.ExplicitRestrict && BI.IsPointer;
}

static bool isCheckedConfine(const ConfineSiteInfo &CSI) {
  return !CSI.Optional;
}

bool lna::hasScopesToCheck(const AliasResult &Alias) {
  for (const BindInfo &BI : Alias.Binds)
    if (isCheckedRestrict(BI))
      return true;
  if (!Alias.ParamRestricts.empty())
    return true;
  for (const ConfineSiteInfo &CSI : Alias.Confines)
    if (isCheckedConfine(CSI))
      return true;
  return false;
}

RestrictCheckResult lna::checkRestricts(const ASTContext &Ctx,
                                        const AliasResult &Alias,
                                        const EffectInfResult &Eff,
                                        ConstraintSystem &CS,
                                        TypeTable &Types,
                                        const AliasAnalysis &AA) {
  (void)Types;
  RestrictCheckResult Result;

  // Liberal-semantics conditional effects (and any other conditionals)
  // must be resolved before the reachability queries.
  if (!CS.conditionals().empty())
    CS.solve();

  auto NameOf = [&](const BindInfo &BI) {
    const auto *B = cast<BindExpr>(Ctx.expr(BI.Id));
    return Ctx.text(B->name());
  };

  // A location tainted by a mismatched cast has untracked aliases: the
  // cast result carries fresh locations, so accesses through it never
  // show up in the CHECK-SAT queries below even though they may touch
  // the restricted cell at run time. Inference already refuses such
  // locations (Section 7); the checker must too, or it accepts scopes
  // the copying semantics faults on.
  auto Untrackable = [&AA](LocId Rho, LocId RhoPrime) {
    return AA.isUntrackable(Rho) || AA.isUntrackable(RhoPrime);
  };

  // Restrict bindings: two CHECK-SAT questions each (O(kn) total). The
  // escape question asks one search per effect kind for all of the
  // scope's escape variables at once; EscapeVia is the first of them, in
  // order, that the location reaches.
  for (const BindConstraintVars &BCV : Eff.Binds) {
    const BindInfo &BI = Alias.Binds[BCV.BindIdx];
    if (!isCheckedRestrict(BI))
      continue;
    if (Untrackable(BI.Rho, BI.RhoPrime)) {
      Result.Violations.push_back(
          {RestrictViolation::Kind::Untrackable, BI.Id, 0, 0,
           "location restricted by '" + NameOf(BI) +
               "' flowed through a mismatched cast; its aliases cannot "
               "be tracked"});
      continue;
    }
    if (CS.reachesAnyKind(BI.Rho, BCV.BodyEff))
      Result.Violations.push_back(
          {RestrictViolation::Kind::AccessedInScope, BI.Id, 0, 0,
           "location restricted by '" + NameOf(BI) +
               "' is accessed through another name within the restrict "
               "scope",
           BI.Rho, BCV.BodyEff});
    EffVar EscapeVia = CS.firstReachedAnyKind(BI.RhoPrime, BCV.EscapeVars);
    if (EscapeVia != InvalidEffVar)
      Result.Violations.push_back(
          {RestrictViolation::Kind::Escapes, BI.Id, 0, 0,
           "restricted pointer '" + NameOf(BI) +
               "' (or a copy) escapes its scope",
           BI.RhoPrime, EscapeVia});
  }

  // Restrict-qualified parameters, ditto.
  for (const ParamConstraintVars &PCV : Eff.ParamRestricts) {
    const ParamRestrictInfo &PR = Alias.ParamRestricts[PCV.ParamRestrictIdx];
    if (Untrackable(PR.Rho, PR.RhoPrime)) {
      Result.Violations.push_back(
          {RestrictViolation::Kind::Untrackable, InvalidExprId, PR.FunIndex,
           PR.ParamIndex,
           "location of restrict parameter flowed through a mismatched "
           "cast; its aliases cannot be tracked"});
      continue;
    }
    if (CS.reachesAnyKind(PR.Rho, PCV.BodyEff))
      Result.Violations.push_back(
          {RestrictViolation::Kind::AccessedInScope, InvalidExprId,
           PR.FunIndex, PR.ParamIndex,
           "location of restrict parameter is accessed through another "
           "name within the function",
           PR.Rho, PCV.BodyEff});
    EffVar EscapeVia = CS.firstReachedAnyKind(PR.RhoPrime, PCV.EscapeVars);
    if (EscapeVia != InvalidEffVar)
      Result.Violations.push_back(
          {RestrictViolation::Kind::Escapes, InvalidExprId, PR.FunIndex,
           PR.ParamIndex, "restrict parameter (or a copy) escapes",
           PR.RhoPrime, EscapeVia});
  }

  // Programmer-written confines: the referential-transparency conditions
  // quantify over the subject's whole effect, so compute the least
  // solution once and test membership.
  bool AnyExplicitConfine = false;
  for (const ConfineConstraintVars &CCV : Eff.Confines)
    AnyExplicitConfine |= isCheckedConfine(Alias.Confines[CCV.ConfIdx]);

  if (AnyExplicitConfine) {
    CS.solve();
    for (const ConfineConstraintVars &CCV : Eff.Confines) {
      const ConfineSiteInfo &CSI = Alias.Confines[CCV.ConfIdx];
      if (!isCheckedConfine(CSI) || !CSI.Valid)
        continue;
      if (Untrackable(CSI.Rho, CSI.RhoPrime)) {
        Result.Violations.push_back(
            {RestrictViolation::Kind::Untrackable, CSI.Id, 0, 0,
             "confined location flowed through a mismatched cast; its "
             "aliases cannot be tracked"});
        continue;
      }
      if (CS.memberAnyKind(CSI.Rho, CCV.BodyEff))
        Result.Violations.push_back(
            {RestrictViolation::Kind::AccessedInScope, CSI.Id, 0, 0,
             "confined location is accessed through another name within "
             "the confine scope",
             CSI.Rho, CCV.BodyEff});
      EffVar EscapeVia = InvalidEffVar;
      for (EffVar V : CCV.EscapeVars)
        if (CS.memberAnyKind(CSI.RhoPrime, V)) {
          EscapeVia = V;
          break;
        }
      if (EscapeVia != InvalidEffVar)
        Result.Violations.push_back(
            {RestrictViolation::Kind::Escapes, CSI.Id, 0, 0,
             "a pointer derived from the confined expression escapes",
             CSI.RhoPrime, EscapeVia});
      // e1 itself must have no side effects...
      // Report the lowest-numbered matching location: solution-set
      // iteration order is representation-defined, and diagnostics must
      // not depend on it.
      LocId SubjectWriteLoc = InvalidLocId;
      for (uint32_t E : CS.solution(CCV.SubjectEff)) {
        EffectKind K = EffectElem(E).kind();
        if (K == EffectKind::Write || K == EffectKind::Alloc) {
          LocId L = CS.locs().find(EffectElem(E).loc());
          if (SubjectWriteLoc == InvalidLocId || L < SubjectWriteLoc)
            SubjectWriteLoc = L;
        }
      }
      if (SubjectWriteLoc != InvalidLocId)
        Result.Violations.push_back(
            {RestrictViolation::Kind::SubjectHasSideEffect, CSI.Id, 0, 0,
             "confined expression has side effects", SubjectWriteLoc,
             CCV.SubjectEff});
      // ... and nothing e1 reads may be written (or allocated) in e2.
      LocId OverlapLoc = InvalidLocId;
      for (uint32_t E : CS.solution(CCV.SubjectEff)) {
        EffectElem Elem(E);
        if (Elem.kind() != EffectKind::Read)
          continue;
        LocId L = CS.locs().find(Elem.loc());
        if ((CS.member(EffectKind::Write, L, CCV.BodyEff) ||
             CS.member(EffectKind::Alloc, L, CCV.BodyEff)) &&
            (OverlapLoc == InvalidLocId || L < OverlapLoc))
          OverlapLoc = L;
      }
      if (OverlapLoc != InvalidLocId)
        Result.Violations.push_back(
            {RestrictViolation::Kind::SubjectModifiedInBody, CSI.Id, 0, 0,
             "the confine scope modifies a location the confined "
             "expression reads (not referentially transparent)",
             OverlapLoc, CCV.BodyEff});
    }
  }

  return Result;
}

//===- ConstraintSystem.cpp - Effect constraints and solving --*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "effects/ConstraintSystem.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Budget.h"
#include "support/Scc.h"

#include <algorithm>
#include <cassert>

using namespace lna;

/// Stable counting sort: groups \p Recs by Key(Rec) < NumKeys, writing
/// Val(Rec, Index) into \p Out so that Out[Start[K]..Start[K+1]) holds
/// key K's values in record order. The fill runs backwards from each
/// key's end, which keeps the order without a cursor array.
template <typename Rec, typename T, typename KeyFn, typename ValFn>
static void countingSort(const std::vector<Rec> &Recs, uint32_t NumKeys,
                         KeyFn Key, ValFn Val, std::vector<uint32_t> &Start,
                         std::vector<T> &Out) {
  Start.assign(NumKeys + 1, 0);
  for (const Rec &R : Recs)
    ++Start[Key(R)];
  uint32_t End = 0;
  for (uint32_t &S : Start)
    End = S += End; // Start[K] = end of key K's run
  Out.resize(Recs.size());
  for (size_t I = Recs.size(); I-- > 0;)
    Out[--Start[Key(Recs[I])]] = Val(Recs[I], I);
}

EffVar ConstraintSystem::makeVar() {
  InScope.push_back(1);
  Cond.Valid = false;
  return numVars() - 1;
}

void ConstraintSystem::addElement(EffectKind K, LocId Rho, EffVar V) {
  assert(V < numVars() && "unknown effect variable");
  Seeds.push_back({V, EffectElem(K, Rho).bits()});
  if (TrackOrigins)
    SeedOrigins.push_back(CurOrigin);
  // The grown seed count invalidates the CHECK-SAT seed index, not the
  // condensation.
}

void ConstraintSystem::addElementAllKinds(LocId Rho, EffVar V) {
  addElement(EffectKind::Read, Rho, V);
  addElement(EffectKind::Write, Rho, V);
  addElement(EffectKind::Alloc, Rho, V);
}

void ConstraintSystem::addEdge(EffVar From, EffVar To) {
  assert(From < numVars() && To < numVars() && "unknown effect variable");
  if (From == To)
    return;
  Edges.push_back({From, To});
  if (TrackOrigins)
    EdgeOrigins.push_back(CurOrigin);
  Cond.Valid = false;
}

void ConstraintSystem::addIntersection(InterOperand A, InterOperand B,
                                       EffVar Out) {
  uint32_t Idx = static_cast<uint32_t>(Inters.size());
  Inters.push_back({A, B, Out, TrackOrigins ? CurOrigin : Origin{}});
  auto Register = [&](const InterOperand &Op, uint8_t Side) {
    if (Op.K == InterOperand::Kind::Var)
      Feeds.push_back({Op.Value, Idx, Side});
    else if (Op.K == InterOperand::Kind::VarUnion)
      for (EffVar V : Op.Union)
        Feeds.push_back({V, Idx, Side});
  };
  Register(Inters[Idx].A, 0);
  Register(Inters[Idx].B, 1);
  if (A.K == InterOperand::Kind::Elem || B.K == InterOperand::Kind::Elem)
    ElemInters.push_back(Idx);
  Cond.Valid = false;
}

bool ConstraintSystem::operandContains(const InterOperand &Op,
                                       uint32_t CanonElem) const {
  ++Stats.IntersectionTests;
  switch (Op.K) {
  case InterOperand::Kind::Elem:
    return canon(Op.Value) == CanonElem;
  case InterOperand::Kind::Var:
    return Cond.Sol[Cond.Comp[Op.Value]].contains(CanonElem);
  case InterOperand::Kind::VarUnion:
    for (EffVar V : Op.Union)
      if (Cond.Sol[Cond.Comp[V]].contains(CanonElem))
        return true;
    return false;
  }
  return false;
}

uint32_t ConstraintSystem::addConditional(CondConstraint C) {
  if (TrackOrigins && !C.OriginNote) {
    C.OriginLoc = CurOrigin.Loc;
    C.OriginNote = CurOrigin.Note;
  }
  Conds.push_back(std::move(C));
  return static_cast<uint32_t>(Conds.size() - 1);
}

//===----------------------------------------------------------------------===//
// Per-variable grouping of the flat constraint arrays
//===----------------------------------------------------------------------===//

/// Refreshes \p G, the grouping of \p Recs by their Var field, unless it
/// was built from as many records and variables as there are now (the
/// arrays are append-only, so the counts identify their contents).
template <typename Rec, typename Group, typename ValFn>
static const Group &groupByVar(const std::vector<Rec> &Recs, uint32_t NumVars,
                               Group &G, ValFn Val) {
  if (G.NumRecs != Recs.size() || G.NumVars != NumVars) {
    countingSort(
        Recs, NumVars, [](const Rec &R) { return R.Var; }, Val, G.Start,
        G.Items);
    G.NumRecs = Recs.size();
    G.NumVars = NumVars;
  }
  return G;
}

template <typename Fn> void ConstraintSystem::forEachSeedByVar(Fn F) const {
  const ByVar<uint32_t> &SG =
      groupByVar(Seeds, numVars(), SeedGroups,
                 [](const SeedRec &S, size_t) { return S.Elem; });
  for (EffVar V = 0; V < numVars(); ++V)
    for (const uint32_t *S = SG.begin(V); S != SG.end(V); ++S)
      F(V, *S);
}

const ConstraintSystem::ByVar<std::pair<uint32_t, uint8_t>> &
ConstraintSystem::feedsByVar() const {
  // Feeds are only added by addIntersection, i.e. during generation: the
  // condensation rebuilds of a firing round all reuse this grouping.
  return groupByVar(Feeds, numVars(), FeedGroups, [](const FeedRec &F, size_t) {
    return std::make_pair(F.Inter, F.Side);
  });
}

//===----------------------------------------------------------------------===//
// SCC condensation
//===----------------------------------------------------------------------===//

void ConstraintSystem::ensureCondensed() const {
  if (!Cond.Valid)
    rebuildCondensation();
}

void ConstraintSystem::rebuildCondensation() const {
  Span Sp("solver-condense");
  const uint32_t NumVars = numVars();

  // Map variables to components: Tarjan over the plain-edge graph
  // (intersections are not collapsed: a cycle through an I node does not
  // imply solution equality). The variable-level CSR is a stable counting
  // sort of the edge array by source, so each source's targets keep
  // generation order -- and with it every order-sensitive metric.
  Adjacency VAdj;
  countingSort(
      Edges, NumVars, [](const EdgeRec &E) { return E.From; },
      [](const EdgeRec &E, size_t) { return E.To; }, VAdj.Start,
      VAdj.Targets);
  TarjanSCC SCC(VAdj, NumVars);
  std::vector<uint32_t> NewComp = std::move(SCC.Comp);
  const uint32_t NumComps = SCC.NumComps;

  // Component-level CSR adjacency: plain edges with intra-component
  // edges dropped, and the (intersection, side) feed lists. CSR packing
  // keeps each component's fanout contiguous for the propagation and
  // DFS inner loops. Counting sort straight off the variable CSR (count,
  // prefix, fill) -- no intermediate pair list.
  Adjacency CAdj;
  CAdj.Start.assign(NumComps + 1, 0);
  for (uint32_t V = 0; V < NumVars; ++V)
    for (const uint32_t *W = VAdj.begin(V); W != VAdj.end(V); ++W)
      if (NewComp[V] != NewComp[*W])
        ++CAdj.Start[NewComp[V] + 1];
  for (uint32_t C = 0; C < NumComps; ++C)
    CAdj.Start[C + 1] += CAdj.Start[C];
  CAdj.Targets.resize(CAdj.Start[NumComps]);
  {
    std::vector<uint32_t> Fill(CAdj.Start.begin(), CAdj.Start.end() - 1);
    for (uint32_t V = 0; V < NumVars; ++V)
      for (const uint32_t *W = VAdj.begin(V); W != VAdj.end(V); ++W)
        if (NewComp[V] != NewComp[*W])
          CAdj.Targets[Fill[NewComp[V]]++] = NewComp[*W];
  }

  // The feeds twice over: every (intersection, side) for CHECK-SAT,
  // whose visit order follows them, and the driving ones alone for
  // propagation.
  const ByVar<std::pair<uint32_t, uint8_t>> &FG = feedsByVar();
  auto Drives = [&](const std::pair<uint32_t, uint8_t> &F) {
    return F.second == drivingSide(Inters[F.first]);
  };
  std::vector<uint32_t> InterStart(NumComps + 1, 0);
  std::vector<uint32_t> DriveStart(NumComps + 1, 0);
  for (uint32_t V = 0; V < NumVars; ++V)
    for (const auto *F = FG.begin(V); F != FG.end(V); ++F) {
      ++InterStart[NewComp[V] + 1];
      DriveStart[NewComp[V] + 1] += Drives(*F);
    }
  for (uint32_t C = 0; C < NumComps; ++C) {
    InterStart[C + 1] += InterStart[C];
    DriveStart[C + 1] += DriveStart[C];
  }
  std::vector<std::pair<uint32_t, uint8_t>> InterFeeds(InterStart[NumComps]);
  std::vector<uint32_t> DriveInters(DriveStart[NumComps]);
  {
    std::vector<uint32_t> Fill(InterStart.begin(), InterStart.end() - 1);
    std::vector<uint32_t> DriveFill(DriveStart.begin(), DriveStart.end() - 1);
    for (uint32_t V = 0; V < NumVars; ++V)
      for (const auto *F = FG.begin(V); F != FG.end(V); ++F) {
        InterFeeds[Fill[NewComp[V]]++] = *F;
        if (Drives(*F))
          DriveInters[DriveFill[NewComp[V]]++] = F->first;
      }
  }

  // Carry solver state across the rebuild. Structure only grows, so all
  // members of an old component land in one new component; a new
  // component folding several old ones together re-queues its whole
  // (unioned) set, since elements from one old component were never
  // propagated along the other's out-edges.
  std::vector<SmallElemSet> NewSol(NumComps);
  std::vector<std::vector<uint32_t>> NewPending(NumComps);
  std::vector<uint8_t> Folded(NumComps, 0);
  std::vector<uint8_t> Merged(NumComps, 0);
  if (!Cond.Comp.empty()) {
    const uint32_t OldVars = static_cast<uint32_t>(Cond.Comp.size());
    std::vector<uint8_t> Taken(Cond.NumComps, 0);
    for (uint32_t V = 0; V < OldVars && V < NumVars; ++V) {
      uint32_t OC = Cond.Comp[V];
      if (Taken[OC])
        continue;
      Taken[OC] = 1;
      uint32_t NC = NewComp[V];
      if (!Folded[NC]) {
        Folded[NC] = 1;
        NewSol[NC] = std::move(Cond.Sol[OC]);
      } else {
        Merged[NC] = 1;
        for (uint32_t E : Cond.Sol[OC])
          NewSol[NC].insert(E);
      }
      NewPending[NC].insert(NewPending[NC].end(), Cond.Pending[OC].begin(),
                            Cond.Pending[OC].end());
    }
  }
  for (uint32_t C = 0; C < NumComps; ++C)
    if (Merged[C]) {
      NewPending[C].clear();
      for (uint32_t E : NewSol[C])
        NewPending[C].push_back(E);
    }

  Cond.Comp = std::move(NewComp);
  Cond.NumComps = NumComps;
  Cond.EdgeStart = std::move(CAdj.Start);
  Cond.EdgeTargets = std::move(CAdj.Targets);
  Cond.InterStart = std::move(InterStart);
  Cond.InterFeeds = std::move(InterFeeds);
  Cond.DriveStart = std::move(DriveStart);
  Cond.DriveInters = std::move(DriveInters);
  Cond.Sol = std::move(NewSol);
  Cond.Pending = std::move(NewPending);
  Cond.Dirty.assign(NumComps, 0);
  Cond.InScope.assign(NumComps, 0);
  for (uint32_t V = 0; V < NumVars; ++V)
    if (InScope[V])
      Cond.InScope[Cond.Comp[V]] = 1;
  Cond.VisitEpoch.assign(NumComps, 0);
  Cond.SideEpoch.assign(Inters.size(), 0);
  Cond.SideMask.assign(Inters.size(), 0);
  Cond.Epoch = 0;
  Cond.IndexValid = false;
  Worklist.clear();
  for (uint32_t C = 0; C < NumComps; ++C)
    if (!Cond.Pending[C].empty()) {
      Cond.Dirty[C] = 1;
      Worklist.push_back(C);
    }
  Cond.Valid = true;
}

void ConstraintSystem::ensureCheckSatIndex() const {
  if (Cond.IndexValid && Cond.IndexMergeStamp == Locs.numClassesMerged() &&
      Cond.IndexSeedStamp == Seeds.size())
    return;
  Cond.SeedComps.clear();
  Cond.ElemFeeds.clear();
  forEachSeedByVar([&](EffVar V, uint32_t S) {
    Cond.SeedComps[canon(S)].push_back(Cond.Comp[V]);
  });
  for (uint32_t I = 0; I < Inters.size(); ++I) {
    const InterNode &N = Inters[I];
    if (N.A.K == InterOperand::Kind::Elem)
      Cond.ElemFeeds[canon(N.A.Value)].push_back({I, 0});
    if (N.B.K == InterOperand::Kind::Elem)
      Cond.ElemFeeds[canon(N.B.Value)].push_back({I, 1});
  }
  Cond.IndexMergeStamp = Locs.numClassesMerged();
  Cond.IndexSeedStamp = Seeds.size();
  Cond.IndexValid = true;
}

//===----------------------------------------------------------------------===//
// CHECK-SAT (Figure 5)
//===----------------------------------------------------------------------===//

bool ConstraintSystem::reaches(EffectKind K, LocId Rho, EffVar Target) const {
  Span Sp("checksat-dfs");
  ensureCondensed();
  ensureCheckSatIndex();
  return dfsCollapsed(EffectElem(K, Locs.find(Rho)).bits(),
                      Target < numVars() ? Cond.Comp[Target] : ~0u);
}

/// Component-granularity DFS from canonical element \p C over the CSR
/// condensation, sources pulled from the seed/element-operand indexes,
/// epoch-stamped scratch instead of per-query allocation and clearing.
/// Stops once \p StopComp is visited and returns whether it was; the
/// components it visited keep the current epoch in VisitEpoch until the
/// next search.
bool ConstraintSystem::dfsCollapsed(uint32_t C, uint32_t StopComp) const {
  ++Stats.CheckSatQueries;
  const uint64_t VisitedBefore = Stats.CheckSatVisited;
  if (++Cond.Epoch == 0) {
    // Epoch wrap: invalidate all stamps once, then restart at 1.
    std::fill(Cond.VisitEpoch.begin(), Cond.VisitEpoch.end(), 0);
    std::fill(Cond.SideEpoch.begin(), Cond.SideEpoch.end(), 0);
    Cond.Epoch = 1;
  }
  const uint32_t Epoch = Cond.Epoch;
  std::vector<uint32_t> &Work = Cond.WorkScratch;
  Work.clear();

  bool Found = false;
  auto Visit = [&](uint32_t Comp) {
    if (Cond.VisitEpoch[Comp] == Epoch)
      return;
    Cond.VisitEpoch[Comp] = Epoch;
    ++Stats.CheckSatVisited;
    if (Comp == StopComp)
      Found = true;
    Work.push_back(Comp);
  };
  auto OrMask = [&](uint32_t I, uint8_t Bit) -> uint8_t {
    if (Cond.SideEpoch[I] != Epoch) {
      Cond.SideEpoch[I] = Epoch;
      Cond.SideMask[I] = 0;
    }
    return Cond.SideMask[I] |= Bit;
  };

  // Constant (element) intersection operands, from the index.
  if (auto It = Cond.ElemFeeds.find(C); It != Cond.ElemFeeds.end())
    for (auto [I, Side] : It->second)
      if (OrMask(I, static_cast<uint8_t>(1u << Side)) == 3)
        Visit(Cond.Comp[Inters[I].Out]);

  // Seed sources, from the index.
  if (!Found)
    if (auto It = Cond.SeedComps.find(C); It != Cond.SeedComps.end())
      for (uint32_t Comp : It->second)
        Visit(Comp);

  while (!Work.empty() && !Found) {
    budgetStep();
    uint32_t Comp = Work.back();
    Work.pop_back();
    for (uint32_t E = Cond.EdgeStart[Comp]; E < Cond.EdgeStart[Comp + 1]; ++E)
      Visit(Cond.EdgeTargets[E]);
    for (uint32_t F = Cond.InterStart[Comp]; F < Cond.InterStart[Comp + 1];
         ++F) {
      auto [I, Side] = Cond.InterFeeds[F];
      if (OrMask(I, static_cast<uint8_t>(1u << Side)) == 3)
        Visit(Cond.Comp[Inters[I].Out]);
    }
  }
  static const MetricId VisitsMetric = metricId("checksat-visits");
  obsHistogram(VisitsMetric, Stats.CheckSatVisited - VisitedBefore);
  return Found;
}

bool ConstraintSystem::reachesAnyKind(LocId Rho, EffVar Target) const {
  return reaches(EffectKind::Read, Rho, Target) ||
         reaches(EffectKind::Write, Rho, Target) ||
         reaches(EffectKind::Alloc, Rho, Target);
}

EffVar
ConstraintSystem::firstReachedAnyKind(LocId Rho,
                                      const std::vector<EffVar> &Targets) const {
  if (Targets.empty())
    return InvalidEffVar;
  Span Sp("checksat-dfs");
  ensureCondensed();
  ensureCheckSatIndex();
  auto CompOf = [&](EffVar V) { return V < numVars() ? Cond.Comp[V] : ~0u; };
  // Each kind's search runs to exhaustion (or to the first target, which
  // nothing can beat), then the targets ahead of the best so far are
  // looked up in its visit stamps.
  size_t Best = Targets.size();
  for (EffectKind K :
       {EffectKind::Read, EffectKind::Write, EffectKind::Alloc}) {
    if (Best == 0)
      break;
    dfsCollapsed(EffectElem(K, Locs.find(Rho)).bits(), CompOf(Targets[0]));
    for (size_t I = 0; I < Best; ++I) {
      uint32_t TC = CompOf(Targets[I]);
      if (TC != ~0u && Cond.VisitEpoch[TC] == Cond.Epoch) {
        Best = I;
        break;
      }
    }
  }
  return Best < Targets.size() ? Targets[Best] : InvalidEffVar;
}

//===----------------------------------------------------------------------===//
// Least-solution propagation
//===----------------------------------------------------------------------===//

void ConstraintSystem::insertElem(EffVar V, uint32_t ElemBits) {
  insertElemComp(Cond.Comp[V], ElemBits);
}

void ConstraintSystem::insertElemComp(uint32_t C, uint32_t ElemBits) {
  if (!Cond.InScope[C])
    return;
  if (!Cond.Sol[C].insert(ElemBits))
    return;
  ++Stats.PropagatedElems;
  Cond.Pending[C].push_back(ElemBits);
  if (!Cond.Dirty[C]) {
    Cond.Dirty[C] = 1;
    Worklist.push_back(C);
  }
}

void ConstraintSystem::propagate() {
  Span Sp("propagate");
  std::vector<uint32_t> Batch;
  while (!Worklist.empty()) {
    uint32_t C = Worklist.back();
    Worklist.pop_back();
    Cond.Dirty[C] = 0;
    Batch.clear();
    Batch.swap(Cond.Pending[C]);
    // Propagation is the solver's dominant cost; charge the budget per
    // pending element flushed, not per pop.
    budgetStep(Batch.size() + 1);
    // Feeds that do not drive are passive.
    const bool FeedsPassive =
        Cond.InterStart[C + 1] - Cond.InterStart[C] !=
        Cond.DriveStart[C + 1] - Cond.DriveStart[C];
    for (uint32_t E : Batch) {
      for (uint32_t T = Cond.EdgeStart[C]; T < Cond.EdgeStart[C + 1]; ++T)
        insertElemComp(Cond.EdgeTargets[T], E);
      for (uint32_t D = Cond.DriveStart[C]; D < Cond.DriveStart[C + 1]; ++D)
        driveIntersection(Cond.DriveInters[D], E);
      if (FeedsPassive)
        wakeWaiting(E);
    }
  }
}

// Both sides flush only canonical elements (recanonicalize runs before
// every propagate), and a flushed element is already in its component's
// set. So whichever side of an intersection flushes an element second
// finds it on the other side: the driving side by testing the passive
// operand, the passive side through the waiting index.

void ConstraintSystem::driveIntersection(uint32_t I, uint32_t E) {
  const InterNode &N = Inters[I];
  const InterOperand &Passive = passiveOperand(N);
  if (operandContains(Passive, E))
    insertElemComp(Cond.Comp[N.Out], E);
  else if (Passive.K != InterOperand::Kind::Elem)
    // A constant element operand never arrives anywhere: when its
    // location is unified, recheckElemIntersections covers it instead.
    Waiting.add(E, I);
}

void ConstraintSystem::wakeWaiting(uint32_t E) {
  uint32_t *Link = Waiting.head(E);
  if (!Link)
    return;
  while (*Link != WaitIndex::None) {
    WaitIndex::Link &L = Waiting.Links[*Link];
    const InterNode &N = Inters[L.Inter];
    const uint32_t Out = Cond.Comp[N.Out];
    // An output outside the backwards-search scope discards the element;
    // keep the link rather than drop it unfired.
    if (operandContains(passiveOperand(N), E) && Cond.InScope[Out]) {
      insertElemComp(Out, E);
      *Link = L.Next;
    } else {
      Link = &L.Next;
    }
  }
}

uint32_t ConstraintSystem::WaitIndex::probe(uint32_t Elem) const {
  // Multiplicative hashing, high half folded into the low; Slots.size()
  // is a power of two.
  const uint32_t Mask = static_cast<uint32_t>(Slots.size()) - 1;
  const uint32_t H = Elem * 2654435761u;
  uint32_t I = (H ^ H >> 16) & Mask;
  while (Slots[I].Elem != Elem && Slots[I].Elem != SmallElemSet::EmptySlot)
    I = (I + 1) & Mask;
  return I;
}

uint32_t *ConstraintSystem::WaitIndex::head(uint32_t Elem) {
  if (Slots.empty())
    return nullptr;
  Slot &S = Slots[probe(Elem)];
  return S.Elem == Elem ? &S.Head : nullptr;
}

void ConstraintSystem::WaitIndex::add(uint32_t Elem, uint32_t Inter) {
  if (2 * (NumKeys + 1) > Slots.size()) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(std::max<size_t>(16, 2 * Old.size()), Slot{});
    for (const Slot &S : Old)
      if (S.Elem != SmallElemSet::EmptySlot)
        Slots[probe(S.Elem)] = S;
  }
  Slot &S = Slots[probe(Elem)];
  if (S.Elem != Elem) {
    S.Elem = Elem;
    ++NumKeys;
  }
  Links.push_back({Inter, S.Head});
  S.Head = static_cast<uint32_t>(Links.size() - 1);
}

void ConstraintSystem::recanonicalize() {
  Span Sp("recanonicalize");
  budgetStep(numVars());
  // Rebuild solution sets with canonical elements. Only components whose
  // set actually changed (an element mentioned a just-unified location)
  // need re-pushing: edges propagate set contents, which are unchanged,
  // and an intersection between unchanged sets cannot produce new
  // outputs. An element operand is not a set, though -- its canonical
  // element moves with the unify -- so recheckElemIntersections covers
  // those intersections.
  Worklist.clear();
  for (uint32_t C = 0; C < Cond.NumComps; ++C) {
    if (!Cond.InScope[C])
      continue;
    bool Changed = false;
    for (uint32_t E : Cond.Sol[C])
      if (canon(E) != E) {
        Changed = true;
        break;
      }
    if (!Changed) {
      // Keep any elements queued by just-fired conditional actions; they
      // are already canonical and still need to flow.
      if (!Cond.Pending[C].empty()) {
        Cond.Dirty[C] = 1;
        Worklist.push_back(C);
      }
      continue;
    }
    SmallElemSet Fresh;
    Fresh.reserve(Cond.Sol[C].size());
    for (uint32_t E : Cond.Sol[C])
      Fresh.insert(canon(E));
    Cond.Sol[C] = std::move(Fresh);
    Cond.Pending[C].clear();
    for (uint32_t E : Cond.Sol[C])
      Cond.Pending[C].push_back(E);
    Cond.Dirty[C] = 1;
    Worklist.push_back(C);
  }
}

void ConstraintSystem::recheckElemIntersections() {
  // The other operand needs checking only against the element operand's
  // current canonical element; everything else that arrives later flows
  // through propagate(). Covers constant (element n element)
  // intersections too.
  for (uint32_t I : ElemInters) {
    const InterNode &N = Inters[I];
    const bool AIsElem = N.A.K == InterOperand::Kind::Elem;
    uint32_t E = canon(AIsElem ? N.A.Value : N.B.Value);
    if (operandContains(AIsElem ? N.B : N.A, E))
      insertElemComp(Cond.Comp[N.Out], E);
  }
}

void ConstraintSystem::computeScope(const std::vector<EffVar> &QueryVars) {
  if (QueryVars.empty()) {
    std::fill(InScope.begin(), InScope.end(), 1);
    return;
  }
  // Backwards search (Section 6.2): only the part of the graph that can
  // flow into a query variable, a conditional's tested variable, or a
  // variable a conditional action writes needs least-solution computation.
  std::fill(InScope.begin(), InScope.end(), 0);
  std::vector<EffVar> Work;
  auto Mark = [&](EffVar V) {
    if (V == InvalidEffVar || InScope[V])
      return;
    InScope[V] = 1;
    Work.push_back(V);
  };
  for (EffVar V : QueryVars)
    Mark(V);
  for (const CondConstraint &C : Conds) {
    Mark(C.Var);
    Mark(C.VarA);
    for (EffVar V : C.AnyOf)
      Mark(V);
    for (const CondAction &A : C.Actions)
      if (A.K == CondAction::Kind::AddEdge ||
          A.K == CondAction::Kind::AddElemAllKinds ||
          A.K == CondAction::Kind::AddElemReadWrite)
        Mark(A.B);
  }
  // Reverse adjacency: edge sources and intersections grouped by target.
  Adjacency Rev, RevInter;
  countingSort(
      Edges, numVars(), [](const EdgeRec &E) { return E.To; },
      [](const EdgeRec &E, size_t) { return E.From; }, Rev.Start,
      Rev.Targets);
  countingSort(
      Inters, numVars(), [](const InterNode &N) { return N.Out; },
      [](const InterNode &, size_t I) { return static_cast<uint32_t>(I); },
      RevInter.Start, RevInter.Targets);
  while (!Work.empty()) {
    EffVar V = Work.back();
    Work.pop_back();
    for (const uint32_t *U = Rev.begin(V); U != Rev.end(V); ++U)
      Mark(*U);
    for (const uint32_t *I = RevInter.begin(V); I != RevInter.end(V); ++I) {
      for (const InterOperand *Op : {&Inters[*I].A, &Inters[*I].B}) {
        if (Op->K == InterOperand::Kind::Var)
          Mark(Op->Value);
        else if (Op->K == InterOperand::Kind::VarUnion)
          for (EffVar U : Op->Union)
            Mark(U);
      }
    }
  }
}

bool ConstraintSystem::evalPremise(const CondConstraint &C) const {
  switch (C.P) {
  case CondConstraint::Premise::LocInVar: {
    // Reads the round's partition directly: member() would rebuild the
    // condensation after every fired edge.
    LocId L = Locs.find(C.Rho);
    auto HasLoc = [&](EffVar V) {
      const SmallElemSet &S = Cond.Sol[Cond.Comp[V]];
      return S.contains(EffectElem(EffectKind::Read, L).bits()) ||
             S.contains(EffectElem(EffectKind::Write, L).bits()) ||
             S.contains(EffectElem(EffectKind::Alloc, L).bits());
    };
    if (C.AnyOf.empty())
      return HasLoc(C.Var);
    return std::any_of(C.AnyOf.begin(), C.AnyOf.end(), HasLoc);
  }
  case CondConstraint::Premise::SideEffectNonEmpty:
    for (uint32_t E : Cond.Sol[Cond.Comp[C.Var]]) {
      EffectKind K = EffectElem(E).kind();
      if (K == EffectKind::Write || K == EffectKind::Alloc)
        return true;
    }
    return false;
  case CondConstraint::Premise::ReadWriteOverlap: {
    const SmallElemSet &SideSol = Cond.Sol[Cond.Comp[C.Var]];
    for (uint32_t E : Cond.Sol[Cond.Comp[C.VarA]]) {
      EffectElem Elem(E);
      if (Elem.kind() != EffectKind::Read)
        continue;
      LocId L = Locs.find(Elem.loc());
      if (SideSol.contains(EffectElem(EffectKind::Write, L).bits()) ||
          SideSol.contains(EffectElem(EffectKind::Alloc, L).bits()))
        return true;
    }
    return false;
  }
  }
  return false;
}

void ConstraintSystem::applyAction(const CondAction &A) {
  switch (A.K) {
  case CondAction::Kind::UnifyLocs:
    // A failed restrict/confine collapses the split pair: the original
    // location's value flows into the (no longer separate) split one.
    Locs.unify(A.A, A.B, FlowDir::AToB);
    break;
  case CondAction::Kind::AddEdge: {
    // The edge enters the authoritative graph now, invalidating the
    // condensation, but the round keeps running on the current partition
    // (see solve()). Flow the already-computed solution across the edge
    // explicitly; what reaches A's component later this round waits in
    // its Pending list and crosses the edge after the round-end rebuild.
    addEdge(A.A, A.B);
    uint32_t CA = Cond.Comp[A.A], CB = Cond.Comp[A.B];
    // Iterating CA's set while inserting into CB's is safe: they differ.
    if (CA != CB)
      for (uint32_t E : Cond.Sol[CA])
        insertElemComp(CB, E);
    break;
  }
  case CondAction::Kind::AddElemAllKinds:
    addElementAllKinds(A.A, A.B);
    insertElem(A.B, EffectElem(EffectKind::Read, Locs.find(A.A)).bits());
    insertElem(A.B, EffectElem(EffectKind::Write, Locs.find(A.A)).bits());
    insertElem(A.B, EffectElem(EffectKind::Alloc, Locs.find(A.A)).bits());
    break;
  case CondAction::Kind::AddElemReadWrite:
    addElement(EffectKind::Read, A.A, A.B);
    addElement(EffectKind::Write, A.A, A.B);
    insertElem(A.B, EffectElem(EffectKind::Read, Locs.find(A.A)).bits());
    insertElem(A.B, EffectElem(EffectKind::Write, Locs.find(A.A)).bits());
    break;
  }
}

void ConstraintSystem::solve(const std::vector<EffVar> &QueryVars) {
  Span Sp("solve");
  computeScope(QueryVars);
  ensureCondensed();
  // Scope may differ between solve() calls; re-derive the component
  // masks from the variable masks (uniform within a component: SCC
  // members are mutually reachable, so the backwards closure marks all
  // of them or none).
  std::fill(Cond.InScope.begin(), Cond.InScope.end(), 0);
  for (uint32_t V = 0; V < numVars(); ++V)
    if (InScope[V])
      Cond.InScope[Cond.Comp[V]] = 1;

  // Seed every variable's directly-included elements, variable by
  // variable.
  forEachSeedByVar([&](EffVar V, uint32_t S) { insertElem(V, canon(S)); });
  recheckElemIntersections();

  propagate();
  ++Stats.Rounds;
  uint32_t MergeStamp = Locs.numClassesMerged();

  // Fire conditional constraints to a fixpoint. Each fires at most once,
  // bounding the number of rounds. A fired edge only invalidates the
  // condensation; the round goes on with the current partition, which
  // stays sound because structure only grows (every old component lies
  // inside one new component). Nothing in the round rebuilds, so an
  // abort mid-round leaves the condensation marked invalid and the next
  // query rebuilds it from the complete graph.
  Span SpCond("resolve-conditionals");
  while (true) {
    bool AnyFired = false;
    for (CondConstraint &C : Conds) {
      budgetStep();
      if (C.Fired)
        continue;
      if (!evalPremise(C))
        continue;
      C.Fired = true;
      AnyFired = true;
      ++Stats.CondFirings;
      // Constraints added by the firing inherit the conditional's
      // provenance, so explain paths can cross the firing.
      setOrigin(C.OriginLoc, C.OriginNote ? C.OriginNote
                                          : "fired conditional constraint");
      for (const CondAction &A : C.Actions)
        applyAction(A);
    }
    if (!AnyFired)
      break;
    // One rebuild folds in every edge fired this round, carrying Pending
    // and re-queuing merged sets.
    ensureCondensed();
    recanonicalize();
    if (Locs.numClassesMerged() != MergeStamp) {
      MergeStamp = Locs.numClassesMerged();
      recheckElemIntersections();
    }
    propagate();
    ++Stats.Rounds;
  }
}

const SmallElemSet &ConstraintSystem::solution(EffVar V) const {
  assert(V < numVars() && "unknown effect variable");
  ensureCondensed();
  return Cond.Sol[Cond.Comp[V]];
}

bool ConstraintSystem::member(EffectKind K, LocId Rho, EffVar V) const {
  ensureCondensed();
  return Cond.Sol[Cond.Comp[V]].contains(
      EffectElem(K, Locs.find(Rho)).bits());
}

bool ConstraintSystem::memberAnyKind(LocId Rho, EffVar V) const {
  return member(EffectKind::Read, Rho, V) ||
         member(EffectKind::Write, Rho, V) ||
         member(EffectKind::Alloc, Rho, V);
}

std::string ConstraintSystem::solutionToString(EffVar V) const {
  // Render in sorted element order: set iteration order is
  // representation-defined (SmallElemSet keeps insertion order inline and
  // hash order once spilled), and debug output should not leak it.
  std::vector<uint32_t> Elems;
  for (uint32_t E : solution(V))
    Elems.push_back(E);
  std::sort(Elems.begin(), Elems.end());
  std::string Out = "{";
  bool First = true;
  for (uint32_t E : Elems) {
    if (!First)
      Out += ", ";
    First = false;
    EffectElem Elem(E);
    switch (Elem.kind()) {
    case EffectKind::Read:
      Out += "read(";
      break;
    case EffectKind::Write:
      Out += "write(";
      break;
    case EffectKind::Alloc:
      Out += "alloc(";
      break;
    }
    Out += "rho" + std::to_string(Locs.find(Elem.loc())) + ")";
  }
  return Out + "}";
}

//===----------------------------------------------------------------------===//
// Provenance (--explain) and metrics
//===----------------------------------------------------------------------===//

std::vector<ExplainStep>
ConstraintSystem::explainReach(EffectKind K, LocId Rho, EffVar Target) const {
  // A breadth-first replay of reaches() that records, for every variable,
  // the constraint through which the element first arrived. BFS (not the
  // DFS of CHECK-SAT) so the reconstructed witness is a shortest
  // constraint chain. Runs on the uncollapsed graph: witness steps must
  // correspond one-to-one to program constraints, and --explain is off
  // the hot path, so the out-edges are regrouped per call (as edge
  // indexes, which also index EdgeOrigins).
  uint32_t C = EffectElem(K, Locs.find(Rho)).bits();
  const uint32_t NumVars = numVars();
  Adjacency OutEdges;
  countingSort(
      Edges, NumVars, [](const EdgeRec &E) { return E.From; },
      [](const EdgeRec &, size_t I) { return static_cast<uint32_t>(I); },
      OutEdges.Start, OutEdges.Targets);
  const ByVar<std::pair<uint32_t, uint8_t>> &FG = feedsByVar();

  struct Parent {
    enum Kind : uint8_t { None, Seed, Edge, Inter } K = None;
    EffVar From = InvalidEffVar;
    Origin O{};
  };
  std::vector<Parent> Par(NumVars);
  std::vector<uint8_t> Visited(NumVars, 0);
  std::vector<uint8_t> SideMask(Inters.size(), 0);
  std::vector<EffVar> Queue;
  size_t Head = 0;

  auto Visit = [&](EffVar V, Parent P) {
    if (V >= NumVars || Visited[V])
      return;
    Visited[V] = 1;
    Par[V] = P;
    Queue.push_back(V);
  };

  // Constant (element) intersection operands first, as in reaches().
  for (uint32_t I = 0; I < Inters.size(); ++I) {
    const InterNode &N = Inters[I];
    if (N.A.K == InterOperand::Kind::Elem && canon(N.A.Value) == C)
      SideMask[I] |= 1;
    if (N.B.K == InterOperand::Kind::Elem && canon(N.B.Value) == C)
      SideMask[I] |= 2;
    if (SideMask[I] == 3)
      Visit(N.Out, {Parent::Inter, InvalidEffVar, N.Orig});
  }

  // Seed sources, in variable order: the element's origin is the access
  // that generated the variable's first matching seed.
  std::vector<uint32_t> FirstSeed(NumVars, ~0u);
  for (uint32_t I = 0; I < Seeds.size(); ++I)
    if (FirstSeed[Seeds[I].Var] == ~0u && canon(Seeds[I].Elem) == C)
      FirstSeed[Seeds[I].Var] = I;
  for (EffVar V = 0; V < NumVars; ++V)
    if (uint32_t I = FirstSeed[V]; I != ~0u)
      Visit(V, {Parent::Seed, InvalidEffVar,
                I < SeedOrigins.size() ? SeedOrigins[I] : Origin{}});

  while (Head < Queue.size() && !(Target < NumVars && Visited[Target])) {
    EffVar V = Queue[Head++];
    for (const uint32_t *E = OutEdges.begin(V); E != OutEdges.end(V); ++E)
      Visit(Edges[*E].To, {Parent::Edge, V,
                           *E < EdgeOrigins.size() ? EdgeOrigins[*E]
                                                   : Origin{}});
    for (const auto *F = FG.begin(V); F != FG.end(V); ++F) {
      auto [I, Side] = *F;
      SideMask[I] |= static_cast<uint8_t>(1u << Side);
      if (SideMask[I] == 3)
        Visit(Inters[I].Out, {Parent::Inter, V, Inters[I].Orig});
    }
  }
  if (Target >= NumVars || !Visited[Target])
    return {};

  // Walk the parent chain from the violated scope's variable back to the
  // seeding access; emitted in that order, the path ends at the access.
  std::vector<ExplainStep> Steps;
  EffVar V = Target;
  while (true) {
    const Parent &P = Par[V];
    ExplainStep S;
    S.Loc = P.O.Loc;
    switch (P.K) {
    case Parent::Seed:
      S.Note = P.O.Note ? P.O.Note : "effect element source";
      Steps.push_back(std::move(S));
      return Steps;
    case Parent::Edge:
      S.Note = P.O.Note ? P.O.Note : "effect inclusion";
      break;
    case Parent::Inter:
      S.Note = P.O.Note ? P.O.Note : "effect intersection";
      break;
    case Parent::None:
      return Steps; // unreachable if Visited[Target]
    }
    Steps.push_back(std::move(S));
    if (P.From == InvalidEffVar)
      return Steps; // element-operand intersection: no further chain
    V = P.From;
  }
}

std::vector<ExplainStep>
ConstraintSystem::explainReachAnyKind(LocId Rho, EffVar Target) const {
  for (EffectKind K :
       {EffectKind::Read, EffectKind::Write, EffectKind::Alloc}) {
    std::vector<ExplainStep> Path = explainReach(K, Rho, Target);
    if (!Path.empty())
      return Path;
  }
  return {};
}

void ConstraintSystem::recordGraphMetrics() const {
  if (!currentMetrics())
    return;
  static const MetricId OutDegree = metricId("constraint-out-degree");
  std::vector<uint32_t> Degree(numVars(), 0);
  for (const EdgeRec &E : Edges)
    ++Degree[E.From];
  for (const FeedRec &F : Feeds)
    ++Degree[F.Var];
  for (uint32_t D : Degree)
    obsHistogram(OutDegree, D);
}

void ConstraintSystem::recordSolutionMetrics() const {
  if (!currentMetrics())
    return;
  ensureCondensed();
  // Report per *variable*, not per component, so the effect-set-size
  // distribution is unchanged by the collapse.
  static const MetricId SetSize = metricId("effect-set-size");
  for (uint32_t V = 0; V < numVars(); ++V)
    if (InScope[V])
      obsHistogram(SetSize, Cond.Sol[Cond.Comp[V]].size());
}

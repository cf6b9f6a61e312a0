//===- ConstraintSystem.h - Effect constraints and solving ----*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The effect constraint system of Section 4, extended with the
/// read/write/alloc effect kinds of Section 6.1 and the conditional
/// constraints of Sections 5 and 6.
///
/// Constraint generation (EffectInference.h) emits constraints directly
/// in the graph form
///
/// \code
///   {X(rho)} <= eps   |   eps1 <= eps2   |   (M1 n M2) <= eps
///   M := {X(rho)} | eps         X := read | write | alloc
/// \endcode
///
/// viewed as a directed graph with element sources, effect-variable nodes,
/// and in-degree-2 intersection nodes (the paper's I nodes).
///
/// The graph is stored flat: one append-only array per constraint kind
/// (edges, seeds, intersection feeds), each in generation order, and no
/// per-variable containers. A pass that needs the constraints grouped by
/// variable builds that grouping with a stable counting sort, which keeps
/// each variable's constraints in generation order, so every traversal
/// sees exactly the per-variable order the constraints were added in.
///
/// Two solvers are provided:
///
///  * CHECK-SAT (Figure 5): a per-source modified DFS answering "does
///    element X(rho) reach variable eps in the least solution?" in O(n).
///    Restrict *checking* issues O(k) such queries, giving the paper's
///    O(kn) bound.
///  * Least-solution propagation: computes the full least solution by
///    worklist propagation, then monitors conditional constraints -- "if
///    rho is accessed in eps, unify rho = rho'" and friends -- firing
///    their actions and re-propagating until a fixpoint. Firing is
///    monotone (solutions only grow, location classes only merge), so the
///    loop terminates; with O(n) conditionals and O(n) work per firing
///    this is the paper's O(n^2) inference algorithm (Section 5).
///
/// Location unification during solving is handled by re-canonicalizing
/// stored elements against the location union-find after each round of
/// firings.
///
/// Both solvers run over an SCC *pre-collapse* of the plain-edge graph
/// (the wave/deep-propagation move of inclusion-constraint solvers):
/// every variable on a plain-edge cycle provably has the same least
/// solution, so solution sets, the propagation worklist, and CHECK-SAT's
/// DFS all operate at component granularity. The condensation is built
/// lazily (and rebuilt once per firing round), with the adjacency packed
/// into CSR arrays for locality. The one uncollapsed traversal is
/// explainReach, which walks the variable-level graph (regrouped from the
/// flat arrays per call) for --explain witnesses and doubles as the
/// reference the solver tests and benchmarks compare reaches() and
/// member() against.
///
/// Propagation gives each intersection a *driving* side (side A, or side
/// B when A is a constant element) and a *passive* side. An element
/// flushed on the driving side tests the passive operand; on a miss it
/// waits in an index keyed by the canonical element. An element flushed
/// on a passive side never scans its component's feeds: it looks itself
/// up in that index and tests only the intersections waiting for it.
/// Whichever side flushes second sees the element in the other side's
/// set, so every firing is found. In generated programs the driving side
/// is a function body and the passive side the shared locs(Gamma) union,
/// which feeds every function's (Down) intersection.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_EFFECTS_CONSTRAINTSYSTEM_H
#define LNA_EFFECTS_CONSTRAINTSYSTEM_H

#include "alias/Types.h"
#include "effects/SmallElemSet.h"
#include "obs/Provenance.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace lna {

/// The kinds of effects, per Section 6.1.
enum class EffectKind : uint8_t {
  Read = 0,
  Write = 1,
  Alloc = 2,
};

/// An effect variable (the paper's epsilon).
using EffVar = uint32_t;
constexpr EffVar InvalidEffVar = ~0u;

/// An effect element X(rho), stored canonicalized as (loc << 2) | kind.
class EffectElem {
public:
  EffectElem(EffectKind K, LocId L)
      : Bits((L << 2) | static_cast<uint32_t>(K)) {}
  explicit EffectElem(uint32_t Bits) : Bits(Bits) {}

  EffectKind kind() const { return static_cast<EffectKind>(Bits & 3); }
  LocId loc() const { return Bits >> 2; }
  uint32_t bits() const { return Bits; }

  friend bool operator==(EffectElem A, EffectElem B) {
    return A.Bits == B.Bits;
  }

private:
  uint32_t Bits;
};

/// An intersection operand: a singleton element, a variable, or a
/// *virtual union* of variables. The union form implements the paper's
/// memoization of locs(Gamma) (Section 4): environment/type location sets
/// are shared and consulted in place instead of being copied into a
/// materialized union variable, which would cost |locs(Gamma)| space and
/// time per scope. A shared member feeds every intersection whose union
/// it is in. Generation puts the union on side B, which propagation
/// treats as the *passive* side: an element reaching the shared set is
/// tested only against the intersections whose driving side already
/// holds it, never against every function body the set feeds.
struct InterOperand {
  enum class Kind : uint8_t { Elem, Var, VarUnion };
  Kind K;
  uint32_t Value = 0; ///< elem bits or EffVar
  std::vector<EffVar> Union; ///< members (VarUnion)

  static InterOperand elem(EffectElem E) {
    return {Kind::Elem, E.bits(), {}};
  }
  static InterOperand var(EffVar V) { return {Kind::Var, V, {}}; }
  static InterOperand varUnion(std::vector<EffVar> Vs) {
    return {Kind::VarUnion, 0, std::move(Vs)};
  }
};

/// An action fired by a conditional constraint.
struct CondAction {
  enum class Kind : uint8_t {
    UnifyLocs,        ///< unify(A, B)
    AddEdge,          ///< var A <= var B
    AddElemAllKinds,  ///< {read,write,alloc}(A) <= var B
    AddElemReadWrite, ///< {read,write}(A) <= var B
  };
  Kind K;
  uint32_t A = 0;
  uint32_t B = 0;
};

/// A conditional constraint (Sections 5 and 6). When the premise becomes
/// true in the current least solution, the actions fire (once).
struct CondConstraint {
  enum class Premise : uint8_t {
    /// any-kind access: exists X with X(Rho) in sol(Var) (or in the
    /// solution of any member of AnyOf, when AnyOf is nonempty)
    LocInVar,
    /// exists rho'' with write(rho'') or alloc(rho'') in sol(Var)
    SideEffectNonEmpty,
    /// exists rho'' with read(rho'') in sol(VarA) and write(rho'') or
    /// alloc(rho'') in sol(Var)
    ReadWriteOverlap,
  };
  Premise P;
  LocId Rho = InvalidLocId; ///< for LocInVar
  EffVar VarA = InvalidEffVar; ///< reads side for ReadWriteOverlap
  EffVar Var = InvalidEffVar;
  /// For LocInVar: when nonempty, the premise tests membership in the
  /// *union* of these variables' solutions (shared environment/type sets,
  /// never materialized).
  std::vector<EffVar> AnyOf;
  std::vector<CondAction> Actions;
  bool Fired = false;
  /// Provenance of the construct that generated this conditional
  /// (stamped by setOrigin when origin tracking is on); constraints the
  /// firing adds inherit it, so explain paths can cross a firing.
  SourceLoc OriginLoc{};
  const char *OriginNote = nullptr;
};

/// Solver statistics (used by the scaling and ablation benchmarks).
struct SolverStats {
  uint64_t PropagatedElems = 0;
  uint64_t Rounds = 0;
  uint64_t CondFirings = 0;
  uint64_t CheckSatQueries = 0;
  uint64_t CheckSatVisited = 0;
  /// Membership tests of an intersection operand. A complexity pin for
  /// the tests; not rendered in --stats or --metrics-out.
  uint64_t IntersectionTests = 0;
};

/// The normal-form effect constraint graph and its solvers.
class ConstraintSystem {
public:
  explicit ConstraintSystem(LocTable &Locs) : Locs(Locs) {}

  LocTable &locs() { return Locs; }

  /// Creates a fresh effect variable.
  EffVar makeVar();
  uint32_t numVars() const { return static_cast<uint32_t>(InScope.size()); }

  /// {X(rho)} <= V.
  void addElement(EffectKind K, LocId Rho, EffVar V);
  /// {read,write,alloc}(rho) <= V (used for locs(t) sets, where any kind
  /// of access counts).
  void addElementAllKinds(LocId Rho, EffVar V);
  /// From <= To.
  void addEdge(EffVar From, EffVar To);
  /// (A n B) <= Out.
  void addIntersection(InterOperand A, InterOperand B, EffVar Out);
  /// Registers a conditional constraint; returns its index.
  uint32_t addConditional(CondConstraint C);

  uint32_t numEdges() const { return static_cast<uint32_t>(Edges.size()); }
  uint32_t numIntersections() const {
    return static_cast<uint32_t>(Inters.size());
  }
  const std::vector<CondConstraint> &conditionals() const { return Conds; }

  //===--------------------------------------------------------------===//
  // CHECK-SAT (Figure 5): per-source reachability, no conditionals.
  //===--------------------------------------------------------------===//

  /// True iff X(rho) is in sol(Target) in the least solution of the
  /// unconditional constraints. O(n) per query worst case; the collapsed
  /// graph, seed/element indexes, and epoch-stamped scratch make the
  /// common sparse query O(reached subgraph) with no allocation.
  bool reaches(EffectKind K, LocId Rho, EffVar Target) const;
  /// True iff any of the three kinds of rho reaches Target.
  bool reachesAnyKind(LocId Rho, EffVar Target) const;
  /// The first of \p Targets, in their order, that some kind of rho
  /// reaches; InvalidEffVar if none does. One DFS per kind answers every
  /// target at once (so the same three queries whatever |Targets|); the
  /// kinds stay separate searches because an intersection fires only on
  /// one element arriving at both of its sides.
  EffVar firstReachedAnyKind(LocId Rho,
                             const std::vector<EffVar> &Targets) const;

  //===--------------------------------------------------------------===//
  // Least-solution propagation with conditional constraints.
  //===--------------------------------------------------------------===//

  /// Computes the least solution, firing conditional constraints until a
  /// fixpoint. If \p QueryVars is nonempty, only the subgraph that can
  /// reach a query variable or a conditional's variable is propagated
  /// (the backwards-search optimization of Section 6.2); solution() is
  /// then only meaningful for those variables.
  void solve(const std::vector<EffVar> &QueryVars = {});

  /// The least-solution element set of \p V (canonical elements). Only
  /// valid after solve(). Variables on a common plain-edge cycle share
  /// one physical set.
  const SmallElemSet &solution(EffVar V) const;

  /// Membership queries against the computed solution. Canonicalize
  /// through the location union-find.
  bool member(EffectKind K, LocId Rho, EffVar V) const;
  bool memberAnyKind(LocId Rho, EffVar V) const;

  const SolverStats &stats() const { return Stats; }

  /// Renders sol(V) for debugging.
  std::string solutionToString(EffVar V) const;

  //===--------------------------------------------------------------===//
  // Provenance (--explain) and metrics (obs layer).
  //===--------------------------------------------------------------===//

  /// Turns on origin stamping. Must be called before any constraints are
  /// added (the origin vectors parallel the constraint storage).
  void enableOriginTracking() { TrackOrigins = true; }
  bool originTrackingEnabled() const { return TrackOrigins; }

  /// Sets the origin stamped onto subsequently added seeds, edges,
  /// intersections, and conditionals: the source location of the program
  /// construct being translated and a note naming its role. No-op unless
  /// origin tracking is on. \p Note must be a string literal.
  void setOrigin(SourceLoc Loc, const char *Note) {
    if (TrackOrigins) {
      CurOrigin.Loc = Loc;
      CurOrigin.Note = Note;
    }
  }

  /// Reconstructs how X(rho) reaches sol(Target): a breadth-first replay
  /// of the reachability search recording parent pointers, rendered as
  /// the chain of constraint origins from the edge into \p Target down
  /// to the seeding access. Non-empty exactly when the element reaches
  /// \p Target, whether or not origins are tracked (untracked steps
  /// carry no locations, only generic notes). Covers constraints added
  /// by fired conditionals, since firing physically adds them to the
  /// graph. Runs on the *uncollapsed* graph so the witness chain matches
  /// the program's constraints one-to-one; that also makes it the
  /// independent reference for the collapsed reaches() and member().
  std::vector<ExplainStep> explainReach(EffectKind K, LocId Rho,
                                        EffVar Target) const;
  /// explainReach for the first of read/write/alloc that reaches.
  std::vector<ExplainStep> explainReachAnyKind(LocId Rho, EffVar Target) const;

  /// Records the out-degree of every variable node into the current
  /// thread's metrics registry ("constraint-out-degree"); called once
  /// per session after constraint generation.
  void recordGraphMetrics() const;
  /// Records the least-solution size of every in-scope variable
  /// ("effect-set-size"); only meaningful after solve().
  void recordSolutionMetrics() const;

private:
  /// Where a constraint came from (parallel to the constraint storage;
  /// only filled when TrackOrigins).
  struct Origin {
    SourceLoc Loc{};
    const char *Note = nullptr;
  };

  struct InterNode {
    InterOperand A;
    InterOperand B;
    EffVar Out;
    Origin Orig{};
  };

  /// The constraint graph, one append-only record array per kind in
  /// generation order (the authoritative, uncollapsed graph; provenance
  /// replay and condensation rebuilds read it).
  struct EdgeRec {
    EffVar From;
    EffVar To;
  };
  /// {Elem} <= Var, Elem as added (not canonicalized).
  struct SeedRec {
    EffVar Var;
    uint32_t Elem;
  };
  /// Var is (a member of) side Side of intersection Inter.
  struct FeedRec {
    EffVar Var;
    uint32_t Inter;
    uint8_t Side;
  };

  /// Values grouped by variable: Items[Start[V]..Start[V+1]) are V's, in
  /// generation order (a stable counting sort), built from NumRecs
  /// records over NumVars variables.
  template <typename T> struct ByVar {
    std::vector<uint32_t> Start;
    std::vector<T> Items;
    size_t NumRecs = ~size_t(0);
    uint32_t NumVars = 0;

    const T *begin(uint32_t V) const { return Items.data() + Start[V]; }
    const T *end(uint32_t V) const { return Items.data() + Start[V + 1]; }
  };

  /// The lazily built SCC condensation both solvers run on. Solution
  /// sets live here, at component granularity; a rebuild (triggered by
  /// new variables, edges, or intersections) carries them over by
  /// unioning the old components that fold into each new one. A firing
  /// round of solve() keeps using an invalidated (stale) partition and
  /// rebuilds once at the round's end.
  struct Condensation {
    bool Valid = false;
    uint32_t NumComps = 0;
    std::vector<uint32_t> Comp; ///< var -> component
    /// CSR component adjacency over plain edges (intra-component edges
    /// dropped) and component -> (intersection, side) feeds.
    std::vector<uint32_t> EdgeStart, EdgeTargets;
    std::vector<uint32_t> InterStart;
    std::vector<std::pair<uint32_t, uint8_t>> InterFeeds;
    /// Propagation's view of the feeds: CSR component -> intersections it
    /// drives, in feed order. A component with more feeds than driving
    /// feeds also feeds a passive side.
    std::vector<uint32_t> DriveStart, DriveInters;
    /// Solver state, per component.
    std::vector<SmallElemSet> Sol;
    std::vector<std::vector<uint32_t>> Pending;
    std::vector<uint8_t> Dirty;
    std::vector<uint8_t> InScope;
    /// CHECK-SAT source indexes, keyed by canonical element bits;
    /// invalidated when the location union-find merges classes or seeds
    /// are added.
    bool IndexValid = false;
    uint32_t IndexMergeStamp = 0;
    size_t IndexSeedStamp = 0;
    std::unordered_map<uint32_t, std::vector<uint32_t>> SeedComps;
    std::unordered_map<uint32_t, std::vector<std::pair<uint32_t, uint8_t>>>
        ElemFeeds;
    /// Epoch-stamped DFS scratch: no per-query allocation or clearing.
    std::vector<uint32_t> VisitEpoch; ///< per component
    std::vector<uint32_t> SideEpoch;  ///< per intersection
    std::vector<uint8_t> SideMask;    ///< valid when SideEpoch == Epoch
    std::vector<uint32_t> WorkScratch;
    uint32_t Epoch = 0;
  };

  /// Intersections whose driving side holds an element their passive
  /// side lacked when it arrived, keyed by the canonical element: an
  /// open-addressed table (linear probing) of per-element chain heads,
  /// and one append-only array of chain links. A link is unlinked once
  /// its intersection fires; keys of locations unified away are never
  /// looked up again and stay as dead weight.
  struct WaitIndex {
    static constexpr uint32_t None = ~0u;
    struct Slot {
      uint32_t Elem = SmallElemSet::EmptySlot;
      uint32_t Head = None;
    };
    struct Link {
      uint32_t Inter;
      uint32_t Next;
    };
    std::vector<Slot> Slots; ///< power-of-two size, at most half full
    std::vector<Link> Links;
    uint32_t NumKeys = 0;

    void add(uint32_t Elem, uint32_t Inter);
    /// The chain head of \p Elem, or nullptr if nothing ever waited on it.
    uint32_t *head(uint32_t Elem);
    /// The slot index \p Elem occupies or would occupy.
    uint32_t probe(uint32_t Elem) const;
  };

  uint32_t canon(uint32_t ElemBits) const {
    EffectElem E(ElemBits);
    return EffectElem(E.kind(), Locs.find(E.loc())).bits();
  }

  /// True if the operand's (union of) solution(s) contains \p CanonElem.
  bool operandContains(const InterOperand &Op, uint32_t CanonElem) const;
  /// The side (0 = A, 1 = B) whose arrivals test the other operand: A,
  /// unless A is a constant element, which never arrives anywhere.
  static uint8_t drivingSide(const InterNode &N) {
    return N.A.K == InterOperand::Kind::Elem ? 1 : 0;
  }
  static const InterOperand &passiveOperand(const InterNode &N) {
    return drivingSide(N) == 0 ? N.B : N.A;
  }

  void ensureCondensed() const;
  void rebuildCondensation() const;
  void ensureCheckSatIndex() const;
  /// Calls F(Var, Elem) for every seed, variable by variable, each
  /// variable's seeds in generation order.
  template <typename Fn> void forEachSeedByVar(Fn F) const;
  const ByVar<std::pair<uint32_t, uint8_t>> &feedsByVar() const;
  bool dfsCollapsed(uint32_t CanonElem, uint32_t StopComp) const;

  void insertElem(EffVar V, uint32_t ElemBits);
  void insertElemComp(uint32_t C, uint32_t ElemBits);
  void propagate();
  /// \p CanonElem was flushed on intersection \p I's driving side.
  void driveIntersection(uint32_t I, uint32_t CanonElem);
  /// \p CanonElem was flushed on a passive side: fires the waiting
  /// intersections whose passive operand now holds it.
  void wakeWaiting(uint32_t CanonElem);
  void recanonicalize();
  void recheckElemIntersections();
  bool evalPremise(const CondConstraint &C) const;
  void applyAction(const CondAction &A);
  void computeScope(const std::vector<EffVar> &QueryVars);

  LocTable &Locs;
  std::vector<EdgeRec> Edges;
  std::vector<SeedRec> Seeds;
  std::vector<FeedRec> Feeds;
  /// Parallel to Edges / Seeds when origin tracking is on.
  std::vector<Origin> EdgeOrigins;
  std::vector<Origin> SeedOrigins;
  /// Per variable: included in filtered propagation. Its size is the
  /// number of variables.
  std::vector<uint8_t> InScope;
  std::vector<InterNode> Inters;
  std::vector<CondConstraint> Conds;
  /// Intersections with an element operand: their canonical element
  /// changes when its location is unified, so they are re-checked after
  /// every round that merged location classes.
  std::vector<uint32_t> ElemInters;
  /// Kept across condensation rebuilds and solve() calls: its keys are
  /// elements and its links intersections, neither of which a rebuild
  /// renumbers.
  WaitIndex Waiting;
  mutable std::vector<uint32_t> Worklist; ///< dirty components
  mutable SolverStats Stats;
  mutable Condensation Cond;
  /// Cached groupings of Seeds (elements) and Feeds ((intersection, side)
  /// pairs) by variable; rebuilt when records or variables were added.
  mutable ByVar<uint32_t> SeedGroups;
  mutable ByVar<std::pair<uint32_t, uint8_t>> FeedGroups;
  bool TrackOrigins = false;
  Origin CurOrigin{};
};

} // namespace lna

#endif // LNA_EFFECTS_CONSTRAINTSYSTEM_H

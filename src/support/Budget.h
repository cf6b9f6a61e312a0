//===- Budget.h - Resource budgets and typed analysis aborts --*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resource-governance layer. The paper's O(kn) CHECK-SAT bound
/// (Figure 5) holds for well-behaved inputs; adversarial ones (deep
/// nesting, pathological unification chains, arena blowup -- all reached
/// by the fuzzer) can make a single analysis hang or exhaust memory. A
/// production service cannot let one module take the whole corpus run
/// down, so every analysis runs under an explicit ResourceBudget:
///
///  * a wall-clock deadline,
///  * an arena byte cap (enforced by Arena itself, see Arena.h),
///  * a constraint/unification/evaluation step cap, and
///  * an AST node cap.
///
/// Exhaustion raises a typed AnalysisAbort carrying a FailureKind, which
/// the AnalysisSession driver catches at phase boundaries and converts
/// into a structured per-phase failure (core/Session.h) -- aborts never
/// propagate out of the driver.
///
/// Polling is cooperative and cheap: hot loops call budgetStep(), which
/// consults a thread-local current budget (installed by BudgetScope for
/// the duration of a phase) and no-ops when none is armed. The step cap
/// is exact; the clock is only read every PollInterval steps, keeping
/// the common case to a counter increment.
///
/// The same thread-local pattern carries the fault-injection hook
/// (FaultHook): instrumented points call faultPoint("site"), and a test
/// harness (src/fuzz/FaultInjector.h) installs a hook that
/// probabilistically throws or delays there. Site names use a "group:"
/// prefix -- "alloc:*" for allocation sites, everything else is a
/// phase-boundary site -- so injectors can target fault classes.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_SUPPORT_BUDGET_H
#define LNA_SUPPORT_BUDGET_H

#include <chrono>
#include <cstdint>
#include <exception>
#include <string>

namespace lna {

/// Why an analysis (or one phase of it) failed. The first three are
/// resource-budget exhaustions; ParseError/TypeError categorize phases
/// that fail through diagnostics rather than by throwing; InternalError
/// is the backstop for unexpected exceptions (and the class the fault
/// injector uses for transient faults, which the corpus runner retries).
/// Crashed is assigned by the corpus supervisor, never raised in
/// process: the worker analyzing the module died (signal, OOM kill,
/// unexpected exit) repeatedly enough to quarantine the module.
enum class FailureKind : uint8_t {
  None = 0,
  Timeout,
  MemoryCap,
  StepCap,
  ParseError,
  TypeError,
  InternalError,
  Crashed,
};
inline constexpr unsigned NumFailureKinds = 8;

/// "timeout", "memory-cap", "step-cap", "parse-error", "type-error",
/// "internal-error", "crashed" ("none" for None).
const char *failureKindName(FailureKind K);

/// The typed abort raised on budget exhaustion or an injected fault.
/// Caught by AnalysisSession at phase boundaries; never intended to
/// reach a tool's main().
class AnalysisAbort : public std::exception {
public:
  AnalysisAbort(FailureKind Kind, std::string Message)
      : Kind(Kind), Message(std::move(Message)) {}

  FailureKind kind() const { return Kind; }
  const char *what() const noexcept override { return Message.c_str(); }

private:
  FailureKind Kind;
  std::string Message;
};

/// The caps of one analysis. 0 always means "unlimited".
struct ResourceLimits {
  uint64_t TimeoutMillis = 0;   ///< wall-clock deadline
  uint64_t MaxMemoryBytes = 0;  ///< AST arena byte cap
  uint64_t MaxSteps = 0;        ///< constraint/unification/eval steps
  uint64_t MaxAstNodes = 0;     ///< parsed/rewritten AST nodes

  bool any() const {
    return TimeoutMillis != 0 || MaxMemoryBytes != 0 || MaxSteps != 0 ||
           MaxAstNodes != 0;
  }
};

/// Cooperative budget: counts steps and AST nodes against the caps and
/// polls the wall clock, throwing AnalysisAbort on exhaustion. One
/// budget governs one run of an analysis session (all of its phases
/// share the deadline and the step count).
class ResourceBudget {
public:
  /// Arms the caps; the deadline starts now and the step count at zero.
  /// \p AstNodesSoFar nodes count as already charged against
  /// MaxAstNodes. Arming with all-zero limits leaves the budget disarmed
  /// (every poll is then a no-op).
  void arm(const ResourceLimits &L, uint64_t AstNodesSoFar = 0);

  bool armed() const { return Armed; }
  const ResourceLimits &limits() const { return Limits; }
  uint64_t steps() const { return Steps; }

  /// Charges \p N steps. Exact against MaxSteps; reads the clock only
  /// every PollInterval calls.
  void step(uint64_t N = 1) {
    if (!Armed)
      return;
    Steps += N;
    if (Limits.MaxSteps != 0 && Steps > Limits.MaxSteps)
      throwStepCap();
    if (Limits.TimeoutMillis != 0 && ++Polls >= PollInterval) {
      Polls = 0;
      checkDeadline();
    }
  }

  /// Charges one AST node against MaxAstNodes.
  void noteAstNode() {
    if (!Armed || Limits.MaxAstNodes == 0)
      return;
    if (++AstNodes > Limits.MaxAstNodes)
      throwAstCap();
  }

  /// Unconditional deadline poll (phase boundaries call this so a
  /// deadline that expired inside an un-instrumented stretch is still
  /// caught before more work starts).
  void checkNow() {
    if (Armed && Limits.TimeoutMillis != 0)
      checkDeadline();
  }

private:
  /// Clock reads are ~20ns; one per 4096 counter bumps keeps polling
  /// overhead invisible while bounding deadline overshoot.
  static constexpr uint32_t PollInterval = 4096;

  void checkDeadline() const;
  [[noreturn]] void throwStepCap() const;
  [[noreturn]] void throwAstCap() const;

  ResourceLimits Limits;
  std::chrono::steady_clock::time_point Deadline{};
  uint64_t Steps = 0;
  uint64_t AstNodes = 0;
  uint32_t Polls = 0;
  bool Armed = false;
};

/// The budget governing the current thread's analysis, or nullptr.
ResourceBudget *currentBudget() noexcept;

/// Installs a budget as the thread's current one for the scope's
/// lifetime (saving and restoring any enclosing budget).
class BudgetScope {
public:
  explicit BudgetScope(ResourceBudget &B);
  ~BudgetScope();
  BudgetScope(const BudgetScope &) = delete;
  BudgetScope &operator=(const BudgetScope &) = delete;

private:
  ResourceBudget *Prev;
};

/// The hot-loop checkpoint: charges steps against the current thread's
/// budget, if any. Free to call from code that also runs outside any
/// session (oracles, benchmarks): with no budget installed it is a
/// thread-local load and a branch.
inline void budgetStep(uint64_t N = 1) {
  if (ResourceBudget *B = currentBudget())
    B->step(N);
}

/// Charges one AST node against the current thread's budget, if any.
inline void budgetAstNode() {
  if (ResourceBudget *B = currentBudget())
    B->noteAstNode();
}

//===----------------------------------------------------------------------===//
// Fault-injection hook
//===----------------------------------------------------------------------===//

/// The interface instrumented points fault through. Implementations may
/// throw (std::bad_alloc, AnalysisAbort) or delay; the concrete seeded
/// injector lives in src/fuzz/FaultInjector.h, keeping the fuzz
/// dependency out of the analysis libraries.
class FaultHook {
public:
  virtual ~FaultHook();
  /// Called at the instrumented point named \p Site ("alloc:arena",
  /// "parse", "corpus:module", ...).
  virtual void at(const char *Site) = 0;
};

/// The hook governing the current thread, or nullptr.
FaultHook *currentFaultHook() noexcept;

/// Installs a hook as the thread's current one for the scope's lifetime.
class FaultHookScope {
public:
  explicit FaultHookScope(FaultHook &H);
  ~FaultHookScope();
  FaultHookScope(const FaultHookScope &) = delete;
  FaultHookScope &operator=(const FaultHookScope &) = delete;

private:
  FaultHook *Prev;
};

/// An instrumented point: faults through the current hook, if any.
inline void faultPoint(const char *Site) {
  if (FaultHook *H = currentFaultHook())
    H->at(Site);
}

} // namespace lna

#endif // LNA_SUPPORT_BUDGET_H

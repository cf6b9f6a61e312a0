//===- Budget.cpp - Resource budgets and typed analysis aborts ------------===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"

using namespace lna;

const char *lna::failureKindName(FailureKind K) {
  switch (K) {
  case FailureKind::None:
    return "none";
  case FailureKind::Timeout:
    return "timeout";
  case FailureKind::MemoryCap:
    return "memory-cap";
  case FailureKind::StepCap:
    return "step-cap";
  case FailureKind::ParseError:
    return "parse-error";
  case FailureKind::TypeError:
    return "type-error";
  case FailureKind::InternalError:
    return "internal-error";
  case FailureKind::Crashed:
    return "crashed";
  }
  return "?";
}

void ResourceBudget::arm(const ResourceLimits &L, uint64_t AstNodesSoFar) {
  Limits = L;
  Steps = 0;
  AstNodes = AstNodesSoFar;
  Polls = 0;
  Armed = L.any();
  if (Limits.TimeoutMillis != 0)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(Limits.TimeoutMillis);
}

void ResourceBudget::checkDeadline() const {
  if (std::chrono::steady_clock::now() > Deadline)
    // The message names the configured limit, not the measured elapsed
    // time: failure categorization must stay byte-identical across runs
    // and job counts.
    throw AnalysisAbort(FailureKind::Timeout,
                        "wall-clock deadline of " +
                            std::to_string(Limits.TimeoutMillis) +
                            "ms exceeded");
}

void ResourceBudget::throwStepCap() const {
  throw AnalysisAbort(FailureKind::StepCap,
                      "step cap of " + std::to_string(Limits.MaxSteps) +
                          " analysis steps exceeded");
}

void ResourceBudget::throwAstCap() const {
  throw AnalysisAbort(FailureKind::MemoryCap,
                      "AST node cap of " +
                          std::to_string(Limits.MaxAstNodes) +
                          " nodes exceeded");
}

namespace {
thread_local ResourceBudget *CurrentBudget = nullptr;
thread_local FaultHook *CurrentHook = nullptr;
} // namespace

ResourceBudget *lna::currentBudget() noexcept { return CurrentBudget; }

BudgetScope::BudgetScope(ResourceBudget &B) : Prev(CurrentBudget) {
  CurrentBudget = &B;
}

BudgetScope::~BudgetScope() { CurrentBudget = Prev; }

FaultHook::~FaultHook() = default;

FaultHook *lna::currentFaultHook() noexcept { return CurrentHook; }

FaultHookScope::FaultHookScope(FaultHook &H) : Prev(CurrentHook) {
  CurrentHook = &H;
}

FaultHookScope::~FaultHookScope() { CurrentHook = Prev; }

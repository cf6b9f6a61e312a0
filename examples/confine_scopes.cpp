//===- confine_scopes.cpp - Section 6.2 scope inference demo --*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Confine scope inference: candidates are inserted at every possible
// scope (the Section 7 block heuristic plus the Section 6.2 enclosing
// chain) and constraint solving decides which succeed. Demonstrates:
//
//  * a lock/unlock pair whose widest (function-body) scope succeeds;
//  * an escape in the middle of a pair that kills the wide scope but not
//    the narrow per-statement ones;
//  * a referential-transparency failure (the body writes what the
//    subject reads).
//
//   $ ./confine_scopes
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "lang/AstPrinter.h"
#include "lang/ExprUtils.h"

#include <cstdio>

using namespace lna;

namespace {

void demo(const char *Title, const char *Source) {
  std::printf("==== %s ====\n%s\n", Title, Source);
  AnalysisSession S;
  if (!S.run(Source)) {
    std::printf("%s", S.diags().render().c_str());
    return;
  }
  const ASTContext &Ctx = S.context();
  const PipelineResult &R = S.result();

  AstPrinter SubjectPrinter(Ctx);
  std::printf("candidates: %zu\n", R.OptionalConfines.size());
  for (ExprId Id : R.OptionalConfines) {
    const auto *C = cast<ConfineExpr>(Ctx.expr(Id));
    const auto *Body = dyn_cast<BlockExpr>(C->body());
    std::printf("  confine? %-24s over %zu statement(s): %s\n",
                SubjectPrinter.print(C->subject()).c_str(),
                Body ? Body->stmts().size() : 1,
                R.Inference.confineSucceeded(Id) ? "succeeded" : "failed");
  }

  PrintOverlay Overlay;
  Overlay.BindAsRestrict = R.Inference.RestrictableBinds;
  for (ExprId Id : R.OptionalConfines)
    if (!R.Inference.confineSucceeded(Id))
      Overlay.DropConfines.insert(Id);
  std::printf("\nAnnotated program:\n%s\n",
              AstPrinter(Ctx, &Overlay).print(R.Analyzed).c_str());
}

} // namespace

int main() {
  demo("widest scope succeeds", R"(
var locks : array lock;
fun f(i : int) : int {
  spin_lock(locks[i]);
  if nondet() then work() else work();
  spin_unlock(locks[i])
}
)");

  demo("escape kills the wide scope", R"(
var locks : array lock;
var saved : ptr lock;
fun f(i : int) : int {
  spin_lock(locks[i]);
  saved := locks[i];
  work();
  spin_unlock(locks[i])
}
)");

  demo("body writes what the subject reads", R"(
var spare : lock;
var cur : ptr lock;
fun f() : int {
  spin_lock(*cur);
  cur := spare;
  spin_unlock(*cur)
}
)");
  return 0;
}

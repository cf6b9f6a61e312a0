//===- quickstart.cpp - Five-minute tour of the lna library ---*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Quickstart: analyze a program with explicit `restrict` annotations
// through an AnalysisSession -- the one entry point into the analysis --
// running the annotation checker (the paper's Section 4 algorithm), and
// print the verdicts. Then break the annotation and watch the checker
// object.
//
//   $ ./quickstart
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"

#include <cstdio>

using namespace lna;

namespace {

void checkAndReport(const char *Title, const char *Source) {
  std::printf("---- %s ----\n%s\n", Title, Source);

  PipelineOptions Opts;
  Opts.Mode = PipelineMode::CheckAnnotations;
  AnalysisSession S(Opts);
  if (!S.run(Source)) {
    std::printf("%s errors:\n%s\n",
                S.failure()->Kind == FailureKind::ParseError ? "syntax"
                                                             : "type",
                S.diags().render().c_str());
    return;
  }
  const PipelineResult &R = S.result();

  if (R.Checks.ok()) {
    std::printf("=> all restrict/confine annotations verified\n\n");
    return;
  }
  std::printf("=> %zu violation(s):\n", R.Checks.Violations.size());
  for (const RestrictViolation &V : R.Checks.Violations)
    std::printf("   - %s\n", V.Message.c_str());
  std::printf("\n");
}

} // namespace

int main() {
  // The paper's Section 2 example: p is the sole access to *q within the
  // scope, local copies are allowed.
  checkAndReport("valid restrict (local copy allowed)", R"(
fun f(q : ptr int) : int {
  restrict p = q in
    let r = p in *r
}
)");

  // Dereferencing the original name inside the scope is the canonical
  // violation.
  checkAndReport("invalid restrict (original name used in scope)", R"(
fun f(q : ptr int) : int {
  restrict p = q in { *p; *q }
}
)");

  // Copies of the restricted pointer must not escape the scope.
  checkAndReport("invalid restrict (copy escapes to a global)", R"(
var x : ptr int;
fun f(q : ptr int) : int {
  restrict p = q in { x := p; 0 }
}
)");

  // C99-style restrict parameters desugar to a restrict around the body.
  checkAndReport("valid restrict parameter (the do_with_lock shape)", R"(
var locks : array lock;
fun do_with_lock(restrict l : ptr lock) : int {
  spin_lock(l);
  work();
  spin_unlock(l)
}
fun foo(i : int) : int { do_with_lock(locks[i]) }
)");
  return 0;
}

//===- restrict_inference.cpp - Section 5 inference demo ------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Restrict inference on a program full of `let` bindings: the analysis
// computes the unique maximum set of bindings that may soundly become
// `restrict` (Section 5) and prints the annotated program.
//
//   $ ./restrict_inference
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "lang/AstPrinter.h"

#include <cstdio>

using namespace lna;

int main() {
  const char *Source = R"(
var shared : ptr int;

fun reader(q : ptr int) : int { *q }

fun f(q : ptr int, w : ptr int) : int {
  // Sole access within the scope: restrictable.
  let a = q in *a;

  // The original name is also used inside the scope: must stay a let.
  let b = q in { *b; *q };

  // The pointer escapes into a global: must stay a let.
  let c = w in { shared := c; 0 };

  // Access through a callee, but only via the binder: restrictable.
  let d = w in reader(d);

  // Local copies inside the scope are allowed: restrictable.
  let e = q in let f2 = e in *f2
}
)";
  std::printf("Input:\n%s\n", Source);

  PipelineOptions Opts;
  Opts.PlaceConfines = false; // restrict inference only
  AnalysisSession S(Opts);
  if (!S.run(Source)) {
    std::printf("%s", S.diags().render().c_str());
    return 1;
  }
  const ASTContext &Ctx = S.context();
  const PipelineResult &R = S.result();

  std::printf("Pointer-typed bindings: %zu\n", R.Alias.Binds.size());
  for (const BindInfo &BI : R.Alias.Binds) {
    if (!BI.IsPointer)
      continue;
    const auto *B = cast<BindExpr>(Ctx.expr(BI.Id));
    bool Restrictable = R.Inference.RestrictableBinds.count(BI.Id) != 0;
    std::printf("  %-4s (line %u): %s\n", Ctx.text(B->name()).c_str(),
                B->loc().Line,
                Restrictable ? "restrictable" : "must remain let");
  }

  PrintOverlay Overlay;
  Overlay.BindAsRestrict = R.Inference.RestrictableBinds;
  std::printf("\nAnnotated program (inferred restricts materialized):\n%s",
              AstPrinter(Ctx, &Overlay).print(R.Analyzed).c_str());
  return 0;
}

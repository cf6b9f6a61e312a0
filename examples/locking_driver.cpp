//===- locking_driver.cpp - The Figure 1 locking story --------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The paper's running example end to end: a device driver locking
// elements of a lock array. Shows the flow-sensitive lock analysis in the
// paper's three modes, the inferred confine annotations, and the
// per-site type errors that weak updates cause.
//
//   $ ./locking_driver
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "lang/AstPrinter.h"
#include "qual/LockAnalysis.h"

#include <cstdio>

using namespace lna;

namespace {

const char *Driver = R"(
struct Dev { lck : lock; opens : int; }
var devs : array Dev;
var registered : lock;

fun do_with_lock(l : ptr lock) : int {
  spin_lock(l);
  work();
  spin_unlock(l)
}

fun open_dev(minor : int) : int {
  spin_lock(devs[minor]->lck);
  work();
  spin_unlock(devs[minor]->lck)
}

fun probe() : int {
  spin_lock(registered);
  work();
  spin_unlock(registered)
}

fun ioctl(minor : int) : int {
  do_with_lock(devs[minor]->lck)
}
)";

void reportErrors(const char *Mode, const ASTContext &Ctx,
                  const PipelineResult &R, bool AllStrong) {
  LockAnalysisOptions Opts;
  Opts.AllStrong = AllStrong;
  LockAnalysisResult Res = analyzeLocks(Ctx, R, Opts);
  std::printf("%-28s %u type error(s)\n", Mode, Res.numErrors());
  for (const LockError &E : Res.Errors)
    std::printf("    line %u: cannot verify %s (lock state is '%s')\n",
                E.Loc.Line, E.IsAcquire ? "spin_lock" : "spin_unlock",
                lockStateName(E.Pre));
}

} // namespace

int main() {
  std::printf("Input driver module:\n%s\n", Driver);

  // Mode 1 and 3: plain CQual-style aliasing (no inference).
  {
    PipelineOptions Opts;
    Opts.Mode = PipelineMode::CheckAnnotations;
    AnalysisSession S(Opts);
    if (!S.run(Driver))
      return 1;
    reportErrors("no confine inference:", S.context(), S.result(), false);
    reportErrors("all updates strong:", S.context(), S.result(), true);
  }

  // Mode 2: confine (and restrict) inference.
  {
    AnalysisSession S;
    if (!S.run(Driver))
      return 1;
    const ASTContext &Ctx = S.context();
    const PipelineResult &R = S.result();
    reportErrors("with confine inference:", Ctx, R, false);

    std::printf("\nconfine? candidates inserted: %zu, succeeded: %zu\n",
                R.OptionalConfines.size(),
                R.Inference.SucceededConfines.size());

    // Render the program with the successful confines kept and failed
    // candidates dropped -- the annotated program the paper's Section 6
    // transformation would produce.
    PrintOverlay Overlay;
    Overlay.BindAsRestrict = R.Inference.RestrictableBinds;
    for (ExprId Id : R.OptionalConfines)
      if (!R.Inference.confineSucceeded(Id))
        Overlay.DropConfines.insert(Id);
    std::printf("\nProgram with inferred annotations:\n%s\n",
                AstPrinter(Ctx, &Overlay).print(R.Analyzed).c_str());
  }
  return 0;
}

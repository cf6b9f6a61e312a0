//===- bench_ablation_down.cpp - (Down) rule ablation ---------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Section 3.1 argues that the effect-removal rule (Down) is essential:
// without it, effects accumulate to the root, "resulting in more locations
// being equated than should be and frequently causing restrict checking to
// fail". This ablation runs restrict/confine inference over the corpus
// with (Down) enabled and disabled and reports how many inferences are
// lost.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Session.h"
#include "qual/LockAnalysis.h"

#include <cstdio>

using namespace lna;

namespace {

struct AblationCounts {
  uint64_t RestrictsInferred = 0;
  uint64_t ConfinesSucceeded = 0;
  uint64_t QualErrors = 0;
};

AblationCounts runCorpus(bool ApplyDown) {
  AblationCounts Out;
  for (const ModuleSpec &M : lna::bench::cachedCorpus()) {
    PipelineOptions Opts;
    Opts.ApplyDown = ApplyDown;
    AnalysisSession S(Opts);
    if (!S.run(M.Source))
      continue;
    const PipelineResult &R = S.result();
    Out.RestrictsInferred += R.Inference.RestrictableBinds.size();
    Out.ConfinesSucceeded += R.Inference.SucceededConfines.size();
    Out.QualErrors += analyzeLocks(S.context(), R, {}).numErrors();
  }
  return Out;
}

} // namespace

/// The targeted Section 3.1 family: a recursive function allocating a
/// temporary, with a restrict-inference candidate inside. With (Down) the
/// temporary's effect is removed at the function boundary and the binding
/// is restrictable; without it, the recursive call re-imports the
/// binding's own effects into its scope and inference must give up.
std::string downFamilyProgram(unsigned Depth) {
  std::string Src;
  for (unsigned I = 0; I < Depth; ++I) {
    std::string H = "rec" + std::to_string(I);
    Src += "fun " + H + "(n : int) : int {\n"
           "  let t" + std::to_string(I) + " = new n in {\n"
           "    *t" + std::to_string(I) + ";\n"
           "    if n == 0 then 0 else " + H + "(n - 1)\n  }\n}\n";
  }
  return Src;
}

uint64_t restrictsInferred(const std::string &Src, bool ApplyDown) {
  PipelineOptions Opts;
  Opts.ApplyDown = ApplyDown;
  Opts.PlaceConfines = false;
  AnalysisSession S(Opts);
  return S.run(Src) ? S.result().Inference.RestrictableBinds.size() : 0;
}

int main() {
  std::printf("== Ablation: the (Down) effect-removal rule (Section 3.1) "
              "==\n\n");

  std::printf("targeted family: restrict candidates inside recursive "
              "functions with temporaries\n");
  std::printf("%-12s %14s %14s\n", "candidates", "with (Down)", "without");
  for (unsigned Depth : {1u, 4u, 16u, 64u}) {
    std::string Src = downFamilyProgram(Depth);
    std::printf("%-12u %14lu %14lu\n", Depth,
                (unsigned long)restrictsInferred(Src, true),
                (unsigned long)restrictsInferred(Src, false));
  }
  std::printf("\n");

  AblationCounts With = runCorpus(/*ApplyDown=*/true);
  AblationCounts Without = runCorpus(/*ApplyDown=*/false);

  std::printf("%-44s %12s %12s\n", "metric (corpus-wide)", "with (Down)",
              "without");
  std::printf("%-44s %12s %12s\n", "-----------------------------------",
              "-----------", "-------");
  std::printf("%-44s %12lu %12lu\n", "let bindings inferred restrict",
              (unsigned long)With.RestrictsInferred,
              (unsigned long)Without.RestrictsInferred);
  std::printf("%-44s %12lu %12lu\n", "confine? candidates that succeeded",
              (unsigned long)With.ConfinesSucceeded,
              (unsigned long)Without.ConfinesSucceeded);
  std::printf("%-44s %12lu %12lu\n",
              "lock-state type errors (confine-inference mode)",
              (unsigned long)With.QualErrors,
              (unsigned long)Without.QualErrors);

  std::printf("\npaper's claim holds: disabling (Down) must not increase "
              "inference power\n");
  bool Holds = Without.RestrictsInferred <= With.RestrictsInferred &&
               Without.ConfinesSucceeded <= With.ConfinesSucceeded &&
               Without.QualErrors >= With.QualErrors;
  std::printf("  => %s\n", Holds ? "yes" : "VIOLATED");
  return Holds ? 0 : 1;
}

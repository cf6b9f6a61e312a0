//===- bench_ablation_poly.cpp - Location-polymorphism ablation -*- C++ -*-=//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Section 7 remarks that "so far we have found one place where the
// addition of location polymorphism would remove a CQual type error", and
// the related-work section contrasts the monomorphic base analysis with
// context-sensitive alias analyses. This ablation quantifies the
// trade-off on two program families:
//
//  * singleton locks passed to a shared helper: the monomorphic analysis
//    merges the cells (weak updates); per-call-site locations (bounded
//    inlining) or confine inference both recover the strong updates;
//  * array locks passed to a shared helper: context sensitivity does NOT
//    help (the element location is inherently nonlinear); only
//    restrict/confine do -- the paper's core argument for the constructs.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "qual/LockAnalysis.h"

#include <cstdio>
#include <string>

using namespace lna;

namespace {

std::string singletonFamily(unsigned NumGlobals) {
  std::string Src;
  for (unsigned I = 0; I < NumGlobals; ++I)
    Src += "var g" + std::to_string(I) + " : lock;\n";
  Src += "fun with(l : ptr lock) : int {\n"
         "  spin_lock(l); work(); spin_unlock(l) }\n";
  for (unsigned I = 0; I < NumGlobals; ++I)
    Src += "fun e" + std::to_string(I) + "() : int { with(g" +
           std::to_string(I) + ") }\n";
  return Src;
}

std::string arrayFamily(unsigned NumArrays) {
  std::string Src;
  for (unsigned I = 0; I < NumArrays; ++I)
    Src += "var a" + std::to_string(I) + " : array lock;\n";
  Src += "fun with(l : ptr lock) : int {\n"
         "  spin_lock(l); work(); spin_unlock(l) }\n";
  for (unsigned I = 0; I < NumArrays; ++I)
    Src += "fun e" + std::to_string(I) + "(i : int) : int { with(a" +
           std::to_string(I) + "[i]) }\n";
  return Src;
}

struct Row {
  uint32_t Mono = 0;      ///< monomorphic, no confine inference
  uint32_t Poly = 0;      ///< inlined (per-call-site locations), no confine
  uint32_t Confine = 0;   ///< monomorphic + confine inference
};

Row analyze(const std::string &Src) {
  Row Out;
  auto Run = [&Src](PipelineMode Mode, unsigned InlineDepth) -> uint32_t {
    PipelineOptions Opts;
    Opts.Mode = Mode;
    Opts.InlineDepth = InlineDepth;
    AnalysisSession S(Opts);
    if (!S.run(Src))
      return ~0u;
    return analyzeLocks(S.context(), S.result(), {}).numErrors();
  };
  Out.Mono = Run(PipelineMode::CheckAnnotations, 0);
  Out.Poly = Run(PipelineMode::CheckAnnotations, 1);
  Out.Confine = Run(PipelineMode::Infer, 0);
  return Out;
}

} // namespace

int main() {
  std::printf("== Ablation: location polymorphism (bounded inlining) vs. "
              "confine inference ==\n\n");
  std::printf("%-34s %12s %12s %12s\n", "family", "monomorphic",
              "polymorphic", "confine-inf");
  std::printf("%-34s %12s %12s %12s\n", "---------------------------",
              "-----------", "-----------", "-----------");

  bool ShapeHolds = true;
  for (unsigned N : {2u, 4u, 8u}) {
    Row R = analyze(singletonFamily(N));
    std::printf("%-34s %12u %12u %12u\n",
                ("singletons, " + std::to_string(N) + " helpers").c_str(),
                R.Mono, R.Poly, R.Confine);
    ShapeHolds &= R.Mono > 0 && R.Poly == 0 && R.Confine == 0;
  }
  for (unsigned N : {2u, 4u, 8u}) {
    Row R = analyze(arrayFamily(N));
    std::printf("%-34s %12u %12u %12u\n",
                ("lock arrays, " + std::to_string(N) + " helpers").c_str(),
                R.Mono, R.Poly, R.Confine);
    // Context sensitivity cannot make an array element linear; confine
    // can.
    ShapeHolds &= R.Mono > 0 && R.Poly > 0 && R.Confine == 0;
  }

  std::printf("\npaper's shape (polymorphism helps singleton sharing, only "
              "restrict/confine help collections): %s\n",
              ShapeHolds ? "holds" : "VIOLATED");
  return ShapeHolds ? 0 : 1;
}

//===- bench_solver.cpp - Solver hot-path timings -------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Times the constraint solver (SCC pre-collapse, small-set effect sets,
// indexed CHECK-SAT) on two workloads:
//
//  * a synthetic cyclic constraint graph, sized like the corpus's worst
//    modules but denser, measuring least-solution propagation and a
//    CHECK-SAT query storm separately; a sample of the storm's answers
//    is asserted against explainReach, the uncollapsed traversal of the
//    raw constraint graph, and against least-solution membership;
//  * the full 589-module corpus, summing the wall time of the
//    solver-dominated phases (effect-constraints, check-sat, inference).
//
// The run fails (exit 1) if the sampled answers disagree or any corpus
// module fails. Results go to BENCH_solver.json in the working
// directory. Plain main() rather than google-benchmark: the output is a
// pair of phase timings, not an iteration-time distribution.
//
//===----------------------------------------------------------------------===//

#include "corpus/Experiment.h"
#include "effects/ConstraintSystem.h"
#include "support/Timer.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace lna;

namespace {

// Deterministic 64-bit LCG: the workload must be identical run to run.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 11;
  }
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }
};

constexpr uint32_t NumVars = 3000;
constexpr uint32_t NumLocs = 600;
constexpr uint32_t NumQueries = 30000;
/// Every ReferenceStride-th storm query is re-asked of explainReach.
constexpr uint32_t ReferenceStride = 100;
constexpr int Repetitions = 5;

// A clustered graph with real cycles: vars are grouped into clusters of
// ~12; each cluster gets a spanning cycle plus random chords, and
// clusters are bridged forward so solutions flow far. Seeds follow the
// corpus shape (most sets start with 1..3 elements).
void buildWorkload(LocTable &Locs, ConstraintSystem &CS) {
  Lcg R(0x5EED5EED5EEDULL);
  std::vector<LocId> Ls;
  Ls.reserve(NumLocs);
  for (uint32_t I = 0; I < NumLocs; ++I)
    Ls.push_back(Locs.fresh());
  std::vector<EffVar> Vs;
  Vs.reserve(NumVars);
  for (uint32_t I = 0; I < NumVars; ++I)
    Vs.push_back(CS.makeVar());

  constexpr uint32_t Cluster = 12;
  for (uint32_t Base = 0; Base + Cluster <= NumVars; Base += Cluster) {
    // Spanning cycle.
    for (uint32_t I = 0; I < Cluster; ++I)
      CS.addEdge(Vs[Base + I], Vs[Base + (I + 1) % Cluster]);
    // Chords.
    for (uint32_t I = 0; I < 4; ++I)
      CS.addEdge(Vs[Base + R.below(Cluster)], Vs[Base + R.below(Cluster)]);
    // Forward bridges to later clusters.
    if (Base + 2 * Cluster <= NumVars)
      CS.addEdge(Vs[Base + R.below(Cluster)],
                 Vs[Base + Cluster + R.below(Cluster)]);
    if (Base + 5 * Cluster <= NumVars)
      CS.addEdge(Vs[Base + R.below(Cluster)],
                 Vs[Base + 4 * Cluster + R.below(Cluster)]);
  }
  // Seeds: 1..3 elements on about 60% of the vars.
  for (uint32_t I = 0; I < NumVars; ++I) {
    if (R.below(10) >= 6)
      continue;
    uint32_t N = 1 + R.below(3);
    for (uint32_t K = 0; K < N; ++K)
      CS.addElement(static_cast<EffectKind>(R.below(3)), Ls[R.below(NumLocs)],
                    Vs[I]);
  }
  // A few intersections fed by cycle members.
  for (uint32_t I = 0; I < 50; ++I)
    CS.addIntersection(
        InterOperand::var(Vs[R.below(NumVars)]),
        InterOperand::elem(EffectElem(static_cast<EffectKind>(R.below(3)),
                                      Ls[R.below(NumLocs)])),
        Vs[R.below(NumVars)]);
}

struct SyntheticRun {
  double SolveSeconds = 0.0;
  double QuerySeconds = 0.0;
  uint32_t ReferenceChecked = 0;
  uint32_t ReferenceReachable = 0;
  bool Agrees = true;
};

struct Query {
  EffectKind K;
  LocId L;
  EffVar V;
};

SyntheticRun runSynthetic() {
  Lcg R(0xC0FFEEULL);
  std::vector<Query> Queries(NumQueries);
  for (Query &Q : Queries) {
    Q.K = static_cast<EffectKind>(R.below(3));
    Q.L = R.below(NumLocs);
    Q.V = R.below(NumVars);
  }

  SyntheticRun Best;
  for (int Rep = 0; Rep < Repetitions; ++Rep) {
    LocTable Locs;
    ConstraintSystem CS(Locs);
    buildWorkload(Locs, CS);

    Timer Solve;
    CS.solve();
    double SolveSeconds = Solve.seconds();

    // The CHECK-SAT query storm.
    std::vector<uint8_t> Answers(NumQueries);
    Timer Storm;
    for (uint32_t I = 0; I < NumQueries; ++I)
      Answers[I] = CS.reaches(Queries[I].K, Queries[I].L, Queries[I].V);
    double QuerySeconds = Storm.seconds();

    if (Rep == 0 || SolveSeconds + QuerySeconds <
                        Best.SolveSeconds + Best.QuerySeconds) {
      Best.SolveSeconds = SolveSeconds;
      Best.QuerySeconds = QuerySeconds;
    }
    if (Rep != 0)
      continue;
    for (uint32_t I = 0; I < NumQueries; I += ReferenceStride) {
      const Query &Q = Queries[I];
      bool Reference = !CS.explainReach(Q.K, Q.L, Q.V).empty();
      ++Best.ReferenceChecked;
      Best.ReferenceReachable += Reference;
      if (Reference != (Answers[I] != 0) ||
          Reference != CS.member(Q.K, Q.L, Q.V))
        Best.Agrees = false;
    }
  }
  return Best;
}

// The summed wall time of the solver-dominated phases, best of
// Repetitions serial corpus runs.
struct CorpusRun {
  double SolverPhaseSeconds = 0.0;
  uint32_t FailedModules = 0;
  uint32_t TotalModules = 0;
};

CorpusRun runCorpus(const std::vector<ModuleSpec> &Corpus) {
  ExperimentOptions Opts;
  Opts.Jobs = 1; // serial, so phase seconds are wall time

  CorpusRun R;
  for (int Rep = 0; Rep < Repetitions; ++Rep) {
    CorpusSummary S = runCorpusExperiment(Corpus, Opts);
    double SolverPhaseSeconds = 0.0;
    for (const auto &Phase : S.PhaseTimes) {
      if (Phase.first != "effect-constraints" && Phase.first != "check-sat" &&
          Phase.first != "inference")
        continue;
      for (double Sec : Phase.second)
        SolverPhaseSeconds += Sec;
    }
    if (Rep == 0 || SolverPhaseSeconds < R.SolverPhaseSeconds)
      R.SolverPhaseSeconds = SolverPhaseSeconds;
    R.FailedModules = S.FailedModules;
    R.TotalModules = S.TotalModules;
  }
  return R;
}

} // namespace

int main() {
  SyntheticRun Synth = runSynthetic();
  if (!Synth.Agrees) {
    std::fprintf(stderr, "bench_solver: CHECK-SAT, the least solution and "
                         "explainReach disagree on the synthetic workload\n");
    return 1;
  }

  CorpusRun Corpus = runCorpus(generateCorpus());
  if (Corpus.FailedModules != 0) {
    std::fprintf(stderr, "bench_solver: %u corpus module failures\n",
                 Corpus.FailedModules);
    return 1;
  }

  std::printf("synthetic    solve %8.4f s   checksat %8.4f s   "
              "(%u/%u sampled answers reachable, all match explainReach)\n",
              Synth.SolveSeconds, Synth.QuerySeconds, Synth.ReferenceReachable,
              Synth.ReferenceChecked);
  std::printf("corpus       solver phases %8.4f s over %u modules\n",
              Corpus.SolverPhaseSeconds, Corpus.TotalModules);

  std::FILE *Out = std::fopen("BENCH_solver.json", "w");
  if (!Out) {
    std::fprintf(stderr, "bench_solver: cannot write output file\n");
    return 1;
  }
  std::fprintf(Out,
               "{\"synthetic\":{\"vars\":%u,\"locs\":%u,\"queries\":%u,"
               "\"solve_seconds\":%.6f,\"checksat_seconds\":%.6f,"
               "\"reference_checked\":%u,\"reference_reachable\":%u},"
               "\"corpus\":{\"modules\":%u,"
               "\"solver_phase_seconds\":%.6f}}\n",
               NumVars, NumLocs, NumQueries, Synth.SolveSeconds,
               Synth.QuerySeconds, Synth.ReferenceChecked,
               Synth.ReferenceReachable, Corpus.TotalModules,
               Corpus.SolverPhaseSeconds);
  std::fclose(Out);
  std::printf("-> BENCH_solver.json\n");
  return 0;
}

//===- Fuzzer.cpp - Differential fuzzing harness --------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "core/Session.h"
#include "fuzz/Reducer.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <filesystem>
#include <fstream>
#include <set>

using namespace lna;

uint64_t lna::fuzzRunSeed(uint64_t Base, uint32_t Index) {
  // One splitmix64 step decorrelates consecutive indices, so --seed=1
  // and --seed=2 do not share all but one of their programs.
  Rng R(Base ^ (0x9e3779b97f4a7c15ULL * (Index + 1)));
  return R.next();
}

namespace {

std::string oneLine(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S)
    Out += C == '\n' ? ' ' : C;
  while (!Out.empty() && Out.back() == ' ')
    Out.pop_back();
  return Out;
}

} // namespace

std::string lna::renderRegressionFile(const FuzzFailure &F) {
  std::string Out = "// lna-fuzz oracle=" + std::string(oracleName(F.Oracle)) +
                    " seed=" + std::to_string(F.Seed) + "\n";
  Out += "// " + oneLine(F.Message) + "\n";
  Out += F.Reduced;
  if (Out.empty() || Out.back() != '\n')
    Out += '\n';
  return Out;
}

OracleOutcome lna::replayRegressionSource(std::string_view Contents,
                                          std::string *OracleNameOut) {
  constexpr std::string_view Tag = "// lna-fuzz oracle=";
  size_t At = Contents.find(Tag);
  if (At == std::string_view::npos) {
    OracleOutcome Out;
    Out.Message = "no '// lna-fuzz oracle=...' header";
    return Out;
  }
  size_t NameBegin = At + Tag.size();
  size_t NameEnd = Contents.find_first_of(" \n", NameBegin);
  std::string_view Name = Contents.substr(
      NameBegin, NameEnd == std::string_view::npos ? NameEnd
                                                   : NameEnd - NameBegin);
  if (OracleNameOut)
    *OracleNameOut = std::string(Name);
  std::optional<OracleKind> K = oracleFromName(Name);
  if (!K) {
    OracleOutcome Out;
    Out.Message = "unknown oracle '" + std::string(Name) + "' in header";
    return Out;
  }
  // The header lines are comments; the lexer skips them, so the whole
  // file replays as-is.
  return runOracle(*K, Contents);
}

namespace {

/// Fault-injection mode: every generated program analyzes under a
/// per-program-seeded injector, and the only failure is an exception
/// escaping the session -- a containment bug. Contained faults are
/// counted by category. Kept separate from the oracle loop: an
/// injected abort mid-analysis would surface as a spurious oracle
/// divergence, not a robustness finding.
FuzzReport runFaultInjection(const FuzzOptions &Opts) {
  FuzzReport Report;
  Timer Wall;
  auto Fz = [&Report]() -> PhaseStats & { return Report.Stats.phase("fuzz"); };

  for (uint32_t I = 0; I < Opts.Runs; ++I) {
    if (Opts.MaxSeconds > 0 && Wall.seconds() >= Opts.MaxSeconds)
      break;
    if (Report.Failures.size() >= Opts.MaxFailures)
      break;

    uint64_t Seed = fuzzRunSeed(Opts.Seed, I);
    std::string Source = generateFuzzProgram(Seed, Opts.Gen);
    Fz().add("programs", 1);

    FaultSpec Spec = *Opts.Faults;
    Spec.Seed = Seed ^ (Spec.Seed * 0x9e3779b97f4a7c15ULL);
    FaultInjector Injector(Spec);
    try {
      FaultHookScope Scope(Injector);
      AnalysisSession S{PipelineOptions{}};
      if (!S.run(Source) && S.failure())
        Fz().add(std::string("contained.") +
                     failureKindName(S.failure()->Kind),
                 1);
      else
        Fz().add("analyzed", 1);
    } catch (const std::exception &E) {
      FuzzFailure F;
      F.Seed = Seed;
      F.Message =
          std::string("exception escaped the analysis session under "
                      "fault injection: ") +
          E.what();
      F.Source = Source;
      F.Reduced = Source;
      Report.Failures.push_back(std::move(F));
    }
    Report.RunsCompleted = I + 1;
  }

  Fz().Seconds = Wall.seconds();
  return Report;
}

} // namespace

FuzzReport lna::runFuzz(const FuzzOptions &Opts) {
  if (Opts.Faults && Opts.Faults->any())
    return runFaultInjection(Opts);

  FuzzReport Report;
  Timer Wall;

  std::vector<OracleKind> Kinds = Opts.Oracles;
  if (Kinds.empty())
    for (unsigned I = 0; I < NumOracleKinds; ++I)
      Kinds.push_back(static_cast<OracleKind>(I));

  // Note: SessionStats::phase() references are invalidated by creating
  // another phase, so look the phase up at each use instead of caching.
  auto Fz = [&Report]() -> PhaseStats & { return Report.Stats.phase("fuzz"); };
  /// Distinct failures only: key by oracle + reduced text so one
  /// systematic bug yields one reproducer, not thousands.
  std::set<std::string> Seen;

  for (uint32_t I = 0; I < Opts.Runs; ++I) {
    if (Opts.MaxSeconds > 0 && Wall.seconds() >= Opts.MaxSeconds)
      break;
    if (Report.Failures.size() >= Opts.MaxFailures)
      break;

    uint64_t Seed = fuzzRunSeed(Opts.Seed, I);
    std::string Source = generateFuzzProgram(Seed, Opts.Gen);
    Fz().add("programs", 1);

    for (OracleKind K : Kinds) {
      std::string Name = oracleName(K);
      OracleOutcome O = runOracle(K, Source, Opts.Backend);
      for (const std::string &C : O.Counters)
        Fz().add(Name + "." + C, 1);
      if (!O.Applicable) {
        Fz().add(Name + ".vacuous", 1);
        continue;
      }
      Fz().add(Name + ".checked", 1);
      if (!O.Failed)
        continue;
      Fz().add(Name + ".failed", 1);

      FuzzFailure F;
      F.Oracle = K;
      F.Seed = Seed;
      F.Message = O.Message;
      F.Source = Source;
      F.Reduced = Source;
      if (Opts.ReduceFailures) {
        auto StillFails = [K, &Opts](std::string_view Text) {
          OracleOutcome O2 = runOracle(K, Text, Opts.Backend);
          return O2.Applicable && O2.Failed;
        };
        ReduceResult RR = reduceProgram(Source, StillFails);
        PhaseStats &RD = Report.Stats.phase("reduce");
        RD.add("steps", RR.StepsTaken);
        RD.add("candidates", RR.CandidatesTried);
        F.Reduced = RR.Source;
        // Re-derive the message from the reduced program: the reducer
        // only guarantees *a* divergence survives, and the reproducer
        // header should describe the program it actually contains.
        OracleOutcome OR = runOracle(K, F.Reduced, Opts.Backend);
        if (OR.Failed)
          F.Message = OR.Message;
      }

      if (!Seen.insert(Name + "\n" + F.Reduced).second)
        continue;

      if (!Opts.RegressionDir.empty()) {
        std::error_code EC;
        std::filesystem::create_directories(Opts.RegressionDir, EC);
        std::string Path = Opts.RegressionDir + "/" + Name + "-seed" +
                           std::to_string(Seed) + ".lna";
        std::ofstream Out(Path);
        if (Out) {
          Out << renderRegressionFile(F);
          F.File = Path;
        }
      }
      Report.Failures.push_back(std::move(F));
      if (Report.Failures.size() >= Opts.MaxFailures)
        break;
    }
    Report.RunsCompleted = I + 1;
  }

  Fz().Seconds = Wall.seconds();
  return Report;
}

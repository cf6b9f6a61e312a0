//===- Oracles.h - Differential-testing oracles ---------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The six differential oracles of the fuzzing harness. Each one takes a
/// whole program in surface syntax and cross-checks two independent
/// in-tree implementations of the same paper-level property:
///
///  * Soundness (Theorem 1): a program the Section 4 annotation checker
///    accepts never evaluates to err under the Section 3.2 operational
///    semantics. Checker (src/core) vs. interpreter (src/semantics).
///
///  * Solver agreement: on the final constraint graph of a checking and
///    an inference session, membership in the propagated least solution
///    equals CHECK-SAT's per-query reachability answer (Figure 5), and
///    on a strided subset of the queries also explainReach's uncollapsed
///    traversal of the raw graph. Inference graphs include everything
///    fired conditionals added, so after solving the unconditional
///    reachability question and the least solution coincide. The sample
///    includes every (rho, body effect) and (rho', escape variable) pair
///    the checker asks about; on a checking graph the checker's escape
///    verdict for each scope (answered by one multi-target search per
///    effect kind) must name the first escape variable the uncollapsed
///    traversal reaches.
///
///  * Inference maximality (Section 5's optimality): materializing the
///    inferred restrict set re-checks cleanly, and adding any single
///    rejected pointer `let` back as `restrict` fails the checker.
///
///  * Print/parse round trip: AstPrinter output re-parses to a program
///    structurally identical to the original AST.
///
///  * Cache identity: analyzing a program cold (empty result cache) and
///    warm (every entry restored from the cold run's store) produces
///    byte-identical reports, metrics, and diagnostics -- the serialized
///    module entry loses nothing the deterministic surfaces observe.
///
///  * Precision differential: the Andersen may-alias backend is a subset
///    refinement of Steensgaard. Inference under `--alias=andersen`
///    restricts/confines a superset of the Steensgaard results, a
///    checking run that is clean under Steensgaard stays clean, and
///    Andersen never reports an untrackable location or may-alias pair
///    Steensgaard rules out.
///
/// An oracle distinguishes "the premise did not hold" (e.g. the checker
/// rejected the program, so soundness says nothing) from an actual
/// divergence: only the latter is a Failed outcome. Vacuous outcomes are
/// still counted by the harness so generator bias regressions are
/// visible in the stats.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_FUZZ_ORACLES_H
#define LNA_FUZZ_ORACLES_H

#include "alias/AliasAnalysis.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lna {

/// The differential oracles, in the order they run.
enum class OracleKind : uint8_t {
  Soundness,
  SolverAgreement,
  InferenceMaximality,
  PrintParseRoundTrip,
  CacheIdentity,
  PrecisionDifferential,
};

constexpr unsigned NumOracleKinds = 6;

/// Stable command-line / report name of an oracle ("soundness", ...).
const char *oracleName(OracleKind K);
/// Inverse of oracleName; nullopt for unknown names.
std::optional<OracleKind> oracleFromName(std::string_view Name);

/// What one oracle said about one program.
struct OracleOutcome {
  /// The oracle's premise held and both sides were actually compared
  /// (false: the program did not parse / type-check / get accepted, so
  /// the property is vacuous for it).
  bool Applicable = false;
  /// The two implementations disagreed. Only meaningful with Applicable.
  bool Failed = false;
  /// Human-readable description of the divergence (Failed only).
  std::string Message;
  /// Extra per-program counters the harness records as
  /// "<oracle>.<counter>" (e.g. which pipeline modes were compared).
  std::vector<std::string> Counters;
};

/// Runs one oracle over \p Source with the given may-alias backend (the
/// precision-differential oracle compares both and ignores \p Backend).
/// Never throws; all analysis failures are reported as inapplicable
/// outcomes.
OracleOutcome
runOracle(OracleKind K, std::string_view Source,
          AliasBackendKind Backend = AliasBackendKind::Steensgaard);

} // namespace lna

#endif // LNA_FUZZ_ORACLES_H

//===- Pipeline.h - End-to-end analysis pipeline --------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vocabulary of the analysis pipeline: parse -> confine? placement
/// -> standard typing / may-alias analysis -> effect constraint
/// generation -> restrict/confine checking or inference. The options
/// select what runs; the result holds what it produced. The
/// flow-sensitive lock-state analysis (src/qual) consumes a
/// PipelineResult. The pipeline itself is driven by AnalysisSession
/// (core/Session.h), the one entry point into the analysis.
///
/// Typical use:
///
/// \code
///   lna::PipelineOptions Opts;       // inference mode by default
///   lna::AnalysisSession S(Opts);
///   if (S.run(Source)) { ... S.result().Inference.RestrictableBinds ... }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef LNA_CORE_PIPELINE_H
#define LNA_CORE_PIPELINE_H

#include "alias/AliasAnalysis.h"
#include "core/ConfinePlacement.h"
#include "core/EffectInference.h"
#include "core/Inference.h"
#include "core/Inliner.h"
#include "core/RestrictChecker.h"
#include "support/Budget.h"

#include <memory>
#include <optional>
#include <string>

namespace lna {

/// What the pipeline should do after typing.
enum class PipelineMode : uint8_t {
  /// Verify programmer-written restrict/confine annotations only (plain
  /// lets unify immediately; no candidates are inserted). Section 4.
  CheckAnnotations,
  /// Restrict inference + confine inference (Sections 5-7).
  Infer,
};

/// Options controlling the pipeline.
struct PipelineOptions {
  PipelineMode Mode = PipelineMode::Infer;
  /// Insert confine? candidates around lock-primitive arguments (only
  /// meaningful in Infer mode).
  bool PlaceConfines = true;
  /// Apply (Down) at function boundaries (ablation hook, Section 3.1).
  bool ApplyDown = true;
  /// Use the backwards-search solver strategy (Section 6.2).
  bool UseBackwardsSearch = false;
  /// Inline non-recursive calls up to this depth before analysis, giving
  /// the monomorphic analyses per-call-site location polymorphism (the
  /// Section 7 "location polymorphism" remark; bench_ablation_poly).
  unsigned InlineDepth = 0;
  /// Check explicit restrict/confine annotations under the liberal
  /// (C-like) restrict-effect semantics of Section 5, footnote 2, which
  /// is the semantics restrict *inference* decides against. Required for
  /// round-tripping inferred annotations through CheckAnnotations mode.
  bool LiberalRestrictEffect = false;
  /// Stamp every effect constraint with the source location and role of
  /// the construct that generated it (obs/Provenance.h), enabling
  /// ConstraintSystem::explainReach and the CLI's --explain. Off by
  /// default: stamping costs memory proportional to the constraint
  /// count.
  bool TrackProvenance = false;
  /// The may-alias backend the restrict/confine analyses query
  /// (alias/AliasAnalysis.h). Part of the analysis identity: it changes
  /// answers, so it is in the canonical options fingerprint.
  AliasBackendKind AliasBackend = AliasBackendKind::Steensgaard;
  /// Resource caps the analysis runs under (support/Budget.h). All-zero
  /// (the default) means ungoverned.
  ResourceLimits Limits;
};

/// A canonical, stable "k=v;" rendering of every option that can change
/// an analysis outcome. This string -- not the raw struct bytes -- is the
/// options component of cache keys and checkpoint digests, so reordering
/// or extending PipelineOptions fields cannot silently alias two distinct
/// configurations (new fields must be added here; CacheTest pins the
/// format).
std::string canonicalOptionsFingerprint(const PipelineOptions &Opts);

/// Analysis state that must outlive the result (location/type tables,
/// the constraint graph, and the may-alias backend over them).
struct AnalysisState {
  LocTable Locs;
  TypeTable Types;
  ConstraintSystem CS;
  /// The backend every consumer queries. Defaults to Steensgaard; the
  /// session swaps in the selected backend (and enables the event log)
  /// before any locations exist.
  std::unique_ptr<AliasAnalysis> AA;
  AnalysisState() : Types(Locs), CS(Locs) {
    AA = std::make_unique<SteensgaardBackend>(Locs);
  }

  /// Selects \p K as the backend. Must run before the tables are
  /// populated: the Andersen backend replays the event log from the
  /// start.
  void selectAliasBackend(AliasBackendKind K) {
    if (K != AliasBackendKind::Steensgaard)
      Locs.enableEventLog();
    AA = makeAliasAnalysis(K, Locs);
  }
};

/// Everything the pipeline produced.
struct PipelineResult {
  std::unique_ptr<AnalysisState> State;
  /// The program analyses actually ran on (the confine?-rewritten program
  /// in Infer mode; the input program otherwise).
  Program Analyzed;
  std::set<ExprId> OptionalConfines;
  AliasResult Alias;
  EffectInfResult Eff;
  /// Infer mode only.
  InferenceResult Inference;
  /// CheckAnnotations mode only.
  RestrictCheckResult Checks;
};

} // namespace lna

#endif // LNA_CORE_PIPELINE_H

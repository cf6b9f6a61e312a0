//===- Pipeline.cpp - End-to-end analysis pipeline ------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

using namespace lna;

std::string lna::canonicalOptionsFingerprint(const PipelineOptions &Opts) {
  std::string F;
  auto Flag = [&F](const char *K, bool V) {
    F += K;
    F += V ? "=1;" : "=0;";
  };
  auto Num = [&F](const char *K, uint64_t V) {
    F += K;
    F += '=';
    F += std::to_string(V);
    F += ';';
  };
  F += "mode=";
  F += Opts.Mode == PipelineMode::CheckAnnotations ? "check;" : "infer;";
  Flag("confines", Opts.PlaceConfines);
  Flag("down", Opts.ApplyDown);
  Flag("backwards", Opts.UseBackwardsSearch);
  Num("inline", Opts.InlineDepth);
  Flag("liberal", Opts.LiberalRestrictEffect);
  Flag("provenance", Opts.TrackProvenance);
  Num("timeout-ms", Opts.Limits.TimeoutMillis);
  Num("max-memory", Opts.Limits.MaxMemoryBytes);
  Num("max-steps", Opts.Limits.MaxSteps);
  Num("max-ast-nodes", Opts.Limits.MaxAstNodes);
  F += "alias=";
  F += aliasBackendName(Opts.AliasBackend);
  F += ';';
  return F;
}

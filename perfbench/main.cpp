//===- main.cpp - End-to-end benchmark of the lna front doors ---*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage (normally through perfbench/run.py, which builds this first):
///
///   perfbench --workload corpus-s7|solver-big|serve-mixed --seed N
///             --seconds S --trace 0|1
///             [--serve-binary PATH] [--work-dir DIR]
///             [--perturb-expected] [--fake-peer]
///
/// Prints a table of the workload's readings (name, value, unit, sample
/// count) and, as the last line, one JSON object:
///
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
///
/// An untraced run (--trace 0) reports the end-to-end metrics; a traced
/// run reports every per-layer metric, 0 for a layer the workload does
/// not exercise. Exit status: 0 when every output matched its reference,
/// 1 on any mismatch, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

struct MetricName {
  const char *Name;
  const char *Unit;
};

/// The metrics BENCHMARK.json declares, in its order.
const MetricName EndToEnd[] = {
    {"setup_s", "s"},
    {"norm_latency_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

const MetricName PerLayer[] = {
    {"lang.parse_s", "s"},
    {"lang.ast_nodes", "count"},
    {"alias.typing_s", "s"},
    {"alias.unifications", "count"},
    {"alias.locations", "count"},
    {"core.place_s", "s"},
    {"core.confines_placed", "count"},
    {"core.effgen_s", "s"},
    {"effects.vars", "count"},
    {"effects.constraints", "count"},
    {"effects.checksat_s", "s"},
    {"effects.checksat_visits", "count"},
    {"core.infer_s", "s"},
    {"effects.cond_firings", "count"},
    {"effects.propagated_elems", "count"},
    {"effects.solver_rounds", "count"},
    {"qual.locks_s", "s"},
    {"qual.lock_sites", "count"},
    {"qual.lock_errors", "count"},
    {"corpus.aggregate_s", "s"},
    {"corpus.par_speedup", "x"},
    {"support.pool_busy_frac", "frac"},
    {"core.session_overhead_s", "s"},
    {"serve.json_decode_us", "us"},
    {"serve.key_us", "us"},
    {"serve.hot_get_us", "us"},
    {"serve.encode_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.invoke_us", "us"},
    {"cache.lookup_us", "us"},
    {"cache.store_us", "us"},
    {"cache.cold_hit_ratio", "frac"},
    {"serve.hot_hit_ratio", "frac"},
    {"serve.hot_rtt_us", "us"},
    {"serve.cold_rtt_us", "us"},
    {"serve.miss_rtt_us", "us"},
    {"serve.late_ms", "ms"},
    {"obs.trace_overhead_frac", "frac"},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload corpus-s7|solver-big|serve-mixed "
               "--seed N --seconds S --trace 0|1\n"
               "                 [--serve-binary PATH] [--work-dir DIR]\n"
               "                 [--perturb-expected] [--fake-peer]\n",
               Why);
  return 2;
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  C.Threads = std::max(1u, std::thread::hardware_concurrency());
  bool SawSeed = false, SawSeconds = false, SawTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--perturb-expected") {
      C.PerturbExpected = true;
    } else if (A == "--fake-peer") {
      C.FakePeer = true;
    } else if (!(V = Value())) {
      return usage(("missing value for " + A).c_str());
    } else if (A == "--workload") {
      C.Workload = V;
    } else if (A == "--seed") {
      C.Seed = std::strtoull(V, nullptr, 10);
      SawSeed = true;
    } else if (A == "--seconds") {
      C.Seconds = std::atof(V);
      SawSeconds = C.Seconds > 0;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage("--trace takes 0 or 1");
      C.Trace = V[0] == '1';
      SawTrace = true;
    } else if (A == "--serve-binary") {
      C.ServeBinary = V;
    } else if (A == "--work-dir") {
      C.WorkDir = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!SawSeed || !SawSeconds || !SawTrace)
    return usage("--seed, --seconds (> 0) and --trace are required");

  Report Rep;
  if (C.Workload == "corpus-s7" || C.Workload == "solver-big")
    Rep = runBatchWorkload(C);
  else if (C.Workload == "serve-mixed") {
    if (C.ServeBinary.empty() || C.WorkDir.empty())
      return usage("serve-mixed needs --serve-binary and --work-dir");
    Rep = runServeWorkload(C);
  } else
    return usage("unknown workload");

  std::printf("workload %s seed %llu trace %d threads %u\n",
              C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
              C.Trace ? 1 : 0, C.Threads);
  for (const std::string &N : Rep.Notes)
    std::printf("  note: %s\n", N.c_str());
  std::printf("  %-26s %14s  %-6s %8s\n", "reading", "value", "unit",
              "samples");
  auto Row = [](const Metric &M) {
    std::printf("  %-26s %14.10g  %-6s %8llu\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), static_cast<unsigned long long>(M.Samples));
  };
  for (const Metric &M : Rep.Readings)
    Row(M);
  double FailedFrac =
      Rep.Attempted ? double(Rep.Failed) / double(Rep.Attempted) : 1.0;
  Row({"failed_frac", "frac", FailedFrac, Rep.Attempted});

  // The reported metric set is exactly what BENCHMARK.json declares.
  std::map<std::string, Metric> Got;
  for (const Metric &M : Rep.Metrics)
    Got[M.Name] = M;
  std::string Json = "{\"correct\": ";
  Json += Rep.Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Rep.Attempted);
  Json += ", \"failed\": " + std::to_string(Rep.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  auto Emit = [&](const MetricName &Def) {
    auto It = Got.find(Def.Name);
    Metric M = It != Got.end() ? It->second : Metric{Def.Name, Def.Unit, 0, 0};
    Row(M);
    if (!std::isfinite(M.Value)) {
      // JSON has no NaN or infinity; a measurement that produced one is
      // broken, so the run fails rather than report it.
      M.Value = 0;
      Rep.Correct = false;
    }
    Json += First ? "" : ", ";
    First = false;
    Json += std::string("\"") + Def.Name + "\": {\"value\": " +
            jsonNumber(M.Value) + ", \"unit\": \"" + Def.Unit + "\"}";
  };
  if (C.Trace) {
    std::printf("  per-layer (0 = layer not exercised by this workload):\n");
    for (const MetricName &Def : PerLayer)
      Emit(Def);
  } else {
    std::printf("  end-to-end:\n");
    for (const MetricName &Def : EndToEnd)
      Emit(Def);
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Rep.Correct && Rep.Attempted > 0 ? 0 : 1;
}

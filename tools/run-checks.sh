#!/bin/sh
# run-checks.sh - sanitizer gauntlet:
#
#  0. Build with -DCMAKE_BUILD_TYPE=Release (-O3, NDEBUG): optimizer-only
#     warnings under -Werror (GCC's -Wrestrict false positives on string
#     operator+ chains) surface here, not only at the default
#     RelWithDebInfo level.
#  1. Build the ThreadSanitizer preset and run the tests that exercise
#     the parallel corpus runner under it, and the `serve`-labeled
#     suite (the daemon's poll thread and pool workers share the hot
#     store, the counters and every connection's outbound queue), then
#     (optionally) the full suite.
#  2. Build the asan-ubsan preset and run a 30-second lna-fuzz smoke on
#     it: the differential oracles cross-check the analyses while the
#     sanitizers watch the interpreter/solver memory behavior, plus the
#     committed regression corpus replay (FuzzTest + cli_fuzz_smoke).
#  3. Robustness stage: the `robustness`-labeled suite (budgets, typed
#     aborts, fault injection, checkpoint resume, and ParseOnceTest's
#     budget-parity and two-session equivalence tests) under asan-ubsan
#     -- exception-heavy unwind paths are where leaks hide, and the
#     parsed program a module's checking run hands its inference run
#     outlives the checking result in the session's shared arena, where
#     a lifetime bug would show -- then a CLI checkpoint-resume smoke
#     under asan-ubsan (the resume parses length-framed journal rows
#     from disk): 24 of 48 modules journaled with --metrics-out, then
#     all 48 resumed, in-process and with --workers=2, each report
#     (minus the wall-clock line) and metrics file cmp'ed against a
#     fresh run -- plus a short fault-injected parallel corpus run under
#     tsan, checking that injected aborts racing across workers neither
#     corrupt the report nor trip the sanitizer.
#  4. Observability stage: a trace/metrics export smoke under asan-ubsan
#     (the emitters do raw buffer formatting) with JSON validation when
#     python3 is available, then the `obs`-labeled suite.
#  5. Cache stage: the `cache`-labeled suite under asan-ubsan (the store
#     does raw envelope parsing of untrusted bytes), a cold/warm corpus
#     run diffed for byte-identity, a corrupt-entry re-run, and a
#     cache-identity differential fuzz smoke.
#  6. Alias stage: the `alias`-labeled suite under asan-ubsan, a full
#     corpus run under the Andersen backend (the solver does raw bitset
#     and CSR-graph indexing), and a precision-differential fuzz smoke
#     cross-checking the two backends' refinement contract.
#  7. Solver stage: the `solver`-labeled suite under asan-ubsan (SCC
#     condensation, small-set spill boundaries, quantile edges,
#     least-solution/CHECK-SAT agreement with explainReach's uncollapsed
#     traversal on every fixture and the generated corpus, in checking
#     and inference mode under both alias backends, one condensation
#     rebuild per firing round with the cycle-merge and Pending-carry
#     cases, a MaxSteps sweep showing an abort mid-round leaves no
#     stale condensation, the flat constraint arrays' stable per-variable
#     grouping -- constraints added out of variable order, and after a
#     query, against an in-order reference -- the multi-target escape
#     query against one query per target, and the driving/passive
#     intersection sides in every arrival order, with the waiting
#     index's operand-test pin), then a solver-agreement
#     fuzz smoke that makes the same comparison on the final graphs of
#     random checking and inference runs, (rho', escape variable) pairs
#     included, and holds each checking run's escape verdict (EscapeVia)
#     to the first escape variable explainReach reaches, a soundness fuzz
#     smoke (a checking run with no scope to check stops after typing
#     and builds no graph, so the checker's accept verdict on random
#     programs with and without scopes is held against the interpreter),
#     and an inference-maximality fuzz smoke, since the firing schedule
#     is the solver's to choose.
#  8. Chaos stage: the `supervisor`-labeled suite under asan-ubsan
#     (fork/exec, pipe-protocol parsing of untrusted worker bytes,
#     signal handling), then a full-corpus chaos audit: every module
#     run under --workers=4 with seeded SIGKILL fault injection and the
#     whole observability surface on (--events-out journal, per-worker
#     traces merged into a fleet trace, --progress), which must exit 0
#     with a report byte-identical to the uninjected flags-off
#     single-process run (worker deaths absorbed by restart+re-queue,
#     zero quarantines at this kill rate, observability byte-invisible).
#     The event journal is validated line by line as JSON with monotonic
#     timestamps (and every worker death that names a module must name
#     the phase its black box recorded), the merged fleet trace as one
#     JSON document, and the run, given a private TMPDIR, must leave no
#     lna-flight-* black-box directory behind.
#  9. Serve stage: the `serve`-labeled suite under asan-ubsan (wire
#     protocol parsing of untrusted client bytes, the hot store, the
#     request-boundary obs scrub, concurrent clients), then a live
#     daemon smoke: start lna-serve over an empty cache dir, drive a
#     mixed workload whose every reply is diffed byte-for-byte against
#     one-shot lna-analyze (miss -> hot on repeat), SIGKILL the daemon,
#     restart it over the same cache dir, and require every re-sent
#     request to be answered from the cold tier (warm resume without
#     re-analysis) before a clean shutdown that must exit 0.
#
# Usage: tools/run-checks.sh [--full]
#   --full   also run the entire test suite under tsan (slow).
set -eu

cd "$(dirname "$0")/.."

FULL=0
for arg in "$@"; do
  case "$arg" in
  --full) FULL=1 ;;
  *)
    echo "usage: tools/run-checks.sh [--full]" >&2
    exit 2
    ;;
  esac
done

JOBS=$(nproc 2>/dev/null || echo 2)

echo "== configure + build (Release) =="
cmake -B build-Release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-Release -j "$JOBS"

echo "== configure + build (tsan preset) =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"

echo "== tsan: session driver + parallel corpus tests =="
ctest --test-dir build-tsan --output-on-failure \
  -R 'Session\.|Corpus\.Parallel|Corpus\.Experiment|cli_corpus'

echo "== tsan: serve suite (poll thread, pool workers, outbound queues) =="
ctest --test-dir build-tsan --output-on-failure -L serve

if [ "$FULL" -eq 1 ]; then
  echo "== tsan: full suite =="
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
fi

echo "== configure + build (asan-ubsan preset) =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$JOBS"

echo "== asan-ubsan: fuzz harness tests + regression replay =="
ctest --test-dir build-asan-ubsan --output-on-failure \
  -R 'Fuzz|RegressionCorpus|cli_fuzz_smoke'

echo "== asan-ubsan: 30-second differential fuzz smoke =="
./build-asan-ubsan/tools/lna-fuzz --seed=1 --runs=100000 --max-seconds=30

echo "== asan-ubsan: robustness suite (budgets, fault injection, parse once) =="
ctest --test-dir build-asan-ubsan --output-on-failure -L robustness

echo "== asan-ubsan: checkpoint resume keeps the report and the metrics =="
RESUME_DIR=build-asan-ubsan/resume_smoke
rm -rf "$RESUME_DIR"
mkdir -p "$RESUME_DIR"
./build-asan-ubsan/tools/lna-corpus --limit=48 \
  --metrics-out="$RESUME_DIR/fresh.json" \
  2> /dev/null | grep -v wall-clock > "$RESUME_DIR/fresh.txt"
for SHAPE in --jobs=1 --workers=2; do
  rm -f "$RESUME_DIR/journal"
  ./build-asan-ubsan/tools/lna-corpus --limit=24 $SHAPE \
    --checkpoint="$RESUME_DIR/journal" \
    --metrics-out="$RESUME_DIR/partial.json" > /dev/null 2>&1
  ./build-asan-ubsan/tools/lna-corpus --limit=48 $SHAPE \
    --checkpoint="$RESUME_DIR/journal" \
    --metrics-out="$RESUME_DIR/resumed.json" \
    2> /dev/null | grep -v wall-clock > "$RESUME_DIR/resumed.txt"
  cmp "$RESUME_DIR/fresh.txt" "$RESUME_DIR/resumed.txt"
  cmp "$RESUME_DIR/fresh.json" "$RESUME_DIR/resumed.json"
done

echo "== tsan: fault-injected parallel corpus run =="
./build-tsan/tools/lna-corpus --jobs=4 --limit=120 \
  --inject-faults=seed=7,bad-alloc=100,internal=50000,delay=2000,delay-ms=2 \
  > /dev/null

echo "== asan-ubsan: trace/metrics export smoke =="
./build-asan-ubsan/tools/lna-analyze --no-locks \
  --trace-out=build-asan-ubsan/obs_smoke_trace.json \
  --metrics-out=build-asan-ubsan/obs_smoke_metrics.json \
  tests/fixtures/demo.lna > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool build-asan-ubsan/obs_smoke_trace.json > /dev/null
  python3 -m json.tool build-asan-ubsan/obs_smoke_metrics.json > /dev/null
fi

echo "== asan-ubsan: observability suite =="
ctest --test-dir build-asan-ubsan --output-on-failure -L obs

echo "== asan-ubsan: cache suite =="
ctest --test-dir build-asan-ubsan --output-on-failure -L cache

echo "== asan-ubsan: cold/warm cache identity =="
CACHE_DIR=build-asan-ubsan/cache_smoke
rm -rf "$CACHE_DIR"
./build-asan-ubsan/tools/lna-corpus --limit=48 --cache-dir="$CACHE_DIR" \
  2> /dev/null | grep -v wall-clock > build-asan-ubsan/cache_cold.txt
./build-asan-ubsan/tools/lna-corpus --limit=48 --cache-dir="$CACHE_DIR" \
  2> /dev/null | grep -v wall-clock > build-asan-ubsan/cache_warm.txt
cmp build-asan-ubsan/cache_cold.txt build-asan-ubsan/cache_warm.txt

echo "== asan-ubsan: corrupt cache entries are misses, not crashes =="
for f in "$CACHE_DIR"/*.lnac; do
  echo garbage > "$f"
done
./build-asan-ubsan/tools/lna-corpus --limit=48 --cache-dir="$CACHE_DIR" \
  2> /dev/null | grep -v wall-clock > build-asan-ubsan/cache_corrupt.txt
cmp build-asan-ubsan/cache_cold.txt build-asan-ubsan/cache_corrupt.txt

echo "== asan-ubsan: cache-identity fuzz smoke =="
./build-asan-ubsan/tools/lna-fuzz --oracle=cache-identity --seed=2 \
  --runs=200 --max-seconds=30

echo "== asan-ubsan: alias-backend suite =="
ctest --test-dir build-asan-ubsan --output-on-failure -L alias

echo "== asan-ubsan: andersen full-corpus run =="
./build-asan-ubsan/tools/lna-corpus --alias=andersen > /dev/null

echo "== asan-ubsan: precision-differential fuzz smoke =="
./build-asan-ubsan/tools/lna-fuzz --oracle=precision-differential --seed=1 \
  --runs=200 --max-seconds=30

echo "== asan-ubsan: solver suite =="
ctest --test-dir build-asan-ubsan --output-on-failure -L solver

echo "== asan-ubsan: solver-agreement fuzz smoke =="
./build-asan-ubsan/tools/lna-fuzz --oracle=solver-agreement --seed=3 \
  --runs=200 --max-seconds=30

echo "== asan-ubsan: soundness fuzz smoke =="
./build-asan-ubsan/tools/lna-fuzz --oracle=soundness --seed=3 \
  --runs=200 --max-seconds=30

echo "== asan-ubsan: inference-maximality fuzz smoke =="
./build-asan-ubsan/tools/lna-fuzz --oracle=inference-maximality --seed=3 \
  --runs=200 --max-seconds=30

echo "== asan-ubsan: supervisor suite =="
ctest --test-dir build-asan-ubsan --output-on-failure -L supervisor

echo "== asan-ubsan: full-corpus chaos audit (workers + kills + observability) =="
CHAOS_TRACE_DIR=build-asan-ubsan/chaos_traces
CHAOS_TMP=build-asan-ubsan/chaos_tmp
rm -rf "$CHAOS_TRACE_DIR" "$CHAOS_TMP"
mkdir -p "$CHAOS_TRACE_DIR" "$CHAOS_TMP"
./build-asan-ubsan/tools/lna-corpus 2> /dev/null \
  | grep -v wall-clock > build-asan-ubsan/chaos_base.txt
TMPDIR="$PWD/$CHAOS_TMP" ./build-asan-ubsan/tools/lna-corpus --workers=4 \
  --inject-faults=seed=1,kill=2000 \
  --events-out=build-asan-ubsan/chaos_events.jsonl \
  --trace-dir="$CHAOS_TRACE_DIR" --progress=200 2> /dev/null \
  | grep -v wall-clock > build-asan-ubsan/chaos_killed.txt
cmp build-asan-ubsan/chaos_base.txt build-asan-ubsan/chaos_killed.txt
if ls "$CHAOS_TMP" | grep -q '^lna-flight-'; then
  echo "chaos run left a black-box directory in $CHAOS_TMP" >&2
  exit 1
fi

if command -v python3 > /dev/null 2>&1; then
  echo "== asan-ubsan: chaos event journal + fleet trace validation =="
  python3 - build-asan-ubsan/chaos_events.jsonl <<'PY'
import json, sys
events = [json.loads(line) for line in open(sys.argv[1])]
assert events, "event journal is empty"
assert events[0]["event"] == "run-start", events[0]
assert events[-1]["event"] == "run-end", events[-1]
stamps = [e["ts_us"] for e in events]
assert stamps == sorted(stamps), "event timestamps regress"
spawns = sum(e["event"] == "worker-spawn" for e in events)
deaths = sum(e["event"] == "worker-death" for e in events)
assert spawns >= 4, f"expected at least the 4 initial spawns, got {spawns}"
assert spawns >= deaths, f"more deaths ({deaths}) than spawns ({spawns})"
for e in events:
    if e["event"] == "worker-death" and "module" in e:
        assert e.get("phase"), f"worker death without a phase: {e}"
PY
  python3 -m json.tool "$CHAOS_TRACE_DIR/fleet.trace.json" > /dev/null
fi

echo "== asan-ubsan: serve suite =="
ctest --test-dir build-asan-ubsan --output-on-failure -L serve

if command -v python3 > /dev/null 2>&1; then
  echo "== asan-ubsan: daemon mixed workload + kill-and-restart warm resume =="
  SERVE_DIR=build-asan-ubsan/serve_smoke
  rm -rf "$SERVE_DIR"
  mkdir -p "$SERVE_DIR"
  ./build-asan-ubsan/tools/lna-serve --socket="$SERVE_DIR/lna.sock" \
    --threads=2 --cache-dir="$SERVE_DIR/cache" \
    --events-out="$SERVE_DIR/events.jsonl" &
  SERVE_PID=$!
  python3 tools/serve-smoke.py "$SERVE_DIR/lna.sock" \
    ./build-asan-ubsan/tools/lna-analyze first
  kill -9 "$SERVE_PID"
  wait "$SERVE_PID" 2> /dev/null || true
  rm -f "$SERVE_DIR/lna.sock"
  ./build-asan-ubsan/tools/lna-serve --socket="$SERVE_DIR/lna.sock" \
    --threads=2 --cache-dir="$SERVE_DIR/cache" \
    --events-out="$SERVE_DIR/events.jsonl" &
  SERVE_PID=$!
  python3 tools/serve-smoke.py "$SERVE_DIR/lna.sock" \
    ./build-asan-ubsan/tools/lna-analyze resume
  wait "$SERVE_PID"
fi

echo "run-checks: all checks passed"

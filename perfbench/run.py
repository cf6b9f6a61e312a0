#!/usr/bin/env python3
"""End-to-end benchmark of the lna analyzer's three front doors.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus-s7 --seed 1 --seconds 20 --trace 0

Workloads: corpus-s7 (the Section 7 experiment), solver-big (solver-bound
modules) and serve-mixed (open-loop traffic against a live lna-serve).
The first run builds the analyzer and the benchmark driver under
.bench_build/ (or $CARGO_TARGET_DIR when set); later runs rebuild only
what changed. The driver's table goes to stdout and its last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit status: the driver's (0 = every output matched its reference), or
3 when the analyzer's sources are missing, 4 when the build fails, 5 when
the run overstays its time limit. None of these print a result line.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("corpus-s7", "solver-big", "serve-mixed")
# A run (after the build) must finish well inside three minutes.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def sources_present():
    return all(os.path.isfile(os.path.join(ROOT, p)) for p in (
        "CMakeLists.txt", "src/CMakeLists.txt", "tools/CMakeLists.txt",
        "tools/lna-serve.cpp"))


def build(out_dir):
    """Configures (once) and builds the driver and lna-serve."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "lna-serve", "-j", jobs])
    deadline = time.monotonic() + BUILD_LIMIT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.monotonic())
                                    ).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    # Self-test hooks (see perfbench/selftest.py).
    ap.add_argument("--perturb-expected", action="store_true")
    ap.add_argument("--fake-peer", action="store_true")
    args = ap.parse_args()

    if not sources_present():
        sys.stderr.write("perfbench: the analyzer's sources (CMakeLists.txt, "
                         "src/, tools/) are not next to perfbench/\n")
        return 3
    out_dir = build_dir()
    if not build(out_dir):
        sys.stderr.write("perfbench: build failed\n")
        return 4

    work_dir = os.path.join(out_dir, "run-%d" % os.getpid())
    cmd = [os.path.join(out_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--serve-binary", os.path.join(out_dir, "lna", "tools", "lna-serve"),
           # Relative, so the daemon's socket path stays short.
           "--work-dir", os.path.relpath(work_dir, ROOT)]
    if args.perturb_expected:
        cmd.append("--perturb-expected")
    if args.fake_peer:
        cmd.append("--fake-peer")
    # Its own session, so a timeout can take the daemon down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_LIMIT_S)
        return 5
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

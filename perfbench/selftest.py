#!/usr/bin/env python3
"""Fast self-test of the benchmark itself.

Run from the root of a source checkout (builds through run.py first):

    python3 perfbench/selftest.py

Checks, each on one-second runs:
  * every metric BENCHMARK.json names is printed, with its unit, in the
    table and in the result line, for every workload, traced and not;
  * a perturbed expected triple is caught as a failure (non-zero exit);
  * a reply withheld by a fake peer is counted as failed, without a hang;
  * without the analyzer's sources the command fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, *extra, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    start = time.monotonic()
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                       timeout=900)
    return p, time.monotonic() - start


def result(p):
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_every_metric_prints_with_its_unit():
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p, _ = bench(w["name"], trace)
            where = "%s trace %d" % (w["name"], trace)
            check(p.returncode == 0, where + ": exit %d\n%s%s" %
                  (p.returncode, p.stdout, p.stderr))
            r = result(p)
            check(set(r) == {"correct", "attempted", "failed", "metrics"},
                  where + ": result keys")
            check(r["correct"] and r["attempted"] >= 1 and r["failed"] == 0,
                  where + ": not a clean run")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == want, where + ": metrics %s" % sorted(got))
            table = p.stdout.splitlines()[:-1]
            for name, unit in want.items():
                check(any(l.split()[:1] == [name] and unit in l.split()
                          for l in table), where + ": no row for " + name)
                if key == "end_to_end":
                    check(r["metrics"][name]["value"] > 0,
                          where + ": %s is not positive" % name)


def test_perturbed_triple_is_a_failure():
    for w in ("corpus-s7", "solver-big"):
        p, _ = bench(w, 0, "--perturb-expected")
        r = result(p)
        check(p.returncode != 0, w + ": perturbed run exited 0")
        check(not r["correct"] and r["failed"] > 0,
              w + ": perturbed triple not counted")


def test_withheld_reply_is_counted_failed():
    p, secs = bench("serve-mixed", 0, "--fake-peer")
    r = result(p)
    check(r is not None and r["failed"] >= 1,
          "withheld reply not counted:\n" + p.stdout + p.stderr)
    check("got no reply" in p.stdout, "no note on the lost reply")
    check("never reached the client" in p.stdout,
          "reconciliation did not attribute the lost reply")
    check(secs < 120, "fake-peer run took %.0f s" % secs)


def test_refuses_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare-%d" % os.getpid())
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p, _ = bench("corpus-s7", 0, root=bare)
        check(p.returncode != 0, "ran without the analyzer's sources")
        check(result(p) is None, "printed a result without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for t in tests:
        try:
            t()
            print("PASS", t.__name__)
        except AssertionError as e:
            failed += 1
            print("FAIL", t.__name__ + ":", e)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

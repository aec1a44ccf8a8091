#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py [--workloads hunt,model-cache]

Checks that
  * BENCHMARK.json names exactly the workloads and metrics run.py prints,
    with the same units;
  * every workload prints every end-to-end metric (--trace 0) and every
    per-layer metric (--trace 1) with its unit, answers correctly and
    reports operations attempted;
  * the answer checks fire: with every golden answer moved by 100
    (--perturb 100) each workload must report correct=false and failures.

Short runs (--seconds 1) keep it to a few minutes; hunt always completes
one pass over its 16 rows. Exits 0 when every check holds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def bench(workload, trace, perturb=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if perturb:
        cmd += ["--perturb", str(perturb)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def check_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect([w["name"] for w in spec["workloads"]] == run.WORKLOADS,
           "BENCHMARK.json workloads match run.py")
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(listed == table, "BENCHMARK.json %s names and units match "
               "run.py" % key)


def check_workload(workload):
    for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        out = bench(workload, trace)
        tag = "%s --trace %d" % (workload, trace)
        expect(out is not None, tag + " prints a result")
        if out is None:
            continue
        expect(out["correct"] and out["failed"] == 0,
               tag + " answers correctly")
        expect(out["attempted"] >= 1, tag + " counts operations attempted")
        metrics = out["metrics"]
        expect(set(metrics) == set(table), tag + " prints every metric")
        expect(all(metrics[k]["unit"] == table[k] for k in metrics),
               tag + " gives every metric its unit")
        if trace == 0:
            expect(all(metrics[k]["value"] > 0 for k in metrics),
                   tag + " end-to-end metrics are nonzero")
    out = bench(workload, 0, perturb=100)
    expect(out is not None and not out["correct"] and out["failed"] >= 1,
           workload + " answer checks fire on a wrong expectation")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = ap.parse_args()
    check_manifest()
    for w in args.workloads.split(","):
        check_workload(w)
    print("%d check(s) failed" % len(FAILURES) if FAILURES else
          "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ICB checker.

Run from the repository root:

    python3 perfbench/run.py --workload model-cache --seed 1 --seconds 35 --trace 0

It builds perfbench/ (which compiles the checker's libraries from src/)
into .bench_build/perfbench, then measures one workload:

  --trace 0  set-up samples, then timed repetitions of the workload, each
             in a fresh pb_bench process, for --seconds; prints the
             end-to-end metrics (medians over the repetitions).
  --trace 1  one traced run (pb_bench traced): the per-layer metrics and
             the overhead of tracing itself.

Every repetition's answer is checked. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {value,
unit}}}. The line before it records provenance (commit, host, compiler,
build type, and a fixed reference-loop timing to spot a drifting host).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pb_bench")

WORKLOADS = ["dryad-frontier", "model-cache", "dist-loopback"]

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "execs_to_verdict": "count",
}

PER_LAYER = {
    "vm.step_ns": "ns",
    "vm.enabled_ns": "ns",
    "vm.hash_ns": "ns",
    "search.cache_probe_ns": "ns",
    "search.cache_probe_hit_ratio": "ratio",
    "search.cache_probe_inserts": "count",
    "search.seen_hit_ratio": "ratio",
    "search.seen_probes": "count",
    "search.items_published": "count",
    "search.deferred_per_exec": "ratio",
    "search.executions": "count",
    "search.chain_p50_us": "us",
    "search.chain_p99_us": "us",
    "search.chains_sampled": "count",
    "search.worker_busy_ratio": "ratio",
    "search.worker_time_s": "s",
    "search.steal_hit_ratio": "ratio",
    "search.steal_attempts": "count",
    "search.execs_per_s": "1/s",
    "search.steps_per_s": "1/s",
    "rt.replay_step_share": "ratio",
    "rt.total_steps": "count",
    "rt.replay_ns_per_step": "ns",
    "rt.execute_ns_per_step": "ns",
    "rt.execute_s": "s",
    "rt.replay_schedule_us": "us",
    "rt.replayed_schedules": "count",
    "rt.switch_ns": "ns",
    "trace.hash_share": "ratio",
    "trace.fingerprint_ns": "ns",
    "race.detect_share": "ratio",
    "session.frame_encode_us": "us",
    "session.frame_decode_us": "us",
    "session.frame_bytes": "bytes",
    "session.frames": "count",
    "dist.lease_exec_ms_p50": "ms",
    "dist.lease_exec_ms_p99": "ms",
    "dist.lease_gap_ms_p50": "ms",
    "dist.lease_gap_ms_p99": "ms",
    "dist.joiner_busy_ratio": "ratio",
    "dist.joiner_time_s": "s",
    "dist.leases": "count",
    "dist.items_per_lease": "ratio",
    "dist.handshake_ms": "ms",
    "dist.rehellos": "count",
    "dist.revoked_leases": "count",
    "obs.trace_overhead": "ratio",
    "obs.untraced_wall_s": "s",
    "obs.metering_overhead": "ratio",
    "obs.unmetered_wall_s": "s",
    "obs.traced_rounds": "count",
}

# Set-up is sampled before every repetition, in SETUP_PROCESSES fresh
# processes of 11 samples each (pb_bench setup). One sample is a
# millisecond or less. Within a process the median is steady, but it differs between
# processes by up to half (memory layout), so the run reports a trimmed
# mean over many processes spread across the run.
SETUP_PROCESSES = 8

# Every run, traced or not, must end within this many seconds.
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "search", "IcbEngine.h")):
        raise BenchError("checker sources not found under %s/src" % ROOT)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "pb_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)


class Runner:
    """Starts pb_bench processes against one deadline."""

    def __init__(self, deadline):
        self.deadline = deadline

    def child(self, *args):
        """Runs pb_bench and returns its JSON line, or None on failure."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline exceeded")
        proc = subprocess.Popen([BINARY] + [str(a) for a in args],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("pb_bench %s timed out" % " ".join(
                str(a) for a in args))
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log("pb_bench %s exited %d: %s" % (
                " ".join(str(a) for a in args), proc.returncode,
                err.strip()[-300:]))
            return None
        return json.loads(lines[-1])


def trimmed_mean(values, cut=0.2):
    """Mean of values without the lowest and the highest cut share."""
    v = sorted(values)
    k = int(len(v) * cut)
    v = v[k:len(v) - k] or v
    return sum(v) / len(v) if v else 0.0


def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0
    return v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("answer check failed: " + (why or "no result"))

    def absorb(self, out, what):
        """Folds in a pb_bench result that counts its own operations."""
        if out is None:
            self.check(False, what + " crashed")
            return
        self.attempted += int(out["attempted"])
        self.failed += int(out["failed"])
        if out["failed"]:
            log("%s: %s" % (what, out["why"]))


def measure(runner, workload, seconds, perturb):
    """The end-to-end metrics of one workload, over its repetitions."""
    tally = Tally()
    extra = ["--perturb", perturb] if perturb else []

    if workload == "dist-loopback":
        ref = runner.child("check", "--workload", workload, *extra)
        tally.check(ref is not None and ref["correct"],
                    ref and ref["why"])

    # dist-loopback records its set-up (bind, both hellos, first lease)
    # inside each repetition.
    reps, setups = [], []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        if workload != "dist-loopback":
            for _ in range(SETUP_PROCESSES):
                setup = runner.child("setup", "--workload", workload)
                tally.absorb(setup, "set-up probe")
                if setup is not None:
                    setups.append(setup["setup_s"])
        rep = runner.child("rep", "--workload", workload, *extra)
        tally.check(rep is not None and rep["correct"], rep and rep["why"])
        if rep is None:
            break
        reps.append(rep)
        if "setup_s" in rep:
            setups.append(rep["setup_s"])

    def med(key):
        return median([r[key] for r in reps])

    metrics = {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "setup_s": trimmed_mean(setups),
        "execs_to_verdict": int(med("executions")),
    }
    log("%s: %d repetitions in %.1f s" % (workload, len(reps),
                                          time.monotonic() - start))
    return tally, metrics


def traced(runner, workload, seed, seconds, perturb):
    tally = Tally()
    extra = ["--perturb", perturb] if perturb else []
    out = runner.child("traced", "--workload", workload, "--seed", seed,
                       "--seconds", seconds, *extra)
    tally.absorb(out, "traced run")
    return tally, {k: out[k] for k in PER_LAYER if out and k in out}


def provenance(info):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "compiler": info["compiler"], "build_type": info["build_type"],
            "ref_loop_s": info["ref_loop_s"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--perturb", type=int, default=0,
                    help="self-test only: add this to every golden answer "
                         "so that the answer checks must fail")
    args = ap.parse_args()

    begin = time.monotonic()
    try:
        build()
        runner = Runner(begin + RUN_DEADLINE_S)
        info = runner.child("info")
        if info is None:
            raise BenchError("pb_bench does not run")
        print("provenance " + json.dumps(provenance(info)), flush=True)
        if args.trace:
            tally, values = traced(runner, args.workload, args.seed,
                                   args.seconds, args.perturb)
            units = PER_LAYER
        else:
            tally, values = measure(runner, args.workload, args.seconds,
                                    args.perturb)
            units = END_TO_END
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error: %s" % e)
        return 1

    missing = [k for k in units if k not in values]
    for k in missing:
        tally.check(False, "metric %s not measured" % k)
    metrics = {k: {"value": values[k], "unit": units[k]}
               for k in units if k in values}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

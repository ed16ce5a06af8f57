#!/usr/bin/env python3
"""osel_ledger: build and run the osel performance ledger.

Run from the repository root:

  python3 bench/ledger/osel_ledger.py --workload NAME [--seed N]
          [--seconds S] [--trace 0|1] [--trace-out FILE]
      Builds bench/ledger into .bench_build/ledger when needed and runs one
      workload in this process; the last line printed is the JSON result.

  python3 bench/ledger/osel_ledger.py --smoke [--seed N]
      Every workload for 1 s, untraced and traced, with all checks on; each
      must report exactly the metrics BENCHMARK.json declares.

  python3 bench/ledger/osel_ledger.py all --out FILE [--runs N] [--seed N]
          [--seconds S]
      Runs every workload N times untraced (seeds SEED, SEED+1, ...) and
      once traced, each in its own process, and appends the results to FILE
      together with the git sha, a machine fingerprint and sample counts.

  python3 bench/ledger/osel_ledger.py compare PARENT.json CHANGE.json
      For each (metric, workload) prints improved, unchanged, regressed or
      unresolved, using the bounds in BENCHMARK.json; a workload whose
      change runs fail a check, or fail a larger share of their requests
      than the parent's, is regressed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")
BUILD_DIR = os.path.join(".bench_build", "ledger")
BINARY = os.path.join(BUILD_DIR, "osel_ledger")


def build():
    """Configures (once) and builds the ledger; exits 1 on failure."""
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs])
    for step in steps:
        done = subprocess.run(step, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            sys.stderr.write("osel_ledger: build failed: %s\n" % " ".join(step))
            sys.exit(1)


def run_workload(workload, seed, seconds, trace):
    """Runs one workload in a child process; returns its exit code, its
    parsed result line (None when there is none) and its output."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result, done.stdout


def load_benchmark():
    with open(BENCHMARK) as source:
        return json.load(source)


def workloads():
    return [w["name"] for w in load_benchmark()["workloads"]]


def smoke(seed):
    """Every workload for 1 s, untraced and traced: each run must pass its
    checks and report exactly the metrics BENCHMARK.json declares."""
    benchmark = load_benchmark()
    declared = {0: [m["name"] for m in benchmark["end_to_end"]],
                1: [m["name"] for m in benchmark["per_layer"]]}
    failures = 0
    for workload in workloads():
        for trace in (0, 1):
            code, result, output = run_workload(workload, seed, 1, trace)
            ok = (code == 0 and result is not None and result["correct"]
                  and list(result["metrics"]) == declared[trace])
            failures += 0 if ok else 1
            print("%-17s trace=%d %s" % (workload, trace, "ok" if ok else "FAILED"))
            if not ok:
                sys.stdout.write(output)
    return 1 if failures else 0


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"
    done = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "kernel": platform.release()}


def run_all(out, runs, seed, seconds):
    ledger = {"git_sha": git_sha(), "machine": machine(), "seed": seed,
              "seconds": seconds, "runs": []}
    if os.path.exists(out):
        with open(out) as existing:
            previous = json.load(existing)
        if previous["git_sha"] != ledger["git_sha"]:
            sys.stderr.write("osel_ledger: %s holds runs of %s, not %s\n"
                             % (out, previous["git_sha"], ledger["git_sha"]))
            return 1
        ledger["runs"] = previous["runs"]
    status = 0
    for workload in workloads():
        plan = [(seed + i, 0) for i in range(runs)] + [(seed, 1)]
        for run_seed, trace in plan:
            code, result, _ = run_workload(workload, run_seed, seconds, trace)
            if code != 0 or result is None:
                status = 1
            if result is None:
                continue
            result.update({"workload": workload, "seed": run_seed,
                           "trace": trace})
            ledger["runs"].append(result)
            print("%-17s seed=%d trace=%d correct=%s" %
                  (workload, run_seed, trace, result["correct"]))
    counts = {}
    for entry in ledger["runs"]:
        key = "%s/trace%d" % (entry["workload"], entry["trace"])
        counts[key] = counts.get(key, 0) + 1
    ledger["samples"] = counts
    with open(out, "w") as sink:
        json.dump(ledger, sink, indent=1)
    return status


def samples(ledger, workload, metric, trace):
    return [entry["metrics"][metric]["value"] for entry in ledger["runs"]
            if entry["workload"] == workload and entry["trace"] == trace
            and metric in entry["metrics"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """A gain needs >= 10 pairs, 9/10 wins and a median gap wider than the
    parent's interquartile range; a regression is a median worse by more
    than the bound, unless the parent's own spread is wider than the bound
    (then unresolved, unless every change run beats every parent run)."""
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    q1, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    if bound is None:
        if len(pairs) >= 10 and losses >= 0.9 * len(pairs) and -gain > q3 - q1:
            return "regressed"
        return "unchanged"
    scale = abs(base) if base else 1.0
    if (q3 - q1) / scale > bound:
        beats = all(sign * (c - p) > 0 for p in parent for c in change)
        return "unchanged" if beats else "unresolved"
    return "regressed" if -gain / scale > bound else "unchanged"


def failures(ledger, workload):
    """(failed, attempted, runs with "correct": false) over a workload's runs."""
    runs = [entry for entry in ledger["runs"] if entry["workload"] == workload]
    return (sum(entry["failed"] for entry in runs),
            sum(entry["attempted"] for entry in runs),
            sum(1 for entry in runs if not entry["correct"]))


def compare(parent_path, change_path):
    benchmark = load_benchmark()
    with open(parent_path) as source:
        parent = json.load(source)
    with open(change_path) as source:
        change = json.load(source)
    print("parent %s, change %s" % (parent["git_sha"], change["git_sha"]))
    metrics = [(m, 0, m.get("bound")) for m in benchmark["end_to_end"]]
    metrics += [(m, 1, None) for m in benchmark["per_layer"]]
    regressed = False
    for workload in workloads():
        # Any failed check on the change, or a larger failed share than the
        # parent's, is a regression, and no metric of the workload improves.
        p_failed, p_attempted, _ = failures(parent, workload)
        c_failed, c_attempted, c_incorrect = failures(change, workload)
        failing = c_incorrect > 0 or (
            c_failed * max(p_attempted, 1) > p_failed * max(c_attempted, 1))
        regressed = regressed or failing
        print("%-17s %-30s %-10s %d/%d -> %d/%d failed (%d incorrect runs)" % (
            workload, "failed_ratio", "regressed" if failing else "unchanged",
            p_failed, p_attempted, c_failed, c_attempted, c_incorrect))
        for metric, trace, bound in metrics:
            name = metric["name"]
            p = samples(parent, workload, name, trace)
            c = samples(change, workload, name, trace)
            if not p or not c:
                result = "unresolved"
                detail = "no samples"
            else:
                result = verdict(p, c, metric["better"], bound)
                base = statistics.median(p)
                detail = "%.6g -> %.6g %s (%+.1f%%; n=%d/%d)" % (
                    base, statistics.median(c), metric["unit"],
                    100.0 * (statistics.median(c) - base) / base if base else 0.0,
                    len(p), len(c))
            if failing and result == "improved":
                result = "unresolved"
                detail += "; more failures than the parent"
            regressed = regressed or (trace == 0 and result == "regressed")
            print("%-17s %-30s %-10s %s" % (workload, name, result, detail))
    return 1 if regressed else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="osel_ledger.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        args = parser.parse_args(sys.argv[2:])
        return compare(args.parent, args.change)
    if len(sys.argv) > 1 and sys.argv[1] == "all":
        parser = argparse.ArgumentParser(prog="osel_ledger.py all")
        parser.add_argument("--out", required=True)
        parser.add_argument("--runs", type=int, default=5)
        parser.add_argument("--seed", type=int, default=2019)
        parser.add_argument("--seconds", type=float,
                            default=load_benchmark()["run_seconds"])
        args = parser.parse_args(sys.argv[2:])
        build()
        return run_all(args.out, args.runs, args.seed, args.seconds)
    if "--smoke" in sys.argv[1:]:
        parser = argparse.ArgumentParser(prog="osel_ledger.py --smoke")
        parser.add_argument("--smoke", action="store_true")
        parser.add_argument("--seed", type=int, default=2019)
        args = parser.parse_args(sys.argv[1:])
        build()
        return smoke(args.seed)
    build()
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

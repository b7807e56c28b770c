#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Run a workload k times, each with another seed, and print every
metric's median, quartiles and spread (interquartile distance as a share
of the median), flagging a spread above the metric's bound in
BENCHMARK.json, or above a third of it:

    python3 perfbench/steady.py --workload serve-bursty -k 10 --out a.json

Compare two saved sets of runs: a metric whose second median is worse
than the first by more than its bound is flagged, as is a different
share of failed operations:

    python3 perfbench/steady.py --compare a.json b.json

Quartiles are Python's statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(spec, traced):
    return {m["name"]: m for m in spec["per_layer" if traced else "end_to_end"]}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (res.returncode,
                                                      " ".join(cmd)))
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(workload, runs, specs):
    print("\n%s: %d runs, failed %d of %d operations" % (
        workload, len(runs), sum(r["failed"] for r in runs),
        sum(r["attempted"] for r in runs)))
    print("%-32s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3",
                                            "spread", "bound"))
    flagged = 0
    for name, m in specs.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, sp = spread(vals)
        bound = m.get("bound")
        flag = ""
        if bound is not None:
            if sp > bound:
                flag, flagged = "OVER", flagged + 1
            elif sp > bound / 3:
                flag = "> 1/3"
        print("%-32s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            name, med, q1, q3, sp, "" if bound is None else bound, flag))
    bad = [r for r in runs if not r["correct"]]
    if bad:
        print("%d run(s) reported correct=false" % len(bad))
        flagged += len(bad)
    return flagged


def compare(path_a, path_b, spec):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    specs = metric_specs(spec, False)
    flagged = 0
    for workload in sorted(set(a) & set(b)):
        ra, rb = a[workload], b[workload]
        share_a = sum(r["failed"] for r in ra) / sum(r["attempted"] for r in ra)
        share_b = sum(r["failed"] for r in rb) / sum(r["attempted"] for r in rb)
        print("\n%s: failed share %.6f vs %.6f%s" % (
            workload, share_a, share_b, "" if share_a == share_b else "  DIFFER"))
        flagged += share_a != share_b
        for name, m in specs.items():
            va = statistics.median(r["metrics"][name]["value"] for r in ra)
            vb = statistics.median(r["metrics"][name]["value"] for r in rb)
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            flag = "WORSE" if worse > m["bound"] else ""
            flagged += bool(flag)
            print("  %-30s %14.6g %14.6g %+8.4f %s" % (name, va, vb, -worse, flag))
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("-k", type=int, default=10, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="save the runs as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        sys.exit(1 if compare(args.compare[0], args.compare[1], spec) else 0)

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    specs = metric_specs(spec, args.trace == 1)
    results, flagged = {}, 0
    for w in workloads:
        runs = []
        for i in range(args.k):
            seed = args.first_seed + i
            runs.append(run_once(w, seed, seconds, args.trace))
            print("  %s seed %d done" % (w, seed), file=sys.stderr)
        results[w] = runs
        flagged += report(w, runs, specs)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()

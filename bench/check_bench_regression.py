#!/usr/bin/env python3
"""Enforce bench regression thresholds against a checked-in baseline.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--threshold 0.8]

Both files are schema-v2 bench artifacts (see bench_common.hh): numeric
metrics are objects {"value": N, "unit": "..."}. Every *rate* metric in
the baseline — any metric whose unit ends in "/sec" — must be present in
the current artifact and reach at least `threshold` x the baseline
value. A baseline entry may also opt into gating explicitly with
{"gate": "floor"}: that enforces the same higher-is-better floor on a
non-rate metric (goodput under faults, availability). A deterministic
counter (a build count on a seeded sequence, say) repeats exactly, so
it needs no noise margin: {"gate": "exact"} requires the current value
to equal the baseline's, whatever --threshold says. Other metrics
(counts, costs, strings) are reported but not enforced, so the script
never parses by position and never misfires on cost metrics where
smaller is better.

The committed bench/baseline.json deliberately holds values well below
a warm developer box (roughly 50-60% of locally measured numbers): CI
runners are slower and noisy, and the point of the gate is to catch
order-of-magnitude regressions (an accidental allocation or polling
loop on the hot path), not 10% jitter. Update it by running
`bench_hotpath --json` on the reference machine and scaling down, and
note the change in the PR.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != 2:
        sys.exit(f"{path}: expected schema_version 2, "
                 f"got {doc.get('schema_version')!r}")
    return doc


def gated_metrics(doc):
    """Gated metrics -> (value, unit, gate): rate units ("*/sec") and
    explicit floor markers gate "floor", explicit exact markers "exact"."""
    out = {}
    for key, entry in doc.items():
        if not (isinstance(entry, dict) and "value" in entry):
            continue
        gate = entry.get("gate")
        if gate == "exact":
            out[key] = (float(entry["value"]), entry["unit"], "exact")
        elif (str(entry.get("unit", "")).endswith("/sec")
                or gate == "floor"):
            out[key] = (float(entry["value"]), entry["unit"], "floor")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.8,
                    help="minimum fraction of the baseline value "
                         "(default 0.8)")
    args = ap.parse_args()

    baseline = gated_metrics(load(args.baseline))
    current_doc = load(args.current)
    if not baseline:
        sys.exit(f"{args.baseline}: no gated metrics (unit '*/sec' or "
                 f"\"gate\": \"floor\"/\"exact\") found")

    failures = []
    width = max(len(k) for k in baseline)
    for key, (base_v, unit, gate) in sorted(baseline.items()):
        # The gate marker lives in the baseline; the current artifact
        # just reports values, so look the key up in the raw document.
        entry = current_doc.get(key)
        if not (isinstance(entry, dict) and "value" in entry):
            failures.append(key)
            print(f"FAIL {key:<{width}}  missing from current artifact")
            continue
        cur_v = float(entry["value"])
        if gate == "exact":
            ok = cur_v == base_v
            bound = f"exact {base_v:14.6g}"
        else:
            floor = args.threshold * base_v
            ok = cur_v >= floor
            bound = f"floor {floor:14.6g}"
        if not ok:
            failures.append(key)
        print(f"{'ok  ' if ok else 'FAIL'} {key:<{width}}  "
              f"{cur_v:14.6g} vs {bound} {unit} "
              f"(baseline {base_v:.6g})")

    if failures:
        print(f"\n{len(failures)} metric(s) below "
              f"{args.threshold:.0%} of baseline or off their exact "
              f"value", file=sys.stderr)
        return 1
    print(f"\nall {len(baseline)} gated metrics at or above "
          f"{args.threshold:.0%} of baseline or at their exact value")
    return 0


if __name__ == "__main__":
    sys.exit(main())

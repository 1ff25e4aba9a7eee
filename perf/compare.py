#!/usr/bin/env python3
"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

    python3 perf/compare.py BASE_DIR NEW_DIR

Each directory holds untraced result files written by perf/run.py
(<workload>-seed<S>.json); use several seeds per side. For every workload
and end-to-end metric it prints each side's median and quartiles, the
relative change of the median, and a verdict:

  better / worse   the median moved past the metric's bound
  within bound     the median moved by no more than the bound
  unresolved       a side's quartile spread exceeds the bound, so the
                   medians cannot be told apart at that bound (unless every
                   run of one side beats every run of the other)

Exits 1 if any metric is worse or unresolved.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: {metric: [values]}} from the untraced result files."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-seed*.json"))):
        if path.endswith("-trace.json"):
            continue
        with open(path) as f:
            r = json.load(f)
        if r.get("trace"):
            continue
        for name, m in r["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return out


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def verdict(base, new, bound, lower_is_better):
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    change = (nm - bm) / bm
    worse_by = change if lower_is_better else -change
    new_wins = (max(new) < min(base)) if lower_is_better else (min(new) > max(base))
    base_wins = (max(base) < min(new)) if lower_is_better else (min(base) > max(new))
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    if spread > bound:
        if new_wins:
            return change, "better"
        if base_wins:
            return change, "worse"
        return change, "unresolved"
    if worse_by > bound:
        return change, "worse"
    if worse_by < -bound:
        return change, "better"
    return change, "within bound"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    bad = 0
    print(f"{'workload':18s} {'metric':24s} {'base q1/med/q3':>32s} "
          f"{'new q1/med/q3':>32s} {'change':>8s} {'bound':>6s}  verdict")
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            b = base.get(w["name"], {}).get(m["name"])
            n = new.get(w["name"], {}).get(m["name"])
            if not b or not n:
                print(f"{w['name']:18s} {m['name']:24s} missing results")
                bad += 1
                continue
            change, v = verdict(b, n, m["bound"], m["better"] == "lower")
            bad += v in ("worse", "unresolved")
            fmt = lambda q: "/".join(f"{x:.4g}" for x in quartiles(q))
            print(f"{w['name']:18s} {m['name']:24s} {fmt(b):>32s} {fmt(n):>32s} "
                  f"{change:+8.2%} {m['bound']:6.2f}  {v}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

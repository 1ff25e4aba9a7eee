#!/usr/bin/env python3
"""Build and run the Delphi benchmark (see perf/README.md).

One workload, as the benchmark contract calls it; the last line of stdout is
{"correct", "attempted", "failed", "metrics"}:

    python3 perf/run.py --workload tcp-feed --seed 3 --seconds 25 --trace 0

Every workload, each in its own process, with a summary table:

    python3 perf/run.py [--seed S]             # end-to-end metrics
    python3 perf/run.py [--seed S] --trace     # per-layer metrics, 1/4 length

The benchmark builds into build-perf/ and writes its result files to
build-perf/results/ (or --results-dir), which perf/compare.py reads.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERF = os.path.join(ROOT, "perf")
BUILD = os.path.join(ROOT, "build-perf")
EXE = os.path.join(BUILD, "delphi_perf")
# Leaves room under the 180 s a run may take for start-up and the
# benchmark's own first (reference) run.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perf/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build delphi_perf; output goes to build.log."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the Delphi sources (CMakeLists.txt, src/) are not next to perf/")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PERF, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "delphi_perf",
                  "-j", str(os.cpu_count() or 1)])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed ({' '.join(cmd)}: {rc})", 1)


def git_head():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(name, seed, seconds, trace, results_dir, head):
    """Run one workload in its own process; stdout passes through."""
    cmd = [EXE, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--results-dir", results_dir, "--git-head", head]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perf/run.py: {name} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def summary(bench, results_dir, seed, trace):
    """One table: metric rows, workload columns."""
    names = [w["name"] for w in bench["workloads"]]
    suffix = "-trace.json" if trace else ".json"
    results = {}
    for name in names:
        try:
            with open(os.path.join(results_dir, f"{name}-seed{seed}{suffix}")) as f:
                results[name] = json.load(f)
        except OSError:
            pass
    keys = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    print()
    print(f"{'metric':40s}" + "".join(f"{n:>20s}" for n in names))
    for key in keys:
        row = f"{key:40s}"
        unit = ""
        for name in names:
            m = results.get(name, {}).get("metrics", {}).get(key)
            row += f"{m['value']:20.6g}" if m else f"{'-':>20s}"
            unit = m["unit"] if m else unit
        print(f"{row}  {unit}")
    row = f"{'failed / attempted':40s}"
    for name in names:
        r = results.get(name)
        row += f"{r['failed']:>13d} / {r['attempted']:<5d}" if r else f"{'-':>20s}"
    print(row)


def main():
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the
    # benchmark process it is waiting on before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", nargs="?", const="1", default="0",
                    choices=["0", "1"])
    ap.add_argument("--results-dir", default=os.path.join(BUILD, "results"))
    args = ap.parse_args()
    trace = args.trace == "1"

    build()
    os.makedirs(args.results_dir, exist_ok=True)
    head = git_head()

    if args.workload:
        seconds = args.seconds or bench["run_seconds"]
        sys.exit(run_workload(args.workload, args.seed, seconds, trace,
                              args.results_dir, head))

    # A traced pass runs at a quarter of the measured length: it explains
    # where time goes, it does not gate anything.
    seconds = args.seconds or bench["run_seconds"] / (4 if trace else 1)
    rc = 0
    for w in bench["workloads"]:
        rc |= run_workload(w["name"], args.seed, seconds, trace,
                           args.results_dir, head)
    summary(bench, args.results_dir, args.seed, trace)
    sys.exit(1 if rc else 0)


if __name__ == "__main__":
    main()

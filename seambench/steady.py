#!/usr/bin/env python3
"""Steadiness check for the seam-traced benchmark.

    python3 seambench/steady.py [--runs N] [--seconds S] [--first-seed K]

Runs every workload in BENCHMARK.json N times through run.py, each time
on a new seed (K, K+1, ...) and with the workload order rotated by one per
pass, so no workload always runs first. Prints, per workload and metric, the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread: the
inter-quartile distance as a share of the median. For end-to-end metrics
with a bound in BENCHMARK.json it also prints the bound and whether the
spread is below a third of it, and exits 1 when one is not. Run from the
repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec.get("run_seconds", 30))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = [w["name"] for w in spec.get("workloads", [])]
    if not workloads or args.runs < 1:
        ap.error("need BENCHMARK.json's workloads and at least one run")
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            r = run_once(w, args.first_seed + i, args.seconds)
            results[w].append(r)
            print(f"pass {i + 1}/{args.runs} {w}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                flush=True)

    all_steady = True
    for w in workloads:
        runs = results[w]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"\n{w}: {len(runs)} runs, {attempted} operations, "
              f"{failed} failed, correct={correct}")
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                steady = spread < bound / 3
                all_steady &= steady
                mark = f"{bound:>6} {'ok' if steady else 'WIDE'}"
            print(f"  {name:<30} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {mark}")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())

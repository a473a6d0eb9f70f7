#!/usr/bin/env python3
"""Perf-regression gate for bench_perf_sweep reports.

Compares one or more fresh sweeps (swarmlab.batch/* schema, as written
by ``bench_perf_sweep --json``) against the committed baseline at the
repo root and fails when any (tier, backend, seed) pair's
events-per-second throughput regressed by more than its threshold.

Usage:
    check_perf_regression.py BASELINE FRESH [FRESH ...] [--threshold 0.20]
        [--pair-threshold TIER:BACKEND=FRACTION ...]

Several FRESH reports are repeated runs of the same tiers: the gate
compares the best (highest) events/s among them, so one run slowed by a
noisy host does not fail it, while a real regression slows every run.

Pairs are keyed by (tier name, network backend, seed): the same tier on
a different backend or seed is a different trajectory, so a
fluid-vs-packet mixup or a reseeded ladder can never silently pass the
gate. A shared pair must also have executed the same number of events —
that count is deterministic, so a mismatch means the two reports ran
different workloads and the gate exits with an error instead of
comparing them; every fresh run must match the baseline's count. Only
pairs present in both the baseline and a fresh report are compared (so a
small-tier CI run gates against the baseline's small tiers without
requiring the full ladder). --pair-threshold overrides the
global threshold for one pair; the packet tiers typically want a looser
bound than the fluid ones because their wall time is shorter and so
noisier.

events/s = results[].events / results[].wall.sim — the events numerator
is deterministic; the wall-clock denominator varies with the host, which
is why the baseline should be refreshed from the CI-uploaded artifact
(same runner class), not from a developer machine. A fresh run much
FASTER than baseline exits 0 but prints a refresh hint.
"""
import argparse
import json
import sys


def load_report(path, role):
    """Parse a report file, exiting with an actionable message (not a
    traceback) when it is missing, unreadable, or not a batch report."""
    try:
        with open(path) as f:
            report = json.load(f)
    except FileNotFoundError:
        sys.exit(
            f"error: {role} report {path!r} does not exist.\n"
            f"  baseline: the committed BENCH_perf.json at the repo root "
            f"(refresh it from the CI perf-gate artifact);\n"
            f"  fresh: produce one with "
            f"'bench_perf_sweep --tier small --json <path>'."
        )
    except OSError as e:
        sys.exit(f"error: cannot read {role} report {path!r}: {e.strerror}")
    except json.JSONDecodeError as e:
        sys.exit(
            f"error: {role} report {path!r} is not valid JSON "
            f"(line {e.lineno}, column {e.colno}: {e.msg}).\n"
            f"  The file may be truncated (e.g. a killed bench run) — "
            f"regenerate it with bench_perf_sweep --json."
        )
    if not isinstance(report, dict):
        sys.exit(
            f"error: {role} report {path!r} holds a JSON "
            f"{type(report).__name__}, expected a swarmlab.batch object."
        )
    schema = report.get("schema", "")
    if not str(schema).startswith("swarmlab.batch/"):
        sys.exit(
            f"error: {role} report {path!r} has schema {schema!r}, "
            f"expected swarmlab.batch/* (is this a bench_perf_sweep "
            f"--json report?)"
        )
    return report


def tier_runs(report):
    """(tier name, backend, seed) -> (events, events/s), from a
    swarmlab.batch report.

    Pre-v6 reports lack the per-entry backend field; those entries key
    under "fluid", the only backend that existed then.
    """
    out = {}
    for entry in report.get("results", []):
        if not isinstance(entry, dict):
            continue
        name = entry.get("name")
        backend = entry.get("backend") or "fluid"
        events = entry.get("events", 0)
        wall = entry.get("wall", {})
        sim_wall = wall.get("sim", 0.0) if isinstance(wall, dict) else 0.0
        if not name or not sim_wall:
            continue
        out[(name, backend, entry.get("seed"))] = (events, events / sim_wall)
    return out


def parse_pair_thresholds(specs):
    """["pkt_small:packet=0.3", ...] -> {("pkt_small", "packet"): 0.3}."""
    out = {}
    for spec in specs:
        key, eq, value = spec.partition("=")
        tier, colon, backend = key.partition(":")
        if not eq or not colon or not tier or not backend:
            sys.exit(
                f"error: bad --pair-threshold {spec!r} — expected "
                f"TIER:BACKEND=FRACTION (e.g. pkt_small:packet=0.3)."
            )
        try:
            out[(tier, backend)] = float(value)
        except ValueError:
            sys.exit(
                f"error: bad --pair-threshold {spec!r} — {value!r} is not "
                f"a number."
            )
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh", nargs="+",
                    help="one or more fresh reports (repeated runs)")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="max tolerated fractional regression (default 0.20)")
    ap.add_argument("--pair-threshold", action="append", default=[],
                    metavar="TIER:BACKEND=FRACTION",
                    help="override the threshold for one (tier, backend) "
                         "pair; repeatable")
    args = ap.parse_args()
    pair_thresholds = parse_pair_thresholds(args.pair_threshold)

    base = tier_runs(load_report(args.baseline, "baseline"))
    if not base:
        sys.exit(
            f"error: {args.baseline!r} contains no usable tier entries "
            f"(each needs a name, an events count and wall.sim > 0)."
        )
    # (tier, backend, seed) -> [(events, events/s) per fresh run]
    runs = {}
    for path in args.fresh:
        one = tier_runs(load_report(path, "fresh"))
        if not one:
            sys.exit(
                f"error: {path!r} contains no usable tier entries "
                f"(each needs a name, an events count and wall.sim > 0)."
            )
        for key, sample in one.items():
            runs.setdefault(key, []).append(sample)
    fresh = set(runs)
    shared = sorted(set(base) & fresh)
    if not shared:
        def fmt(keys):
            return ", ".join(f"{t}[{b}] seed {s}" for t, b, s in sorted(keys))
        sys.exit(
            "error: no common (tier, backend, seed) pairs between baseline "
            f"({fmt(base)}) and fresh reports ({fmt(fresh)}) — did the "
            f"tier names, backend assignments or seeds change? Regenerate "
            f"the baseline with 'bench_perf_sweep --json BENCH_perf.json'."
        )

    mismatched = [
        f"{t}[{b}] seed {s}: baseline {base[(t, b, s)][0]} events, "
        f"fresh {events}"
        for t, b, s in shared
        for events, _ in runs[(t, b, s)]
        if events != base[(t, b, s)][0]
    ]
    if mismatched:
        sys.exit(
            "error: the deterministic event counts differ, so these pairs "
            "ran different trajectories and their throughput is not "
            "comparable:\n  " + "\n  ".join(mismatched) + "\n"
            "Regenerate the baseline from the current code with "
            "'bench_perf_sweep --json BENCH_perf.json'."
        )

    failures = []
    print(f"{'tier[backend]':<22}{'baseline ev/s':>16}{'best fresh':>16}"
          f"{'runs':>6}{'delta':>10}{'gate':>8}")
    for tier, backend, seed in shared:
        label = f"{tier}[{backend}]"
        threshold = pair_thresholds.get((tier, backend), args.threshold)
        base_evps = base[(tier, backend, seed)][1]
        samples = runs[(tier, backend, seed)]
        fresh_evps = max(evps for _, evps in samples)
        delta = (fresh_evps - base_evps) / base_evps
        print(f"{label:<22}{base_evps:>16.0f}{fresh_evps:>16.0f}"
              f"{len(samples):>6}{delta:>+9.1%}{threshold:>8.0%}")
        if delta < -threshold:
            failures.append(label)
        elif delta > 0.5:
            print(f"  note: {label} is >50% faster than baseline — consider "
                  f"refreshing {args.baseline} from the CI artifact")

    known = {(t, b) for t, b, _ in set(base) | fresh}
    unknown = sorted(set(pair_thresholds) - known)
    for tier, backend in unknown:
        print(f"  note: --pair-threshold {tier}:{backend} matched no entry "
              f"in either report")

    if failures:
        print("\nFAIL: events/s regressed beyond the gate on: "
              + ", ".join(failures))
        return 1
    print("\nOK: no (tier, backend) pair regressed beyond its threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

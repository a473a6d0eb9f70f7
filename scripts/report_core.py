#!/usr/bin/env python3
"""Print the deterministic core of a swarmlab.batch report.

Strips the fields that legitimately vary between runs of the same sweep
— ``host``, ``jobs``, ``wall_seconds`` and every per-result ``wall``
object — and prints the rest as stable, sorted-key JSON. Two runs of the
same (jobs, master seed) sweep must produce byte-identical output here
for any worker count, and an interrupted-then-resumed sweep must match
its uninterrupted twin; CI's resilience job diffs exactly this view.
The perf counters (``scheduled``, ``cancelled``, ``peak_pending``,
``fastpath``, ``train_segments``) are deterministic and therefore part
of the core — a coalescing or event-dispatch behaviour change shows up
as a diff here, not just as a throughput delta. The schema-v7 per-result
``telemetry`` object (observation scope, SwarmProbe metrics snapshot,
trace accounting) is likewise deterministic — every value is derived
from observer callbacks on the simulated trajectory, never from wall
clocks — and stays in the core: a passivity bug that perturbs
observation shows up as a diff here.

This is the Python twin of runner::deterministic_view() (see
src/runner/batch_runner.h), usable on archived artifacts without a
build tree.

Usage:
    report_core.py REPORT.json            # print core to stdout
    report_core.py A.json B.json          # exit 1 if cores differ
"""
import json
import sys


def load(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except FileNotFoundError:
        sys.exit(f"error: report {path!r} does not exist")
    except OSError as e:
        sys.exit(f"error: cannot read {path!r}: {e.strerror}")
    except json.JSONDecodeError as e:
        sys.exit(
            f"error: {path!r} is not valid JSON "
            f"(line {e.lineno}, column {e.colno}: {e.msg})"
        )
    if not isinstance(report, dict):
        sys.exit(
            f"error: {path!r} holds a JSON {type(report).__name__}, "
            f"expected a swarmlab.batch object"
        )
    return report


def core(report):
    out = {k: v for k, v in report.items()
           if k not in ("host", "jobs", "wall_seconds")}
    results = out.get("results")
    if isinstance(results, list):
        out["results"] = [
            {k: v for k, v in entry.items() if k != "wall"}
            if isinstance(entry, dict) else entry
            for entry in results
        ]
    return out


def dumps(report):
    return json.dumps(core(report), indent=2, sort_keys=True)


def main(argv):
    if len(argv) == 2:
        print(dumps(load(argv[1])))
        return 0
    if len(argv) == 3:
        a, b = dumps(load(argv[1])), dumps(load(argv[2]))
        if a != b:
            import difflib
            for line in difflib.unified_diff(
                    a.splitlines(), b.splitlines(),
                    fromfile=argv[1], tofile=argv[2], lineterm=""):
                print(line)
            print(f"\nFAIL: deterministic cores of {argv[1]} and {argv[2]} "
                  f"differ")
            return 1
        print(f"OK: deterministic cores of {argv[1]} and {argv[2]} are "
              f"identical")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Validate swarmlab observability artifacts.

Two kinds of artifact, checkable together in one invocation:

* JSONL event traces (``swarmlab.trace/1``, written by ``--trace`` /
  ``ObservationPlan::trace_path``): header line carries the schema,
  every event line carries ``t``/``kind``/``remote``/``detail`` with
  non-decreasing ``t``, and the trailer's ``events``/``dropped``
  counts must agree with the lines actually present.
* Batch reports (``--report REPORT.json``, schema ``swarmlab.batch/8``):
  every result must carry a ``telemetry`` object with a valid
  ``scope``; swarm scopes must include the SwarmProbe ``metrics``
  snapshot (counters/gauges/histograms/series with well-formed
  histogram buckets and ``[t, v]`` series samples), and any ``trace``
  block must be internally consistent.

Exit 0 when every artifact validates, 1 otherwise (all problems are
listed, not just the first).

Usage:
    check_trace.py TRACE.jsonl [TRACE2.jsonl ...]
    check_trace.py --report REPORT.json [TRACE.jsonl ...]
"""
import json
import sys

TRACE_SCHEMA = "swarmlab.trace/1"
REPORT_SCHEMA = "swarmlab.batch/8"
SCOPES = ("local", "sampled", "all")


def fail(errors, path, msg):
    errors.append(f"{path}: {msg}")


def check_trace(path, errors):
    """Validates one swarmlab.trace/1 JSONL file."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(errors, path, f"cannot read: {e.strerror}")
        return
    if len(lines) < 2:
        fail(errors, path, f"expected header + trailer, got {len(lines)} "
             f"line(s)")
        return
    rows = []
    for i, line in enumerate(lines, 1):
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as e:
            fail(errors, path, f"line {i}: invalid JSON ({e.msg})")
            return
    header, events, trailer = rows[0], rows[1:-1], rows[-1]
    if header.get("schema") != TRACE_SCHEMA:
        fail(errors, path, f"header schema {header.get('schema')!r}, "
             f"expected {TRACE_SCHEMA!r}")
    last_t = None
    for i, ev in enumerate(events, 2):
        where = f"line {i}"
        if not isinstance(ev, dict):
            fail(errors, path, f"{where}: event is not an object")
            continue
        missing = [k for k in ("t", "kind", "remote", "detail")
                   if k not in ev]
        if missing:
            fail(errors, path, f"{where}: missing {', '.join(missing)}")
            continue
        t = ev["t"]
        if not isinstance(t, (int, float)) or isinstance(t, bool):
            fail(errors, path, f"{where}: t is not a number")
            continue
        if last_t is not None and t < last_t:
            fail(errors, path, f"{where}: t={t} goes backwards "
                 f"(previous {last_t})")
        last_t = t
        if not isinstance(ev["kind"], str) or not ev["kind"]:
            fail(errors, path, f"{where}: kind must be a non-empty string")
        if not isinstance(ev["remote"], int) or isinstance(ev["remote"],
                                                           bool):
            fail(errors, path, f"{where}: remote must be an integer")
        if not isinstance(ev["detail"], str):
            fail(errors, path, f"{where}: detail must be a string")
    if not isinstance(trailer, dict) or "events" not in trailer:
        fail(errors, path, "missing trailer {\"events\": ..., "
             "\"dropped\": ...}")
        return
    if trailer.get("events") != len(events):
        fail(errors, path, f"trailer claims {trailer.get('events')} "
             f"events, file holds {len(events)}")
    dropped = trailer.get("dropped")
    if not isinstance(dropped, int) or isinstance(dropped, bool) \
            or dropped < 0:
        fail(errors, path, f"trailer dropped={dropped!r} is not a "
             f"non-negative integer")


def check_metrics(where, metrics, errors, path):
    for group in ("counters", "gauges", "histograms", "series"):
        if not isinstance(metrics.get(group), dict):
            fail(errors, path, f"{where}: metrics.{group} missing or not "
                 f"an object")
    for name, value in metrics.get("counters", {}).items():
        if not isinstance(value, (int, float)) or value < 0:
            fail(errors, path, f"{where}: counter {name!r} = {value!r}")
    for name, h in metrics.get("histograms", {}).items():
        if not isinstance(h, dict):
            fail(errors, path, f"{where}: histogram {name!r} not an object")
            continue
        bounds, counts = h.get("bounds"), h.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list) \
                or len(counts) != len(bounds) + 1:
            fail(errors, path, f"{where}: histogram {name!r} needs "
                 f"len(counts) == len(bounds)+1")
            continue
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            fail(errors, path, f"{where}: histogram {name!r} bounds not "
                 f"strictly increasing")
        if h.get("count") != sum(counts):
            fail(errors, path, f"{where}: histogram {name!r} count "
                 f"{h.get('count')} != sum(counts) {sum(counts)}")
    for name, s in metrics.get("series", {}).items():
        if not isinstance(s, dict) or not isinstance(s.get("samples"),
                                                     list):
            fail(errors, path, f"{where}: series {name!r} needs a samples "
                 f"array")
            continue
        last_t = None
        for j, pair in enumerate(s["samples"]):
            if not isinstance(pair, list) or len(pair) != 2:
                fail(errors, path, f"{where}: series {name!r} sample {j} "
                     f"is not a [t, v] pair")
                break
            if last_t is not None and pair[0] < last_t:
                fail(errors, path, f"{where}: series {name!r} time goes "
                     f"backwards at sample {j}")
            last_t = pair[0]


def check_report(path, errors):
    """Validates the telemetry blocks of one swarmlab.batch/8 report."""
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as e:
        fail(errors, path, f"cannot read: {e.strerror}")
        return
    except json.JSONDecodeError as e:
        fail(errors, path, f"invalid JSON ({e.msg})")
        return
    if report.get("schema") != REPORT_SCHEMA:
        fail(errors, path, f"schema {report.get('schema')!r}, expected "
             f"{REPORT_SCHEMA!r}")
        return
    results = report.get("results")
    if not isinstance(results, list) or not results:
        fail(errors, path, "report has no results")
        return
    for entry in results:
        where = f"result id={entry.get('id')}"
        telemetry = entry.get("telemetry")
        if not isinstance(telemetry, dict):
            fail(errors, path, f"{where}: missing telemetry object "
                 f"(schema v7 and later require one per result)")
            continue
        scope = telemetry.get("scope")
        if scope not in SCOPES:
            fail(errors, path, f"{where}: telemetry scope {scope!r} not in "
                 f"{SCOPES}")
            continue
        if scope == "sampled" and not isinstance(telemetry.get("sample_k"),
                                                 int):
            fail(errors, path, f"{where}: sampled scope without sample_k")
        if scope != "local":
            metrics = telemetry.get("metrics")
            if not isinstance(metrics, dict):
                fail(errors, path, f"{where}: scope {scope!r} without a "
                     f"metrics snapshot")
            else:
                check_metrics(where, metrics, errors, path)
        trace = telemetry.get("trace")
        if trace is not None:
            if trace.get("format") not in ("csv", "jsonl"):
                fail(errors, path, f"{where}: trace format "
                     f"{trace.get('format')!r}")
            for key in ("events", "dropped"):
                v = trace.get(key)
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    fail(errors, path, f"{where}: trace {key}={v!r}")
            if trace.get("write_error"):
                fail(errors, path, f"{where}: trace file write failed "
                     f"(path {trace.get('path')!r})")


def main(argv):
    args = argv[1:]
    report = None
    if args and args[0] == "--report":
        if len(args) < 2:
            print(__doc__, file=sys.stderr)
            return 2
        report, args = args[1], args[2:]
    if report is None and not args:
        print(__doc__, file=sys.stderr)
        return 2
    errors = []
    checked = 0
    if report is not None:
        check_report(report, errors)
        checked += 1
    for path in args:
        check_trace(path, errors)
        checked += 1
    for e in errors:
        print(f"FAIL {e}")
    if errors:
        print(f"{len(errors)} problem(s) across {checked} artifact(s)")
        return 1
    print(f"OK: {checked} artifact(s) validated")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Summarize / validate a Chrome trace-event JSON file (argo --trace).

Usage:
    trace_summary.py TRACE.json                    # human-readable summary
    trace_summary.py --validate [--require-category CAT]...
                     [--metrics EVAL.json] TRACE.json
    trace_summary.py --self-test

Summary mode prints the top spans by duration, per-category and
per-toolchain-stage totals, cache-outcome counts, and graph utilization:
graph-node busy time / (executor threads x graph wall time), where the
executors are the threads that ran graph nodes and the graph wall time
runs from the first node's start to the last node's end.

--validate checks the file is a well-formed trace (required fields,
numeric timestamps, and per-thread span nesting: spans on one (pid,tid)
must be properly nested, never partially overlapping), exits 1 on the
first structural problem. --require-category CAT additionally demands at
least one event of that category (repeatable). --metrics EVAL.json
cross-checks the cache spans' hit/miss/inflight_wait attribution against
the `metrics` block of an argo_eval --timings report recorded in the
same run — the two are produced by independent code paths, so agreement
is a real end-to-end check (see docs/OBSERVABILITY.md).

Exit 0 on success, 1 on a malformed or invalid trace / failed check,
2 on usage.
"""

import json
import sys

# Span timestamps are nanoseconds rendered as microseconds with three
# decimals (exact), but containment is checked in floats — allow a
# two-nanosecond slack so rounding can never produce a false overlap.
EPS_US = 0.002

CACHE_OUTCOMES = {"hit": "hits", "miss": "misses",
                  "inflight_wait": "inflight_waits"}


def load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"trace_summary: cannot read {what} {path}: {err}")


def events_of(trace):
    if not isinstance(trace, dict) or not isinstance(
            trace.get("traceEvents"), list):
        return None
    return trace["traceEvents"]


def validate(trace, require_categories=()):
    """Return a list of problem strings (empty = valid)."""
    events = events_of(trace)
    if events is None:
        return ["not a trace object (missing 'traceEvents' list)"]
    problems = []
    spans = {}  # (pid, tid) -> [(ts, dur, name)]
    seen_categories = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i"):
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        for key, types in (("cat", str), ("name", str), ("pid", int),
                           ("tid", int)):
            if not isinstance(ev.get(key), types):
                problems.append(f"event {i}: missing/invalid {key!r}")
        if not isinstance(ev.get("ts"), (int, float)) or ev.get("ts", -1) < 0:
            problems.append(f"event {i}: missing/invalid 'ts'")
            continue
        if ph == "X":
            if (not isinstance(ev.get("dur"), (int, float))
                    or ev.get("dur", -1) < 0):
                problems.append(f"event {i}: complete event without 'dur'")
                continue
            key = (ev.get("pid"), ev.get("tid"))
            spans.setdefault(key, []).append(
                (ev["ts"], ev["dur"], ev.get("name")))
        seen_categories.add(ev.get("cat"))
    if problems:
        return problems

    # Per-thread nesting: sorted by (start, -duration), every span must
    # either start after the enclosing span ends or end inside it.
    for (pid, tid), items in sorted(spans.items()):
        stack = []  # end timestamps of currently open spans
        for ts, dur, name in sorted(items, key=lambda s: (s[0], -s[1])):
            while stack and ts >= stack[-1][0] - EPS_US:
                stack.pop()
            end = ts + dur
            if stack and end > stack[-1][0] + EPS_US:
                problems.append(
                    f"tid {tid}: span {name!r} [{ts}, {end}] overlaps "
                    f"enclosing span {stack[-1][1]!r} ending {stack[-1][0]}")
                break
            stack.append((end, name))
    for category in require_categories:
        if category not in seen_categories:
            problems.append(f"no event of required category {category!r}")
    return problems


def cache_outcome_counts(trace):
    """(stage, hits|misses|inflight_waits) -> span count, from cache spans."""
    counts = {}
    for ev in events_of(trace) or []:
        if ev.get("cat") != "cache" or ev.get("ph") != "X":
            continue
        outcome = CACHE_OUTCOMES.get((ev.get("args") or {}).get("cache"))
        if outcome is None:
            continue
        key = (ev.get("name"), outcome)
        counts[key] = counts.get(key, 0) + 1
    return counts


def cross_check_metrics(trace, eval_report):
    """Compare cache span attribution against an eval `metrics` block."""
    metrics = (eval_report.get("summary") or {}).get("metrics")
    if not isinstance(metrics, dict):
        return ["eval report has no summary.metrics block "
                "(recorded without --timings?)"]
    counts = cache_outcome_counts(trace)
    problems = []
    checked = 0
    for name, value in sorted(metrics.items()):
        parts = name.split(".")
        if len(parts) != 3 or parts[0] != "cache":
            continue
        checked += 1
        spans = counts.get((parts[1], parts[2]), 0)
        if spans != value:
            problems.append(f"metrics {name} = {value} but trace has "
                            f"{spans} matching cache span(s)")
    if checked == 0:
        problems.append("eval metrics block has no cache.* counters")
    return problems


def graph_utilization(spans):
    """(utilization, executors, busy_us, wall_us) over the graph-node
    spans, or None without any."""
    nodes = [ev for ev in spans if ev.get("cat") == "graph"]
    if not nodes:
        return None
    begin = min(ev["ts"] for ev in nodes)
    wall = max(ev["ts"] + ev["dur"] for ev in nodes) - begin
    busy = sum(ev["dur"] for ev in nodes)
    executors = len({ev.get("tid") for ev in nodes})
    utilization = busy / (wall * executors) if wall > 0 else 0.0
    return utilization, executors, busy, wall


def summarize(trace, out=sys.stdout, top=10):
    events = events_of(trace) or []
    spans = [ev for ev in events if ev.get("ph") == "X"]
    begin = min((ev["ts"] for ev in events), default=0.0)
    end = max((ev["ts"] + ev.get("dur", 0.0) for ev in events), default=0.0)
    wall_us = end - begin
    print(f"trace: {len(events)} events, {len(spans)} spans, "
          f"wall {wall_us / 1000.0:.3f} ms, "
          f"{len({ev.get('tid') for ev in events})} thread(s)", file=out)

    def total_table(title, totals):
        print(f"\n{title:<28} {'count':>7} {'total_ms':>10} {'max_ms':>9}",
              file=out)
        for name, (count, total, longest) in sorted(
                totals.items(), key=lambda kv: -kv[1][1]):
            print(f"{name:<28} {count:>7} {total / 1000.0:>10.3f} "
                  f"{longest / 1000.0:>9.3f}", file=out)

    by_category = {}
    by_stage = {}
    for ev in spans:
        for table, key in ((by_category, ev.get("cat")),
                           (by_stage, ev.get("name"))):
            if table is by_stage and ev.get("cat") != "toolchain":
                continue
            count, total, longest = table.get(key, (0, 0.0, 0.0))
            table[key] = (count + 1, total + ev["dur"],
                          max(longest, ev["dur"]))
    total_table("category", by_category)
    if by_stage:
        total_table("toolchain stage", by_stage)

    outcomes = cache_outcome_counts(trace)
    if outcomes:
        print("\ncache outcomes:", file=out)
        for (stage, outcome), count in sorted(outcomes.items()):
            print(f"  cache.{stage}.{outcome} = {count}", file=out)

    graph = graph_utilization(spans)
    if graph is not None:
        utilization, executors, busy, wall = graph
        print(f"\ngraph utilization: {utilization:.3f} ({executors} "
              f"executor(s), busy {busy / 1000.0:.3f} ms of "
              f"{wall / 1000.0:.3f} ms wall)", file=out)

    print(f"\ntop {min(top, len(spans))} spans by duration:", file=out)
    for ev in sorted(spans, key=lambda s: -s["dur"])[:top]:
        print(f"  {ev['dur'] / 1000.0:>9.3f} ms  tid {ev.get('tid'):>3}  "
              f"{ev.get('cat')}/{ev.get('name')}", file=out)


def _span(cat, name, tid, ts, dur, args=None):
    ev = {"ph": "X", "pid": 1, "tid": tid, "ts": float(ts),
          "dur": float(dur), "cat": cat, "name": name}
    if args:
        ev["args"] = args
    return ev


def _valid_fixture():
    return {"traceEvents": [
        _span("graph", "scenario/0", 0, 0.0, 100.0),
        _span("toolchain", "transforms", 0, 10.0, 20.0),
        _span("cache", "transforms", 0, 12.0, 5.0, {"cache": "miss"}),
        _span("toolchain", "code_level_wcet", 0, 40.0, 30.0),
        _span("cache", "seqwcet", 0, 41.0, 2.0, {"cache": "hit"}),
        _span("graph", "toolchain/0/heft", 1, 5.0, 50.0),
        _span("cache", "transforms", 1, 6.0, 4.0, {"cache": "hit"}),
        {"ph": "i", "pid": 1, "tid": 1, "ts": 8.0, "s": "t",
         "cat": "disk", "name": "reject"},
    ], "displayTimeUnit": "ms"}


def _metrics_fixture():
    return {"summary": {"metrics": {
        "cache.transforms.hits": 1, "cache.transforms.misses": 1,
        "cache.transforms.inflight_waits": 0,
        "cache.seqwcet.hits": 1, "cache.seqwcet.misses": 0,
        "cache.seqwcet.inflight_waits": 0,
        "graph.nodes_run": 2,
    }}}


def self_test():
    import io
    fixture = _valid_fixture()
    problems = validate(fixture, require_categories=("toolchain", "cache"))
    if problems:
        raise SystemExit(f"trace_summary --self-test: valid fixture "
                         f"rejected: {problems}")

    # Summary must surface the categories, cache outcomes and the graph
    # utilization: 150 us of node time over 2 executors x 100 us.
    out = io.StringIO()
    summarize(fixture, out=out)
    text = out.getvalue()
    for needle in ("8 events, 7 spans", "toolchain", "transforms",
                   "cache.transforms.hits = 1", "cache.seqwcet.hits = 1",
                   "graph utilization: 0.750 (2 executor(s), busy 0.150 ms "
                   "of 0.100 ms wall)", "graph/scenario/0"):
        if needle not in text:
            raise SystemExit(
                f"trace_summary --self-test: missing {needle!r} in:\n{text}")

    # Partial overlap on one thread must fail validation; the same two
    # spans on different threads are fine.
    overlap = {"traceEvents": [_span("a", "x", 0, 0.0, 10.0),
                               _span("a", "y", 0, 5.0, 10.0)]}
    if not validate(overlap):
        raise SystemExit("trace_summary --self-test: overlapping spans "
                         "passed validation")
    threaded = {"traceEvents": [_span("a", "x", 0, 0.0, 10.0),
                                _span("a", "y", 1, 5.0, 10.0)]}
    if validate(threaded):
        raise SystemExit("trace_summary --self-test: cross-thread spans "
                         "flagged as overlapping")

    # Structural problems: missing dur, bad phase, not a trace at all.
    for broken in ({"traceEvents": [{"ph": "X", "pid": 1, "tid": 0,
                                     "ts": 0.0, "cat": "a", "name": "x"}]},
                   {"traceEvents": [{"ph": "Z"}]},
                   {"events": []},
                   []):
        if not validate(broken):
            raise SystemExit(f"trace_summary --self-test: malformed trace "
                             f"passed validation: {broken!r}")

    # Required-category miss.
    if not validate(fixture, require_categories=("sim",)):
        raise SystemExit("trace_summary --self-test: missing required "
                         "category not reported")

    # Metrics cross-check: agreement passes, a skewed counter fails, and
    # a report without the metrics block is rejected outright.
    if cross_check_metrics(fixture, _metrics_fixture()):
        raise SystemExit("trace_summary --self-test: matching metrics "
                         "flagged as mismatch")
    skewed = _metrics_fixture()
    skewed["summary"]["metrics"]["cache.transforms.hits"] = 7
    problems = cross_check_metrics(fixture, skewed)
    if not problems or "cache.transforms.hits" not in problems[0]:
        raise SystemExit(f"trace_summary --self-test: skewed metrics not "
                         f"caught: {problems}")
    if not cross_check_metrics(fixture, {"summary": {}}):
        raise SystemExit("trace_summary --self-test: absent metrics block "
                         "not reported")
    print("trace_summary self-test ok")


def main(argv):
    do_validate = False
    require = []
    metrics_path = None
    top = 10
    paths = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--self-test":
            self_test()
            return 0
        if arg == "--validate":
            do_validate = True
        elif arg == "--require-category":
            i += 1
            if i >= len(argv):
                break
            require.append(argv[i])
        elif arg == "--metrics":
            i += 1
            if i >= len(argv):
                break
            metrics_path = argv[i]
        elif arg == "--top":
            i += 1
            if i >= len(argv):
                break
            top = int(argv[i])
        else:
            paths.append(arg)
        i += 1
    if len(paths) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    trace = load_json(paths[0], "trace")
    if do_validate or require or metrics_path:
        problems = validate(trace, require_categories=require)
        if not problems and metrics_path:
            problems = cross_check_metrics(
                trace, load_json(metrics_path, "eval report"))
        if problems:
            for problem in problems:
                print(f"trace_summary: {paths[0]}: {problem}",
                      file=sys.stderr)
            return 1
        events = events_of(trace)
        print(f"trace OK: {len(events)} events"
              + (f", metrics cross-check OK" if metrics_path else ""))
        return 0
    summarize(trace, top=top)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Diff two BENCH_eval JSON reports (tools/argo_eval) PR-over-PR.

Usage:
    bench_diff.py OLD.json NEW.json
    bench_diff.py --self-test

Prints a per-policy delta table — strict wins, shared-best cells, mean
tightness, mean bound speedup, and (when both reports carry --timings)
wall time — plus the mean per-row bound delta over the rows the two
reports share (matched by (scenario, platform, policy)), and lists every
matched row whose bound or schedule label moved, with a better / worse /
label-only tally. Each report's wall times are one run, so the
`wall_ms` column and `total_wall_ms` are labelled single samples: a
speed call needs repeated, alternating runs (perfbench/README.md).
Purely informational: exit 0 on success,
1 on malformed input, 2 on usage. CI runs this against the previous
run's BENCH_eval artifact to expose the bound/wall-time trajectory of
every PR (see .github/workflows/ci.yml and docs/SCENARIOS.md).
"""

import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"bench_diff: cannot read {path}: {err}")
    for key in ("rows", "summary", "policies"):
        if key not in report:
            raise SystemExit(f"bench_diff: {path} is not a BENCH_eval report "
                             f"(missing '{key}')")
    return report


def fmt_delta(old, new, percent=True):
    """'old -> new (+x%)' with a stable fixed format."""
    if old is None or new is None:
        return "n/a"
    if isinstance(old, float) or isinstance(new, float):
        text = f"{old:.4f} -> {new:.4f}"
    else:
        text = f"{old} -> {new}"
    if percent and old:
        text += f" ({100.0 * (new - old) / old:+.1f}%)"
    return text


def per_policy_summary(report):
    return {entry["policy"]: entry
            for entry in report["summary"].get("per_policy", [])}


def row_key(row):
    return (row.get("scenario"), row.get("platform"), row.get("policy"))


def print_changed_rows(old_rows, new_rows, out):
    """Every matched row whose bound or schedule label moved, in the new
    report's order, then a better / worse / label-only tally."""
    better = worse = label_only = 0
    for row in new_rows:
        prev = old_rows.get(row_key(row))
        if prev is None:
            continue
        old_bound, new_bound = prev.get("bound"), row.get("bound")
        if (old_bound == new_bound and
                prev.get("schedule") == row.get("schedule")):
            continue
        if old_bound == new_bound:
            label_only += 1
        elif new_bound < old_bound:
            better += 1
        else:
            worse += 1
        text = (f"{prev.get('schedule')} {old_bound} -> "
                f"{row.get('schedule')} {new_bound}")
        if old_bound:
            text += f" ({100.0 * (new_bound - old_bound) / old_bound:+.1f}%)"
        print(f"  {row.get('scenario')} {row.get('platform')} "
              f"{row.get('policy')}: {text}", file=out)
    print(f"changed rows: {better} better, {worse} worse, "
          f"{label_only} label-only", file=out)


def diff(old, new, out=sys.stdout):
    old_sum = per_policy_summary(old)
    new_sum = per_policy_summary(new)
    policies = [p for p in new["policies"]]
    for p in old["policies"]:
        if p not in policies:
            policies.append(p)

    # Mean per-row bound/observed delta over the shared row set.
    old_rows = {row_key(r): r for r in old["rows"]}
    matched = 0
    bound_ratios = {}
    for row in new["rows"]:
        prev = old_rows.get(row_key(row))
        if prev is None or not prev.get("bound"):
            continue
        matched += 1
        bound_ratios.setdefault(row["policy"], []).append(
            (row["bound"] - prev["bound"]) / prev["bound"])

    print(f"BENCH_eval diff: {len(old['rows'])} old rows, "
          f"{len(new['rows'])} new rows, {matched} matched "
          f"(seed {old.get('seed')} -> {new.get('seed')})", file=out)
    # Cross-product header fields (PR 8+ schema): absent in older
    # reports, which implicitly ran modulo mode. Surface a mode change —
    # it redefines the row population, so a shrinking 'matched' count
    # above is then expected rather than a regression.
    if "sweep_mode" in old or "sweep_mode" in new:
        print(f"sweep_mode: {old.get('sweep_mode', 'modulo')} -> "
              f"{new.get('sweep_mode', 'modulo')}, platform_cases: "
              f"{old.get('platform_cases', 'n/a')} -> "
              f"{new.get('platform_cases', 'n/a')}", file=out)
    header = (f"{'policy':<22} {'wins':<16} {'shared_best':<16} "
              f"{'mean_tightness':<28} {'mean_bound_speedup':<28} "
              f"{'mean_bound_delta':<16} wall_ms (single sample)")
    print(header, file=out)
    print("-" * len(header), file=out)
    for policy in policies:
        o = old_sum.get(policy, {})
        n = new_sum.get(policy, {})
        ratios = bound_ratios.get(policy)
        bound_delta = (f"{100.0 * sum(ratios) / len(ratios):+.2f}%"
                       if ratios else "n/a")
        wall = fmt_delta(o.get("wall_ms"), n.get("wall_ms"))
        print(f"{policy:<22} "
              f"{fmt_delta(o.get('wins'), n.get('wins'), percent=False):<16} "
              f"{fmt_delta(o.get('shared_best'), n.get('shared_best'), percent=False):<16} "
              f"{fmt_delta(o.get('mean_tightness'), n.get('mean_tightness')):<28} "
              f"{fmt_delta(o.get('mean_bound_speedup'), n.get('mean_bound_speedup')):<28} "
              f"{bound_delta:<16} {wall}", file=out)
    print_changed_rows(old_rows, new["rows"], out)

    old_safe = old["summary"].get("all_sim_safe")
    new_safe = new["summary"].get("all_sim_safe")
    print(f"all_sim_safe: {old_safe} -> {new_safe}", file=out)
    total = fmt_delta(old["summary"].get("total_wall_ms"),
                      new["summary"].get("total_wall_ms"))
    if total != "n/a":
        print(f"total_wall_ms (single sample): {total}", file=out)
    # Unified metrics block (--timings only): the counter
    # registry snapshot plus the batch cache's counters
    # (docs/OBSERVABILITY.md). Informational — many counters are
    # scheduling-dependent (hit/wait splits), so only deterministic sums
    # are comparable run to run, and of the cache counters only the
    # per-stage hit *rate* trajectory is worth reading.
    old_metrics = old["summary"].get("metrics") or {}
    new_metrics = new["summary"].get("metrics") or {}
    old_cache, old_disk = cache_counters(old_metrics)
    new_cache, new_disk = cache_counters(new_metrics)

    def hit_rate(stats):
        if not stats:
            return "n/a"
        lookups = (stats.get("hits", 0) + stats.get("misses", 0) +
                   stats.get("inflight_waits", 0))
        return f"{stats.get('hits', 0) / lookups:.4f}" if lookups else "n/a"

    def disk_line(stats):
        if not stats:
            return "n/a"
        return (f"hits={stats.get('hits', 0)} "
                f"rejects={stats.get('rejects', 0)} "
                f"stores={stats.get('stores', 0)}")

    for stage in sorted(set(old_cache) | set(new_cache)):
        print(f"cache_hit_rate[{stage}]: {hit_rate(old_cache.get(stage))} "
              f"-> {hit_rate(new_cache.get(stage))}", file=out)
    if old_disk or new_disk:
        # The on-disk tier: a nonzero reject count is the health
        # signal worth reading.
        print(f"disk_cache: {disk_line(old_disk)} -> {disk_line(new_disk)}",
              file=out)
    for name in sorted(set(old_metrics) | set(new_metrics)):
        print(f"metrics[{name}]: "
              f"{fmt_delta(old_metrics.get(name), new_metrics.get(name), percent=False)}",
              file=out)


def cache_counters(metrics):
    """The batch cache's counters in a `metrics` block: per stage
    {hits, misses, inflight_waits} from cache.<stage>.<counter>, and the
    disk tier's {hits, misses, rejects, stores, store_failures} from
    disk.<counter>."""
    stages = {}
    disk = {}
    for name, value in metrics.items():
        parts = name.split(".")
        if len(parts) == 3 and parts[0] == "cache":
            stages.setdefault(parts[1], {})[parts[2]] = value
        elif len(parts) == 2 and parts[0] == "disk":
            disk[parts[1]] = value
    return stages, disk


def _fixture(bound, tightness, wall):
    return {
        "bench": "argo_eval", "seed": 7,
        "policies": ["heft", "annealed"],
        "rows": [
            {"scenario": "scn000", "platform": "bus_rr_c2", "policy": "heft",
             "bound": bound, "tightness": tightness},
            {"scenario": "scn000", "platform": "bus_rr_c2",
             "policy": "annealed", "bound": bound + 50, "tightness": 0.5},
        ],
        "summary": {
            "per_policy": [
                {"policy": "heft", "wins": 1, "mean_tightness": tightness,
                 "mean_bound_speedup": 2.0, "wall_ms": wall},
                {"policy": "annealed", "wins": 0, "mean_tightness": 0.5,
                 "mean_bound_speedup": 1.8, "wall_ms": wall * 2},
            ],
            "all_sim_safe": True,
            "total_wall_ms": wall * 3,
        },
    }


def _changed_fixture(bnb_label, bnb_bound, annealed_label):
    """The current schema (schedule labels, shared_best) plus a
    branch_and_bound row, for the changed-rows section."""
    report = _fixture(1000, 0.8, 10.0)
    report["policies"].append("branch_and_bound")
    report["rows"][0]["schedule"] = "heft"
    report["rows"][1]["schedule"] = annealed_label
    report["rows"].append(
        {"scenario": "scn018", "platform": "bus_rr_c2",
         "policy": "branch_and_bound", "schedule": bnb_label,
         "bound": bnb_bound, "tightness": 0.7})
    for entry in report["summary"]["per_policy"]:
        entry["shared_best"] = 0
    return report


def _cross_fixture(bound, tightness, wall):
    """A --timings report of the cross-product schema: the sweep header
    plus a `metrics` block with registry and stage-cache counters."""
    report = _fixture(bound, tightness, wall)
    report["sweep_mode"] = "cross"
    report["platform_cases"] = 9
    report["summary"]["metrics"] = {
        "cache.transforms.hits": 30, "cache.transforms.misses": 10,
        "cache.transforms.inflight_waits": 0,
        "cache.schedule.hits": 0, "cache.schedule.misses": 40,
        "cache.schedule.inflight_waits": 0,
        "graph.nodes_run": 12,
    }
    return report


def _disk_fixture(bound, tightness, wall):
    """The same with a disk tier: its counters join the metrics block."""
    report = _cross_fixture(bound, tightness, wall)
    report["summary"]["metrics"].update({
        "disk.hits": 40, "disk.misses": 8, "disk.rejects": 0,
        "disk.stores": 8, "disk.store_failures": 0,
    })
    return report


def self_test():
    import io
    out = io.StringIO()
    diff(_fixture(1000, 0.8, 10.0), _fixture(900, 0.85, 12.0), out=out)
    text = out.getvalue()
    for needle in ("heft", "annealed", "1 -> 1", "0.8000 -> 0.8500",
                   "-10.00%", "all_sim_safe: True -> True",
                   "wall_ms (single sample)",
                   "10.0000 -> 12.0000 (+20.0%)",
                   "total_wall_ms (single sample): 30.0000 -> 36.0000 "
                   "(+20.0%)"):
        if needle not in text:
            raise SystemExit(
                f"bench_diff --self-test: missing {needle!r} in:\n{text}")
    # Cross-product and metrics lines only when a side carries them.
    for absent in ("sweep_mode", "cache_hit_rate", "disk_cache", "metrics["):
        if absent in text:
            raise SystemExit(
                f"bench_diff --self-test: unexpected {absent!r} in:\n{text}")

    # Mixed schemas: a report without --timings or the cross header
    # diffed against a cross-product --timings one must not crash, and
    # must surface the mode change, the hit rates derived from the
    # cache.<stage>.* metrics, and every metric.
    out = io.StringIO()
    diff(_fixture(1000, 0.8, 10.0), _cross_fixture(900, 0.85, 12.0), out=out)
    text = out.getvalue()
    for needle in ("sweep_mode: modulo -> cross",
                   "platform_cases: n/a -> 9",
                   "cache_hit_rate[transforms]: n/a -> 0.7500",
                   "cache_hit_rate[schedule]: n/a -> 0.0000",
                   "metrics[cache.transforms.hits]: n/a",
                   "metrics[graph.nodes_run]: n/a"):
        if needle not in text:
            raise SystemExit(
                f"bench_diff --self-test: missing {needle!r} in:\n{text}")
    if "disk_cache" in text:
        raise SystemExit("bench_diff --self-test: disk line rendered "
                         f"without disk.* metrics in:\n{text}")
    # And the reverse direction (comparing back across the schema change).
    out = io.StringIO()
    diff(_cross_fixture(1000, 0.8, 10.0), _fixture(900, 0.85, 12.0), out=out)
    if "sweep_mode: cross -> modulo" not in out.getvalue():
        raise SystemExit("bench_diff --self-test: reverse-direction "
                         f"sweep_mode line missing in:\n{out.getvalue()}")

    # Disk tier: the disk.* metrics render one counter line (not a bogus
    # hit-rate row), also against a report without them; same-schema
    # metrics render old -> new.
    out = io.StringIO()
    diff(_cross_fixture(1000, 0.8, 10.0), _disk_fixture(900, 0.85, 12.0),
         out=out)
    text = out.getvalue()
    for needle in ("disk_cache: n/a -> hits=40 rejects=0 stores=8",
                   "cache_hit_rate[transforms]: 0.7500 -> 0.7500",
                   "metrics[disk.rejects]: n/a",
                   "metrics[graph.nodes_run]: 12 -> 12"):
        if needle not in text:
            raise SystemExit(
                f"bench_diff --self-test: missing {needle!r} in:\n{text}")
    if "cache_hit_rate[disk]" in text:
        raise SystemExit("bench_diff --self-test: disk tier leaked into "
                         f"cache_hit_rate in:\n{text}")

    # Changed rows: every matched row whose bound or label moved is listed
    # with both labels, unchanged rows are not, and the tally splits
    # better / worse / label-only. shared_best reads n/a against a report
    # without it.
    out = io.StringIO()
    diff(_changed_fixture("branch_and_bound(budget)", 9028, "annealed"),
         _changed_fixture("branch_and_bound", 9674, "annealed(x)"), out=out)
    text = out.getvalue()
    for needle in ("3 matched",
                   "  scn018 bus_rr_c2 branch_and_bound: "
                   "branch_and_bound(budget) 9028 -> branch_and_bound 9674 "
                   "(+7.2%)",
                   "  scn000 bus_rr_c2 annealed: annealed 1050 -> "
                   "annealed(x) 1050 (+0.0%)",
                   "changed rows: 0 better, 1 worse, 1 label-only"):
        if needle not in text:
            raise SystemExit(
                f"bench_diff --self-test: missing {needle!r} in:\n{text}")
    if "scn000 bus_rr_c2 heft:" in text:
        raise SystemExit("bench_diff --self-test: unchanged row listed "
                         f"in:\n{text}")
    heft_line = next(line for line in text.splitlines()
                     if line.startswith("heft "))
    if heft_line.split()[4:7] != ["0", "->", "0"]:
        raise SystemExit("bench_diff --self-test: shared_best column "
                         f"missing in:\n{text}")
    out = io.StringIO()
    diff(_fixture(1000, 0.8, 10.0),
         _changed_fixture("branch_and_bound", 900, "annealed"), out=out)
    text = out.getvalue()
    heft_line = next(line for line in text.splitlines()
                     if line.startswith("heft "))
    if heft_line.split()[4] != "n/a":
        raise SystemExit("bench_diff --self-test: shared_best of an older "
                         f"report must read n/a in:\n{text}")
    print("bench_diff self-test ok")


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        self_test()
        return 0
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    diff(load(argv[1]), load(argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

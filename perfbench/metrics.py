"""Turns the benchmark program's raw measurements into metrics.

The benchmark program (perfbench.cpp) prints one JSON object per run: per-pass wall and
CPU times, one cost sample per point, the speedup of every outcome, the
speed probe's samples (speed.h) and, in a traced run, span totals and
counters. This module holds every piece of arithmetic applied to that
object; test_metrics.py checks it on fixed inputs.
"""

import bisect
import math
import statistics

# Samples that must lie beyond the highest reported percentile.
MIN_BEYOND = 10
# The speed probe's kernel time in ms on the reference machine (the median
# over its runs while this benchmark was designed). End-to-end times are
# reported at the speed at which the kernel takes this long.
KERNEL_REF_MS = 1.3
# The shortest interval whose speed is judged by the samples taken in it;
# a shorter pass or set-up is judged by those within this span around its
# middle.
SPEED_WINDOW_S = 1.0


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a
    fraction q of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile must lie in (0, 1]")
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def tail_percentile(values, q):
    """percentile(values, q), refused unless at least MIN_BEYOND samples
    rank beyond it."""
    beyond = len(values) - math.ceil(q * len(values))
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(values)} samples has only {beyond} beyond it")
    return percentile(values, q)


def slowdowns(at_s, kernel_ms, begins, ends):
    """For each interval [begin, end] in probe seconds: how much slower than
    the reference the CPUs ran in it, the median kernel time of the probe
    samples taken in it over KERNEL_REF_MS. An interval shorter than
    SPEED_WINDOW_S is widened to it around its middle."""
    if len(at_s) != len(kernel_ms) or len(begins) != len(ends):
        raise ValueError("speed samples or intervals do not pair up")
    samples = sorted(zip(at_s, kernel_ms))
    times = [at for at, _ in samples]
    out = []
    for begin, end in zip(begins, ends):
        middle = (begin + end) / 2.0
        low = min(begin, middle - SPEED_WINDOW_S / 2.0)
        high = max(end, middle + SPEED_WINDOW_S / 2.0)
        inside = [ms for _, ms in
                  samples[bisect.bisect_left(times, low):bisect.bisect_right(times, high)]]
        if not inside:
            raise ValueError(f"no speed samples in [{low:.3f}, {high:.3f}] s")
        out.append(statistics.median(inside) / KERNEL_REF_MS)
    return out


def geomean(values):
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive samples")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def failed_frac(failed, attempted):
    if attempted <= 0 or not 0 <= failed <= attempted:
        raise ValueError("need 0 <= failed <= attempted and attempted > 0")
    return failed / attempted


def busy_frac(busy_ms, threads, wall_ms):
    """Share of the executors' capacity spent inside points: summed point
    time over threads x wall time."""
    if threads <= 0 or wall_ms <= 0:
        raise ValueError("need threads > 0 and wall time > 0")
    return busy_ms / (threads * wall_ms)


def e2e_metrics(raw):
    """The end-to-end metrics of an untraced run. Every time is divided by
    the slowdown the speed probe saw while it was taken."""
    speed = (raw["speed_at_s"], raw["speed_kernel_ms"])
    setup_slow = slowdowns(*speed, raw["setup_begin_s"], raw["setup_end_s"])
    pass_slow = slowdowns(*speed, raw["pass_begin_s"], raw["pass_end_s"])
    passes = list(zip(raw["pass_points"], raw["pass_wall_s"], raw["pass_cpu_s"],
                      pass_slow))
    if sum(raw["pass_points"]) != len(raw["point_ms"]):
        raise ValueError("pass sizes do not cover the point samples")
    point_slow = [slow for n, _, _, slow in passes for _ in range(n)]
    point_ms = [ms / slow for ms, slow in zip(raw["point_ms"], point_slow)]
    return {
        "setup_s": statistics.median(
            s / slow for s, slow in zip(raw["setup_s"], setup_slow)),
        "points_per_s": statistics.median(n * slow / wall for n, wall, _, slow in passes),
        "point_ms_p50": percentile(point_ms, 0.5),
        "point_ms_p90": tail_percentile(point_ms, 0.9),
        "cpu_ms_per_point": statistics.median(
            cpu * 1000.0 / (n * slow) for n, _, cpu, slow in passes),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "wcet_speedup_geomean": geomean(raw["speedups"]),
        "passed_frac": 1.0 - failed_frac(raw["failed"], raw["attempted"]),
    }


SCHED_POLICIES = ("heft", "branch_and_bound", "annealed", "contention_oblivious")
WALK_LAYERS = ("wcet.seq", "wcet.task_timings", "htg.build", "htg.expand",
               "par.build", "syswcet.analyze", "transform.passes", "codegen.emit")
CACHE_STAGES = ("transforms", "seqwcet", "expand", "timings", "schedule")
TOOLCHAIN_STAGES = ("transforms", "code_level_wcet", "task_extraction",
                    "schedule_and_system_wcet", "parallel_model")
# The layer walk's spans outside the tool-chain proper.
WALK_NON_TOOLCHAIN = ("walk/sim.step", "walk/codegen.emit")


def layer_metrics(raw):
    """The per-layer metrics of a traced run. Counts and times are per
    pass (one sweep over the workload's points); set-up layers are per
    set-up."""
    passes = raw["traced_passes"]
    spans = raw["spans"]
    counters = raw["counters"]

    def span(key, field="ms"):
        return spans.get(key, {}).get(field, 0.0)

    def counter(name):
        return counters.get(name, 0.0)

    out = {}
    for policy in SCHED_POLICIES:
        key = f"walk/sched.{policy}"
        out[f"sched.{policy}.calls"] = span(key, "calls") / passes
        out[f"sched.{policy}.ms"] = span(key) / passes
    bnb = "walk/sched.branch_and_bound?label=branch_and_bound"
    exact = span(bnb, "calls")
    out["sched.branch_and_bound.exact"] = exact / passes
    out["sched.branch_and_bound.budget"] = span(bnb + "(budget)", "calls") / passes
    out["sched.branch_and_bound.fallback"] = (
        span(bnb + "(fallback=heft)", "calls") / passes)
    bnb_calls = span("walk/sched.branch_and_bound", "calls")
    out["sched.branch_and_bound.exact_frac"] = exact / bnb_calls if bnb_calls else 0.0
    for layer in WALK_LAYERS:
        out[f"{layer}.calls"] = span(f"walk/{layer}", "calls") / passes
        out[f"{layer}.ms"] = span(f"walk/{layer}") / passes
    out["codegen.emit.kb"] = counter("codegen.bytes") / 1024.0 / passes

    # The walk probes with Simulator::step directly; resweep's passes
    # record the program's per-unit simulator batches instead.
    out["sim.step.calls"] = (span("walk/sim.step", "calls")
                             + counter("sim/batch#trials")) / passes
    out["sim.step.ms"] = (span("walk/sim.step") + span("sim/batch")) / passes

    inflight = 0.0
    for stage in CACHE_STAGES:
        hits = counter(f"cache.{stage}.hits")
        misses = counter(f"cache.{stage}.misses")
        waits = counter(f"cache.{stage}.inflight_waits")
        inflight += waits
        out[f"cache.{stage}.hits"] = hits / passes
        out[f"cache.{stage}.misses"] = misses / passes
        lookups = hits + misses + waits
        out[f"cache.{stage}.hit_rate"] = hits / lookups if lookups else 0.0
    out["cache.inflight_waits"] = inflight / passes
    # Schedules the cache had to compute, i.e. Scheduler::run calls behind
    # the cache: memory misses the disk tier did not serve.
    out["cache.schedule.computes"] = (
        counter("cache.schedule.misses")
        - span("disk/load?stage=schedule&disk=hit", "calls")) / passes
    out["cache.ms"] = sum(span(f"cache/{s}", "self_ms") for s in CACHE_STAGES) / passes

    for name in ("hits", "misses", "rejects"):
        out[f"disk.{name}"] = counter(f"disk.{name}") / passes
    # Stores happen only while the cold populate fills the directory.
    out["disk.stores"] = counter("setup:disk.stores")
    out["disk.store_failures"] = counter("setup:disk.store_failures")
    out["disk.mb"] = counter("setup:disk.bytes") / 1e6
    out["disk.load.ms"] = span("disk/load") / passes
    out["disk.store.ms"] = span("setup:disk/store")

    for stage in TOOLCHAIN_STAGES:
        out[f"toolchain.{stage}.ms"] = span(f"toolchain/{stage}", "self_ms") / passes

    out["graph.nodes_run"] = counter("graph.nodes_run") / passes
    out["graph.ready_wait_ms"] = counter("graph.ready_wait_us") / 1000.0 / passes
    out["pool.busy_frac"] = busy_frac(counter("pool.busy_ms"), raw["threads"],
                                      counter("pool.wall_ms"))

    out["scenarios.generate.calls"] = (span("setup:walk/scenarios.generate", "calls")
                                       + span("setup:graph/scenario", "calls"))
    out["scenarios.generate.ms"] = (span("setup:walk/scenarios.generate")
                                    + span("setup:graph/scenario"))
    out["model.compile.calls"] = span("setup:walk/model.compile", "calls")
    out["model.compile.ms"] = span("setup:walk/model.compile")

    # Bases of the shares: the walked tool-chain time, and a point's time
    # as its workload's timed point covers it (apps_compile probes outside
    # the timed point, so its simulator share counts the probe in the base;
    # runEval units include their probes).
    walk_all = sum(v["ms"] for k, v in spans.items()
                   if k.startswith("walk/") and "?" not in k)
    toolchain_ms = walk_all - sum(span(k) for k in WALK_NON_TOOLCHAIN)
    probe_outside = raw["workload"] == "apps_compile"
    if probe_outside:
        point_ms = walk_all - span("walk/sim.step")
    elif raw["workload"] == "resweep":
        point_ms = span("eval/unit") + span("sim/batch")
    else:
        point_ms = walk_all
    out["toolchain.walk_ms"] = toolchain_ms / passes
    out["point.traced_ms"] = point_ms / passes
    search = out["sched.branch_and_bound.ms"] + out["sched.annealed.ms"]
    out["share.sched_search"] = search * passes / toolchain_ms if toolchain_ms else 0.0
    sim_ms = out["sim.step.ms"] * passes
    sim_base = point_ms + (sim_ms if probe_outside else 0.0)
    out["share.sim_step"] = sim_ms / sim_base if sim_base else 0.0
    out["share.timings_emit"] = ((out["wcet.task_timings.ms"] + out["codegen.emit.ms"])
                                 * passes / point_ms if point_ms else 0.0)
    out["walk.units"] = raw["walked_units"] / passes
    out["trace.overhead_frac"] = raw["traced_s"] / raw["untraced_s"] - 1.0
    return out

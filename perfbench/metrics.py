"""Turns the raw measurements of perfbench_harness into metrics.

Pure functions only, so test_metrics.py can check them on hand-built
inputs: the median/percentile rule, the pin checker and span self time.
"""

import math
import statistics

DEFAULT_SEED = 2001

# Highest first; a percentile is reported only with >= MIN_BEYOND samples
# above it, so its value rests on more than a handful of outliers.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10

# (name, unit) of every metric, in print order.
END_TO_END = (
    ("job_s", "s"),
    ("setup_s", "s"),
    ("sim_mips", "MIPS"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
BP_TOKENS = ("bimodal", "bi512", "gshare", "tage", "perceptron")
PER_LAYER = (
    ("driver.prepare_s", "s"),
    ("driver.accuracy_ref_s", "s"),
    ("driver.select_s", "s"),
    ("driver.cache_hit_ratio", "ratio"),
    ("driver.pool_busy_share", "ratio"),
    ("profile.iss_s", "s"),
    ("profile.iss_mips", "MIPS"),
    ("profile.predictions_s", "s"),
    ("sim.pipeline_mcps", "Mcycles/s"),
    ("sim.asbr_pipeline_mcps", "Mcycles/s"),
    ("sim.asbr_cost_ratio", "ratio"),
    ("sim.decode_cache_hit_ratio", "ratio"),
    ("sim.sampled_mips", "MIPS"),
    ("sim.detailed_share", "ratio"),
) + tuple(
    (f"bp.{token}.{name}", unit)
    for token in BP_TOKENS
    for name, unit in (("ns_per_branch", "ns"), ("dir_accuracy", "ratio"))
) + (
    ("asbr.fold_rate", "ratio"),
    ("mem.icache_miss_ratio", "ratio"),
    ("mem.dcache_miss_ratio", "ratio"),
    ("report.emit_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)

PINNED_FIELDS = {
    "cycles": "pipeline.cycles",
    "committed": "pipeline.committed",
    "folded": "pipeline.folded_branches",
    "mispredicts": "pipeline.mispredicts",
}


# --------------------------------------------------------------------------
# Timing summaries


def percentile_rule(samples):
    """Median and the highest percentile with >= MIN_BEYOND samples above
    it (nearest rank), as {"median", "n", "pct", "pct_value"}; pct and
    pct_value are None when too few samples qualify any percentile."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n,
           "pct": None, "pct_value": None}
    for pct in PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= MIN_BEYOND:
            out["pct"] = pct
            out["pct_value"] = ordered[rank - 1]
            break
    return out


def end_to_end(raw):
    """End-to-end metric summaries of an untraced run, by metric name."""
    passes = raw["passes"]
    return {
        "job_s": percentile_rule([p["op_s"] for p in passes]),
        "setup_s": percentile_rule(raw["setup_s"]),
        "sim_mips": percentile_rule(
            [p["instructions"] / p["pass_s"] / 1e6 for p in passes]),
        "jobs_per_s": percentile_rule(
            [p["cells"] / p["op_s"] for p in passes]),
        "peak_rss_mb": percentile_rule([raw["peak_rss_kb"] / 1024.0]),
    }


# --------------------------------------------------------------------------
# Correctness


def executed_instructions(counters):
    return (counters["pipeline.committed"]
            + counters["pipeline.folded_branches"]
            + counters["sim.fast_forward_instructions"])


def cell_errors(cell, seed, pins):
    """Why one simulated cell is wrong (empty list = correct).  Every seed
    checks a clean run and executed == functional-ISS instructions; the
    default seed also checks the cell's pinned statistics."""
    if not cell["ok"]:
        return [f"{cell['key']}: failed: {cell.get('error', '')}"]
    errors = []
    if not cell["valid"]:
        errors.append(f"{cell['key']}: report fails schema validation")
    executed = executed_instructions(cell["counters"])
    if executed != cell["iss_instructions"]:
        errors.append(f"{cell['key']}: executed {executed} instructions, "
                      f"ISS executed {cell['iss_instructions']}")
    if seed == DEFAULT_SEED:
        pin = pins.get("cells", {}).get(cell["key"])
        if pin is None:
            errors.append(f"{cell['key']}: no pin for the default seed")
        else:
            for field, counter in PINNED_FIELDS.items():
                got = cell["counters"][counter]
                if got != pin[field]:
                    errors.append(f"{cell['key']}: {field} {got} != "
                                  f"pinned {pin[field]}")
    return errors


def replay_errors(replay, seed, pins):
    """A replayed predictor's direction hits must match its pin on the
    default seed, so a faster predictor cannot change its predictions."""
    if seed != DEFAULT_SEED:
        return []
    key = f"{replay['token']}@{replay['stream']}"
    pin = pins.get("replays", {}).get(key)
    if pin is None:
        return [f"replay {key}: no pin for the default seed"]
    got = {"branches": replay["branches"], "correct": replay["correct"]}
    if got != pin:
        return [f"replay {key}: {got} != pinned {pin}"]
    return []


def check(raw, pins):
    """(attempted, errors-per-failed-op) over every op of a run: each
    simulated cell and, in a traced run, each predictor replay."""
    seed = raw["seed"]
    replays = [span.get("attrs", {}) for span in raw.get("spans", [])
               if span["name"] == "bp.replay"]
    failures = [cell_errors(cell, seed, pins) for cell in raw["cells"]]
    failures += [replay_errors(replay, seed, pins) for replay in replays]
    failures = [errors for errors in failures if errors]
    return len(raw["cells"]) + len(replays), failures


# --------------------------------------------------------------------------
# Spans


def duration(span):
    return span["end"] - span["start"]


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span id -> its duration minus the part of its interval that its
    child spans cover (children may overlap: parallel workers)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"]))
    return {
        span["id"]: duration(span) - covered(
            children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }


def per_layer(raw):
    """Per-layer metric values of a traced run, by metric name, plus the
    traced op's self time by span name."""
    spans = raw["spans"]
    for span in spans:
        if "end" not in span:
            raise ValueError(f"span {span['id']} ({span['name']}) never closed")

    def named(name, op=None):
        return [s for s in spans
                if s["name"] == name and (op is None or s["op"] == op)]

    def total(name, op=None):
        return sum(duration(s) for s in named(name, op))

    def attr(span, key):
        return span.get("attrs", {}).get(key, 0)

    root = named("op", 1)[0]
    selfs = self_times(spans)
    runs = named("sim.run_one")

    def mcps(asbr):
        cells = [s for s in runs if attr(s, "asbr") == asbr]
        return (sum(attr(s, "sim_cycles") for s in cells)
                / sum(duration(s) for s in cells) / 1e6)

    def counter_ratio(num, den, cells):
        return (sum(c["counters"][num] for c in cells)
                / sum(c["counters"][den] for c in cells))

    cells = [c for c in raw["cells"] if c["ok"]]
    asbr_cells = [c for c in cells if c["asbr"]]
    passes = named("pass", 1)
    busy = sum(duration(s) for s in runs if s["parent"] == passes[0]["id"])
    workers = attr(passes[0], "workers")
    iss = named("profile.iss", 1)
    untraced = raw["untraced"]["passes"][0]["op_s"]
    metrics = {
        "driver.prepare_s": total("driver.prepare", 1),
        "driver.accuracy_ref_s": total("driver.accuracy_ref", 1),
        "driver.select_s": total("driver.select", 1),
        "driver.cache_hit_ratio": raw["cache"]["hits"]
        / (raw["cache"]["hits"] + raw["cache"]["computes"]),
        "driver.pool_busy_share": busy / (workers * duration(passes[0])),
        "profile.iss_s": total("profile.iss", 1),
        "profile.iss_mips": sum(attr(s, "instructions") for s in iss)
        / total("profile.iss", 1) / 1e6,
        "profile.predictions_s": total("profile.predictions"),
        "sim.pipeline_mcps": mcps(False),
        "sim.asbr_pipeline_mcps": mcps(True),
        "sim.decode_cache_hit_ratio": counter_ratio(
            "sim.decode_cache_hits", "sim.decode_cache_lookups", cells),
        "sim.sampled_mips": sum(attr(s, "instructions") for s in runs)
        / sum(duration(s) for s in runs) / 1e6,
        "sim.detailed_share": 1.0 - sum(
            c["counters"]["sim.fast_forward_instructions"] for c in cells)
        / sum(executed_instructions(c["counters"]) for c in cells),
        "asbr.fold_rate": counter_ratio(
            "pipeline.folded_branches", "pipeline.cond_branches", asbr_cells),
        "mem.icache_miss_ratio": counter_ratio(
            "mem.icache.misses", "mem.icache.accesses", cells),
        "mem.dcache_miss_ratio": counter_ratio(
            "mem.dcache.misses", "mem.dcache.accesses", cells),
        "report.emit_ms": statistics.median(
            duration(s) for s in named("report.emit")) * 1e3,
        "trace.unattributed_share": selfs[root["id"]] / duration(root),
        "trace.overhead_share": (duration(root) - untraced) / untraced,
    }
    metrics["sim.asbr_cost_ratio"] = (metrics["sim.pipeline_mcps"]
                                      / metrics["sim.asbr_pipeline_mcps"])
    for token in BP_TOKENS:
        replays = [s for s in named("bp.replay") if attr(s, "token") == token]
        branches = sum(attr(s, "branches") for s in replays)
        metrics[f"bp.{token}.ns_per_branch"] = (
            sum(duration(s) for s in replays) / branches * 1e9)
        metrics[f"bp.{token}.dir_accuracy"] = (
            sum(attr(s, "correct") for s in replays) / branches)

    # Self time of the traced op by layer span name (parallel spans add up
    # busy time, so the shares of a sweep may sum past 1).
    attribution = {}
    for span in spans:
        if span["op"] != 1:
            continue
        attribution[span["name"]] = (attribution.get(span["name"], 0.0)
                                     + selfs[span["id"]])
    return metrics, {"op_s": duration(root), "untraced_op_s": untraced,
                     "self_s": attribution}

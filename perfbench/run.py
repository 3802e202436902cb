#!/usr/bin/env python3
"""Host-speed benchmark of the ASBR toolchain (see README.md here).

    python3 perfbench/run.py --workload asbr-cold --seed 2001 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all  # untraced and traced, each

Builds perfbench_harness (and the library it links) under .bench_build/,
runs it, checks every simulated statistic, prints each metric by name with
its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits 1 when any op failed or any pinned statistic differs, 2 when the
build or the harness fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of caches
import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("asbr-cold", "predictor-sweep", "sampled-sweep")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(BUILD),
                 "--target", "perfbench_harness", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build step failed: {' '.join(cmd)}")


def run_harness(workload, seed, seconds, trace):
    cmd = [str(BUILD / "perfbench_harness"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if done.returncode:
        fail(f"harness exited {done.returncode}")
    return json.loads(done.stdout)


def fmt(value):
    return f"{value:.6g}"


def report_untraced(raw):
    summaries = metrics.end_to_end(raw)
    for name, unit in metrics.END_TO_END:
        s = summaries[name]
        pct = (f"p{s['pct']:g} {fmt(s['pct_value'])}" if s["pct"] is not None
               else f"no percentile has {metrics.MIN_BEYOND} samples beyond it")
        print(f"  {name:<12} {fmt(s['median']):>12} {unit:<5} "
              f"median of n={s['n']}; {pct}")
    return {name: {"value": summaries[name]["median"], "unit": unit}
            for name, unit in metrics.END_TO_END}


def report_traced(raw, workload, seed):
    values, attribution = metrics.per_layer(raw)
    for name, unit in metrics.PER_LAYER:
        print(f"  {name:<28} {fmt(values[name]):>12} {unit}")
    op_s = attribution["op_s"]
    untraced = fmt(attribution["untraced_op_s"])
    print(f"  traced op {fmt(op_s)} s (untraced {untraced} s);"
          " self time by layer span:")
    for name, seconds in sorted(attribution["self_s"].items(),
                                key=lambda item: -item[1]):
        print(f"    {name:<22} {fmt(seconds):>10} s  {seconds / op_s:7.1%}")
    spans_path = BUILD / f"spans-{workload}-{seed}.json"
    spans_path.write_text(json.dumps(raw["spans"]) + "\n")
    print(f"  spans written to {spans_path.relative_to(ROOT)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metrics.PER_LAYER}


def run_one(workload, seed, seconds, trace, pins):
    raw = run_harness(workload, seed, seconds, trace)
    mode = "traced" if trace else "untraced"
    print(f"{workload} (seed {seed}, {mode}, {raw['threads']} worker(s))")
    attempted, failures = metrics.check(raw, pins)
    for errors in failures:
        for error in errors:
            print(f"  MISMATCH {error}")
    if trace:
        values = report_traced(raw, workload, seed)
    else:
        values = report_untraced(raw)
    print(f"  {'error_rate':<12} {fmt(len(failures) / attempted):>12} ratio "
          f"({len(failures)} failed of {attempted} ops)")
    return attempted, len(failures), values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    pins = json.loads((HERE / "pins.json").read_text())
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    attempted = failed = 0
    result = {}
    for workload, trace in runs:
        a, f, values = run_one(workload, args.seed, args.seconds, trace, pins)
        attempted += a
        failed += f
        prefix = f"{workload}/" if args.workload == "all" else ""
        result.update({prefix + k: v for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

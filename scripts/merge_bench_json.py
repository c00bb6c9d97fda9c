#!/usr/bin/env python3
"""Merge two Google-Benchmark JSON runs into a committed BENCH_*.json.

Usage:
    scripts/merge_bench_json.py BEFORE.json AFTER.json OUT.json \
        [--bench NAME] [--note TEXT]

BEFORE.json / AFTER.json are plain Google-Benchmark JSON documents (what
the bench binaries emit via bench_report.hpp, TVG_BENCH_JSON=..., or
--benchmark_out=...). The merged document keeps both runs verbatim under
"runs" and adds a "speedup" map (before_real_time / after_real_time, so
values > 1 mean the 'after' build is faster) over the benchmark names the
two runs share. A repeated row (--benchmark_repetitions, or a bench's
own Repetitions) is compared at its median aggregate; the other
aggregates (mean/stddev/cv) are skipped. When the two runs share no
names (say, a baseline from before a row was renamed) the script still
writes OUT.json but warns and exits 1.

Workflow for a perf PR:
    # on the pre-PR commit
    TVG_BENCH_JSON=/tmp/before.json ./build/bench_journeys
    # on the PR commit
    TVG_BENCH_JSON=/tmp/after.json ./build/bench_journeys
    scripts/merge_bench_json.py /tmp/before.json /tmp/after.json \
        BENCH_journeys.json --bench bench_journeys
"""

import argparse
import json
import sys


def load_run(path):
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" not in doc:
        sys.exit(f"{path}: not a Google-Benchmark JSON document "
                 "(missing 'benchmarks')")
    return doc


def rows(doc):
    """Benchmark name -> entry: a repeated row's median aggregate (under
    the row's name), else its single run."""
    out = {}
    for b in doc["benchmarks"]:
        if b.get("run_type") != "aggregate":
            out.setdefault(b["name"], b)
        elif b.get("aggregate_name") == "median":
            out[b["run_name"]] = b
    return out


def timings(doc):
    return {name: b["real_time"] for name, b in rows(doc).items()}


# Google-Benchmark JSON spells user counters (state.counters[...]) as
# extra numeric keys on each benchmark entry; these are the standard
# keys that are NOT counters.
_STANDARD_KEYS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads",
    "iterations", "real_time", "cpu_time", "time_unit",
    "items_per_second", "bytes_per_second", "label",
    "error_occurred", "error_message",
}


def counters(doc):
    """Per-benchmark user counters (percentiles, qps, shed, ...)."""
    out = {}
    for name, b in rows(doc).items():
        extra = {k: v for k, v in b.items()
                 if k not in _STANDARD_KEYS and isinstance(v, (int, float))}
        if extra:
            out[name] = extra
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("out")
    ap.add_argument("--bench", default="", help="bench executable name")
    ap.add_argument("--note", default="", help="free-form provenance note")
    args = ap.parse_args()

    before = load_run(args.before)
    after = load_run(args.after)
    t_before = timings(before)
    t_after = timings(after)

    speedup = {}
    for name in t_after:
        if name in t_before and t_after[name] > 0:
            speedup[name] = round(t_before[name] / t_after[name], 3)

    # Side-by-side user counters for benchmarks reporting distributions
    # (p50/p99/p999, qps, shed, ...) rather than a single timing.
    c_before = counters(before)
    c_after = counters(after)
    counter_diff = {}
    for name in c_after:
        if name in c_before:
            counter_diff[name] = {"pre_pr": c_before[name],
                                  "post_pr": c_after[name]}

    merged = {
        "bench": args.bench,
        "generated_by": "scripts/merge_bench_json.py",
        "note": args.note,
        "speedup": speedup,
        "counters": counter_diff,
        "runs": {"pre_pr": before, "post_pr": after},
    }
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=1)
        f.write("\n")

    if not speedup:
        print(f"warning: {args.before} and {args.after} share no benchmark "
              "names; the speedup map is empty (re-run the baseline with "
              "the current bench binary)", file=sys.stderr)
    unit = {name: b.get("time_unit", "ns") for name, b in rows(after).items()}
    width = max((len(n) for n in speedup), default=0)
    for name in sorted(speedup):
        print(f"{name:<{width}}  {t_before[name]:>12.0f} {unit[name]} -> "
              f"{t_after[name]:>12.0f} {unit[name]}   x{speedup[name]}")
    shown = ("p50_us", "p99_us", "p999_us", "p99_high_us", "qps", "shed")
    for name in sorted(counter_diff):
        pre, post = counter_diff[name]["pre_pr"], counter_diff[name]["post_pr"]
        keys = [k for k in shown if k in pre and k in post]
        if not keys:
            continue
        print(f"{name}:")
        for k in keys:
            print(f"    {k:<12} {pre[k]:>14.1f} -> {post[k]:>14.1f}")
    return 0 if speedup else 1


if __name__ == "__main__":
    sys.exit(main())

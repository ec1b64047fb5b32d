#!/usr/bin/env python3
"""CI perf gate: the parallel grid must actually scale.

Reads a BENCH_micro.json produced by bench_micro_perf and enforces
    BM_ParallelEvaluationGrid/4 >= MIN_SPEEDUP x BM_ParallelEvaluationGrid/1
(real time). Exit codes:

    0  gate passed, or was SKIPPED because the measuring machine has fewer
       than 4 cores (printed loudly; use --require to forbid skipping)
    1  gate FAILED: the measured speedup is below the threshold
    2  the input could not be judged at all (missing file, malformed JSON,
       missing benchmark keys, non-positive timings) -- never a soft pass

The previous inline-CI version of this check had two silent failure modes
this script exists to kill: it keyed the skip on os.cpu_count() of the
machine *running the gate* (GitHub's 2-core runners skipped it forever,
letting a 0.93x regression through), and any JSON/key error crashed the
step in a way that was indistinguishable from a config typo. Core count now
comes from the benchmark JSON's own "_context.hardware_concurrency" (the
machine that MEASURED), overridable with --cores for tests; every parse
problem is a distinct, loud exit 2.
"""

import argparse
import functools
import sys

import bench_gate

GRID_ONE = "BM_ParallelEvaluationGrid/1/real_time"
GRID_FOUR = "BM_ParallelEvaluationGrid/4/real_time"

fail_parse = functools.partial(bench_gate.fail_parse, "check_grid_scaling")
load_bench = functools.partial(bench_gate.load_bench, "check_grid_scaling")


def ns_per_op(bench, key, path):
    entry = bench.get(key)
    if entry is None:
        fail_parse(
            f"{path} has no '{key}' entry -- did the grid benchmark run?"
        )
    if not isinstance(entry, dict) or "ns_per_op" not in entry:
        fail_parse(f"{path}: '{key}' has no ns_per_op field")
    value = entry["ns_per_op"]
    if not isinstance(value, (int, float)) or value <= 0:
        fail_parse(f"{path}: '{key}' ns_per_op is not a positive number")
    return float(value)


def self_marked_unreliable(bench):
    """True when the producing bench marked its own numbers meaningless.

    bench_grid_scaling writes "_context.unreliable": true when the measuring
    machine had fewer hardware threads than the widest sweep point (e.g. a
    1-core box sweeping to 8 jobs). Such a file must never be judged as a
    pass OR a fail -- it is an under-provisioned measurement.
    """
    context = bench.get("_context")
    return isinstance(context, dict) and context.get("unreliable") is True


def measured_cores(bench, override):
    if override is not None:
        return override
    context = bench.get("_context")
    if isinstance(context, dict):
        cores = context.get("hardware_concurrency")
        if isinstance(cores, int) and cores > 0:
            return cores
    # Old-format JSON without context: fall back to this machine, loudly.
    print(
        "check_grid_scaling: WARNING: no _context.hardware_concurrency in "
        "the benchmark JSON; falling back to this machine's core count",
        file=sys.stderr,
    )
    import os

    return os.cpu_count() or 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="path to BENCH_micro.json")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.5,
        help="required Grid/4 over Grid/1 speedup (default: 2.5)",
    )
    parser.add_argument(
        "--cores",
        type=int,
        default=None,
        help="override the measuring machine's core count (tests)",
    )
    parser.add_argument(
        "--require",
        action="store_true",
        help="fail instead of skipping when cores < 4",
    )
    args = parser.parse_args(argv)

    bench = load_bench(args.bench_json)
    one_ns = ns_per_op(bench, GRID_ONE, args.bench_json)
    four_ns = ns_per_op(bench, GRID_FOUR, args.bench_json)
    speedup = one_ns / four_ns
    cores = measured_cores(bench, args.cores)

    print(
        f"check_grid_scaling: Grid/4 vs Grid/1 speedup {speedup:.2f}x "
        f"(need >= {args.min_speedup:.2f}x) on a {cores}-core measurement"
    )
    if self_marked_unreliable(bench):
        if args.require:
            print(
                "check_grid_scaling: FAILED: --require set but the "
                "benchmark JSON is self-marked _context.unreliable "
                "(under-provisioned measurement machine)",
                file=sys.stderr,
            )
            return 1
        print(
            "check_grid_scaling: UNDER-PROVISIONED: SKIPPED: the benchmark "
            "JSON is self-marked _context.unreliable -- the measuring "
            "machine had fewer cores than the sweep width, so its speedups "
            "are meaningless. Re-measure on a bigger machine."
        )
        return 0
    if cores < 4:
        if args.require:
            print(
                f"check_grid_scaling: FAILED: --require set but the "
                f"measurement machine has only {cores} cores",
                file=sys.stderr,
            )
            return 1
        print(
            f"check_grid_scaling: UNDER-PROVISIONED: SKIPPED: measurement "
            f"machine has {cores} cores (< 4); the ratio is not meaningful "
            f"there. Run the gate against a >=4-core measurement to "
            f"enforce it."
        )
        return 0
    if speedup < args.min_speedup:
        print(
            f"check_grid_scaling: FAILED: parallel grid regression: "
            f"{speedup:.2f}x < {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    print("check_grid_scaling: PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Tier-diff analyzer for the fleet-scale event-cost profiles.

Reads a BENCH_fleet_scale.json produced by bench_fleet_scale (every tier
carries a "profile" section: the EventCostProfiler's per-category costs and
structural counters) and answers ROADMAP item 1's question -- *which
subsystem goes super-linear* as the fleet grows from 1k to 1M VMs.

For every profile category it fits a log-log least-squares slope of cost
against fleet size, across all profiled tiers:

    * total_slope -- slope of est_total_ns vs num_vms. 1.0 means the
      category's total cost scales linearly with the fleet (more VMs,
      proportionally more work); anything meaningfully above 1.0 is
      super-linear and will eventually own the run.
    * mean_slope  -- slope of mean_ns (per-occurrence cost) vs num_vms.
      0.0 means each occurrence costs the same at every scale; a positive
      mean_slope says the *data structures behind one occurrence* grow with
      the fleet (the O(log n)-that-became-O(n) signature).

Structural counters get the same total-count fit, separating "more
occurrences" from "costlier occurrences".

The verdict names the category with the steepest total_slope among those
that carry at least --min-share of the profiled time at the largest tier
(a 3x slope on 0.01% of the time is noise, not a cliff).

Exit codes:

    0  analysis printed (whether or not anything is super-linear)
    2  the input could not be judged at all: missing/malformed JSON, no
       "profile" sections, or fewer than two profiled tiers to diff
"""

import argparse
import functools
import math
import sys

import bench_gate

fail_parse = functools.partial(bench_gate.fail_parse, "profile_fleet")
load_bench = functools.partial(bench_gate.load_bench, "profile_fleet")


def profiled_tiers(bench, path):
    """Returns [(num_vms, profile_dict)] ascending; >= 2 entries or exit 2."""
    tiers = []
    for key, entry in bench.items():
        if not key.startswith("tiers/"):
            continue
        if not isinstance(entry, dict):
            fail_parse(f"{path}: '{key}' is not an object")
        profile = entry.get("profile")
        if profile is None:
            continue
        if not isinstance(profile, dict) or not isinstance(
            profile.get("categories"), dict
        ):
            fail_parse(f"{path}: '{key}' profile section is malformed")
        num_vms = entry.get("num_vms")
        if not isinstance(num_vms, (int, float)) or num_vms <= 0:
            fail_parse(f"{path}: '{key}' num_vms is not a positive number")
        tiers.append((int(num_vms), profile))
    if len(tiers) < 2:
        fail_parse(
            f"{path} has {len(tiers)} profiled tier(s); need at least two "
            "to fit a slope (run bench_fleet_scale with >= two tiers)"
        )
    tiers.sort(key=lambda t: t[0])
    return tiers


def fit_loglog_slope(points):
    """Least-squares slope of log(y) on log(x); None with < 2 usable points."""
    logs = [
        (math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0
    ]
    if len(logs) < 2:
        return None
    n = len(logs)
    mean_x = sum(lx for lx, _ in logs) / n
    mean_y = sum(ly for _, ly in logs) / n
    var_x = sum((lx - mean_x) ** 2 for lx, _ in logs)
    if var_x == 0.0:
        return None
    cov = sum((lx - mean_x) * (ly - mean_y) for lx, ly in logs)
    return cov / var_x


def number(value):
    return float(value) if isinstance(value, (int, float)) else 0.0


def category_rows(tiers):
    """Per-category: est_total_ns / mean_ns per tier, fitted slopes, shares."""
    names = []
    for _, profile in tiers:
        for name in profile["categories"]:
            if name not in names:
                names.append(name)
    top_vms, top_profile = tiers[-1]
    top_total = sum(
        number(stats.get("est_total_ns"))
        for stats in top_profile["categories"].values()
        if isinstance(stats, dict)
    )
    rows = []
    for name in names:
        totals, means = [], []
        for num_vms, profile in tiers:
            stats = profile["categories"].get(name)
            if not isinstance(stats, dict):
                continue
            totals.append((num_vms, number(stats.get("est_total_ns"))))
            means.append((num_vms, number(stats.get("mean_ns"))))
        top_stats = top_profile["categories"].get(name)
        top_est = (
            number(top_stats.get("est_total_ns"))
            if isinstance(top_stats, dict)
            else 0.0
        )
        rows.append(
            {
                "name": name,
                "total_slope": fit_loglog_slope(totals),
                "mean_slope": fit_loglog_slope(means),
                "top_est_total_ns": top_est,
                "share": top_est / top_total if top_total > 0 else 0.0,
            }
        )
    return rows, top_vms


def counter_rows(tiers):
    names = []
    for _, profile in tiers:
        for name in profile.get("counters", {}):
            if name not in names:
                names.append(name)
    rows = []
    for name in names:
        points = [
            (num_vms, number(profile.get("counters", {}).get(name)))
            for num_vms, profile in tiers
        ]
        rows.append(
            {
                "name": name,
                "slope": fit_loglog_slope(points),
                "top_count": points[-1][1],
            }
        )
    return rows


def fmt_slope(slope):
    return f"{slope:.2f}" if slope is not None else "   -"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="path to BENCH_fleet_scale.json")
    parser.add_argument(
        "--min-share",
        type=float,
        default=0.01,
        help="minimum share of profiled time at the largest tier for a "
        "category to be eligible for the verdict (default: 0.01)",
    )
    parser.add_argument(
        "--super-linear-threshold",
        type=float,
        default=1.15,
        help="total_slope above which a category is called super-linear "
        "(default: 1.15; 1.0 is perfectly linear in fleet size)",
    )
    args = parser.parse_args(argv)

    bench = load_bench(args.bench_json)
    tiers = profiled_tiers(bench, args.bench_json)
    sizes = ", ".join(str(num_vms) for num_vms, _ in tiers)
    print(f"profile_fleet: {len(tiers)} profiled tiers: {sizes}")

    rows, top_vms = category_rows(tiers)
    rows.sort(key=lambda r: r["top_est_total_ns"], reverse=True)
    print(f"{'category':<24} {'share@' + str(top_vms):>12} "
          f"{'total_slope':>12} {'mean_slope':>11}")
    for row in rows:
        print(
            f"{row['name']:<24} {row['share'] * 100:>11.1f}% "
            f"{fmt_slope(row['total_slope']):>12} "
            f"{fmt_slope(row['mean_slope']):>11}"
        )

    counters = counter_rows(tiers)
    counters.sort(key=lambda r: r["top_count"], reverse=True)
    print(f"\n{'counter':<24} {'count@' + str(top_vms):>16} {'slope':>8}")
    for row in counters:
        print(
            f"{row['name']:<24} {row['top_count']:>16.0f} "
            f"{fmt_slope(row['slope']):>8}"
        )

    eligible = [
        r
        for r in rows
        if r["total_slope"] is not None and r["share"] >= args.min_share
    ]
    if not eligible:
        print(
            "\nprofile_fleet: no category carries enough profiled time to "
            "judge (every share below "
            f"{args.min_share * 100:.1f}%)"
        )
        return 0
    worst = max(eligible, key=lambda r: r["total_slope"])
    mean = fmt_slope(worst["mean_slope"])
    if worst["total_slope"] > args.super_linear_threshold:
        print(
            f"\nprofile_fleet: super-linear subsystem: {worst['name']} "
            f"(est_total_ns ~ N^{worst['total_slope']:.2f}, per-occurrence "
            f"cost ~ N^{mean}, {worst['share'] * 100:.1f}% of profiled time "
            f"at {top_vms} VMs)"
        )
    else:
        print(
            f"\nprofile_fleet: no super-linear subsystem (steepest: "
            f"{worst['name']} at N^{worst['total_slope']:.2f}, threshold "
            f"N^{args.super_linear_threshold:.2f})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

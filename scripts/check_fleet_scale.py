#!/usr/bin/env python3
"""CI memory/throughput gate for fleet-scale VM storage.

Reads a BENCH_fleet_scale.json produced by bench_fleet_scale and enforces,
on the 10k-VM tier (always present, even in the CI smoke run):

    * bytes/VM      <= --max-bytes-per-vm   (per-VM memory budget)
    * events/s      >= --min-events-per-sec (throughput floor)
    * invariants_ok is true                 (the controller validated)

and, when the 100k tier is present, two growth checks against the 10k
tier:

    * bytes/VM  <= --max-growth x the 10k tier's (per-VM memory must be
      flat in fleet size, or the storage layer has re-grown a per-VM
      overhead)
    * events/s  >= MIN_EVENTS_GROWTH (0.2) x the 10k tier's (per-event
      cost must not grow with fleet size; a cost linear in it reads ~0.1)

At every tier that carries an event-cost profile (the "profile" section),
the gate also checks two exact counts, so these rules cannot flake:

    * counters.backup_probes == categories.backup_assign.count
      (backup assignment names its server in one probe, never a scan)
    * when counters.ring_rebases == 0:
      counters.lazy_sorted_events <= ring_inserts + overflow_spills
      (each calendar event is sorted at most once)

and prints the top-3 hotspot categories by estimated total time at the
highest profiled tier -- informational only (scripts/profile_fleet.py
does the cross-tier slope analysis). A file without profiles skips both.

Exit codes:

    0  gate passed
    1  gate FAILED: a budget or floor was breached
    2  the input could not be judged at all (missing file, malformed JSON,
       missing tiers, non-positive numbers, a profile without a counter
       the count rules need) -- never a soft pass

The throughput floor is deliberately conservative: it exists to catch a
storage change that makes event dispatch accidentally quadratic (an order
of magnitude), not a few percent of noise on a busy runner.
"""

import argparse
import functools
import sys

import bench_gate

BASE_TIER = "tiers/10000"
SCALE_TIER = "tiers/100000"
# Required events/s ratio of the 100k tier over the 10k tier. Measured
# ratios read 0.5-0.9; a per-event cost linear in fleet size reads ~0.1.
MIN_EVENTS_GROWTH = 0.2

fail_parse = functools.partial(bench_gate.fail_parse, "check_fleet_scale")
load_bench = functools.partial(bench_gate.load_bench, "check_fleet_scale")


def tier(bench, key, path):
    entry = bench.get(key)
    if entry is None:
        fail_parse(f"{path} has no '{key}' entry -- did bench_fleet_scale run?")
    if not isinstance(entry, dict):
        fail_parse(f"{path}: '{key}' is not an object")
    return entry


def positive_number(entry, key, field, path):
    value = entry.get(field)
    if not isinstance(value, (int, float)) or value <= 0:
        fail_parse(f"{path}: '{key}' {field} is not a positive number")
    return float(value)


def count(section, name, key, path):
    value = section.get(name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail_parse(f"{path}: '{key}' profile has no numeric '{name}'")
    return value


def check_profile_counts(bench, path):
    """Applies the exact count rules at every profiled tier.

    Returns True when every rule holds. A tier whose profile is absent or
    null is skipped; a profile missing a needed key is a parse error.
    """
    ok = True
    for key, entry in bench.items():
        if not key.startswith("tiers/") or not isinstance(entry, dict):
            continue
        profile = entry.get("profile")
        if profile is None:
            continue
        if not isinstance(profile, dict):
            fail_parse(f"{path}: '{key}' profile is not an object")
        categories = profile.get("categories")
        counters = profile.get("counters")
        if not isinstance(categories, dict) or not isinstance(counters, dict):
            fail_parse(f"{path}: '{key}' profile lacks categories or counters")
        assign = categories.get("backup_assign")
        if not isinstance(assign, dict):
            fail_parse(f"{path}: '{key}' profile has no 'backup_assign' category")
        assignments = count(assign, "count", key, path)
        probes = count(counters, "backup_probes", key, path)
        rebases = count(counters, "ring_rebases", key, path)
        sorted_events = count(counters, "lazy_sorted_events", key, path)
        bound = (count(counters, "ring_inserts", key, path) +
                 count(counters, "overflow_spills", key, path))
        print(
            f"check_fleet_scale: {key}: {probes:.0f} backup probes for "
            f"{assignments:.0f} assignments, {sorted_events:.0f} lazily "
            f"sorted events (bound {bound:.0f}, {rebases:.0f} rebases)"
        )
        if probes != assignments:
            print(
                f"check_fleet_scale: FAILED: {key} made {probes:.0f} backup "
                f"probes for {assignments:.0f} assignments -- assignment "
                f"must take one probe",
                file=sys.stderr,
            )
            ok = False
        if rebases == 0 and sorted_events > bound:
            print(
                f"check_fleet_scale: FAILED: {key} sorted {sorted_events:.0f} "
                f"calendar events, over the {bound:.0f} that entered the "
                f"ring or the ladder -- an event was sorted more than once",
                file=sys.stderr,
            )
            ok = False
    return ok


def print_hotspots(bench):
    """Top-3 profile categories at the highest profiled tier (informational).

    Tolerant of absent/null profiles and malformed category entries: older
    bench files predate the profiler and must still pass the gate unchanged
    (check_profile_counts has already rejected a profile it cannot read).
    """
    best_vms, best_profile = 0, None
    for key, entry in bench.items():
        if not key.startswith("tiers/") or not isinstance(entry, dict):
            continue
        profile = entry.get("profile")
        num_vms = entry.get("num_vms")
        if (
            isinstance(profile, dict)
            and isinstance(profile.get("categories"), dict)
            and isinstance(num_vms, (int, float))
            and num_vms > best_vms
        ):
            best_vms, best_profile = int(num_vms), profile
    if best_profile is None:
        return
    ranked = sorted(
        (
            (float(stats.get("est_total_ns", 0)), name)
            for name, stats in best_profile["categories"].items()
            if isinstance(stats, dict)
            and isinstance(stats.get("est_total_ns"), (int, float))
        ),
        reverse=True,
    )
    total = sum(ns for ns, _ in ranked)
    if total <= 0:
        return
    top = ", ".join(
        f"{name} ({ns / total * 100.0:.0f}%, {ns / 1e6:.0f}ms)"
        for ns, name in ranked[:3]
    )
    print(f"check_fleet_scale: hotspots at {best_vms} VMs: {top}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="path to BENCH_fleet_scale.json")
    parser.add_argument(
        "--max-bytes-per-vm",
        type=float,
        default=8192.0,
        help="per-VM resident-memory budget at 10k VMs (default: 8192)",
    )
    parser.add_argument(
        "--min-events-per-sec",
        type=float,
        default=20000.0,
        help="events/s floor at 10k VMs (default: 20000)",
    )
    parser.add_argument(
        "--max-growth",
        type=float,
        default=1.10,
        help="allowed bytes/VM ratio of 100k over 10k (default: 1.10)",
    )
    args = parser.parse_args(argv)

    bench = load_bench(args.bench_json)
    base = tier(bench, BASE_TIER, args.bench_json)
    base_bytes = positive_number(base, BASE_TIER, "bytes_per_vm",
                                 args.bench_json)
    base_events = positive_number(base, BASE_TIER, "events_per_second",
                                  args.bench_json)

    failed = False
    print(
        f"check_fleet_scale: 10k tier: {base_bytes:.1f} bytes/VM "
        f"(budget {args.max_bytes_per_vm:.0f}), {base_events:.0f} events/s "
        f"(floor {args.min_events_per_sec:.0f})"
    )
    if base.get("invariants_ok") is not True:
        print(
            "check_fleet_scale: FAILED: the 10k tier's controller "
            "invariants did not validate",
            file=sys.stderr,
        )
        failed = True
    if base_bytes > args.max_bytes_per_vm:
        print(
            f"check_fleet_scale: FAILED: {base_bytes:.1f} bytes/VM over the "
            f"{args.max_bytes_per_vm:.0f} budget",
            file=sys.stderr,
        )
        failed = True
    if base_events < args.min_events_per_sec:
        print(
            f"check_fleet_scale: FAILED: {base_events:.0f} events/s below "
            f"the {args.min_events_per_sec:.0f} floor",
            file=sys.stderr,
        )
        failed = True

    scale = bench.get(SCALE_TIER)
    if scale is None:
        print(
            "check_fleet_scale: 100k tier absent (smoke run); growth checks "
            "skipped"
        )
    else:
        if not isinstance(scale, dict):
            fail_parse(f"{args.bench_json}: '{SCALE_TIER}' is not an object")
        scale_bytes = positive_number(scale, SCALE_TIER, "bytes_per_vm",
                                      args.bench_json)
        scale_events = positive_number(scale, SCALE_TIER, "events_per_second",
                                       args.bench_json)
        growth = scale_bytes / base_bytes
        events_growth = scale_events / base_events
        print(
            f"check_fleet_scale: 100k tier: {scale_bytes:.1f} bytes/VM, "
            f"{growth:.2f}x the 10k tier (allowed {args.max_growth:.2f}x); "
            f"{scale_events:.0f} events/s, {events_growth:.2f}x the 10k "
            f"tier (required {MIN_EVENTS_GROWTH:.2f}x)"
        )
        if scale.get("invariants_ok") is not True:
            print(
                "check_fleet_scale: FAILED: the 100k tier's controller "
                "invariants did not validate",
                file=sys.stderr,
            )
            failed = True
        if growth > args.max_growth:
            print(
                f"check_fleet_scale: FAILED: bytes/VM grew {growth:.2f}x "
                f"from 10k to 100k VMs (allowed {args.max_growth:.2f}x) -- "
                f"per-VM memory is no longer flat in fleet size",
                file=sys.stderr,
            )
            failed = True
        if events_growth < MIN_EVENTS_GROWTH:
            print(
                f"check_fleet_scale: FAILED: events/s fell to "
                f"{events_growth:.2f}x from 10k to 100k VMs (required "
                f"{MIN_EVENTS_GROWTH:.2f}x) -- per-event cost grows "
                f"with fleet size",
                file=sys.stderr,
            )
            failed = True

    if not check_profile_counts(bench, args.bench_json):
        failed = True
    print_hotspots(bench)

    if failed:
        return 1
    print("check_fleet_scale: PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Unit tests for scripts/check_fleet_scale.py (the CI fleet-scale gate).

Covers the parse/judge path end to end via subprocess: the bytes/VM budget
and events/s floor at the 10k tier, the flat-memory and events/s growth
checks against the 100k tier, the smoke-run case (100k absent skips both
growth checks, never the budget), the exact count rules at every profiled
tier (one backup probe per assignment; each calendar event sorted at most
once unless the ring was rebased), and every malformed-input mode as a
distinct exit 2.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_fleet_scale.py")


def tier(num_vms, bytes_per_vm, events_per_second, invariants_ok=True):
    return {
        "num_vms": num_vms,
        "running_vms": num_vms,
        "bytes_per_vm": bytes_per_vm,
        "events_per_second": events_per_second,
        "invariants_ok": invariants_ok,
    }


def profile(assignments=10000, probes=10000, sorted_events=30000,
            ring_inserts=30007, overflow_spills=133, ring_rebases=0):
    """A tier profile as bench_fleet_scale writes it (trimmed)."""
    return {
        "sample_interval": 64,
        "categories": {
            "dispatch_callback": {"count": 30000, "est_total_ns": 9e7},
            "backup_assign": {"count": assignments, "est_total_ns": 1e6},
        },
        "counters": {
            "overflow_spills": overflow_spills,
            "ring_inserts": ring_inserts,
            "lazy_sorted_events": sorted_events,
            "ring_rebases": ring_rebases,
            "backup_probes": probes,
        },
    }


def bench_json(base_bytes=2000.0, base_events=100000.0, scale_bytes=2050.0,
               scale_events=60000.0, include_scale=True):
    doc = {
        "_context": {"hardware_concurrency": 4},
        "tiers/10000": tier(10000, base_bytes, base_events),
    }
    if include_scale:
        doc["tiers/100000"] = tier(100000, scale_bytes, scale_events)
    return doc


def run_gate(contents, *args):
    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False
    ) as f:
        f.write(contents)
        path = f.name
    try:
        return subprocess.run(
            [sys.executable, SCRIPT, path, *args],
            capture_output=True,
            text=True,
        )
    finally:
        os.unlink(path)


class GateTest(unittest.TestCase):
    def test_passes_on_flat_memory_and_good_throughput(self):
        proc = run_gate(json.dumps(bench_json()))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("PASSED", proc.stdout)

    def test_fails_over_the_bytes_budget(self):
        proc = run_gate(json.dumps(bench_json(base_bytes=9000.0)))
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("budget", proc.stderr)

    def test_fails_below_the_events_floor(self):
        proc = run_gate(json.dumps(bench_json(base_events=500.0)))
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("floor", proc.stderr)

    def test_fails_when_bytes_per_vm_grows_with_fleet_size(self):
        # 2000 -> 2500 bytes/VM from 10k to 100k is a 1.25x growth: per-VM
        # memory is no longer flat, exactly what the SoA refactor bought.
        proc = run_gate(json.dumps(bench_json(scale_bytes=2500.0)))
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("no longer flat", proc.stderr)

    def test_growth_just_inside_the_allowance_passes(self):
        proc = run_gate(json.dumps(bench_json(scale_bytes=2199.0)))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_smoke_run_without_100k_tier_skips_growth_only(self):
        proc = run_gate(json.dumps(bench_json(include_scale=False)))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("growth check", proc.stdout)
        self.assertIn("skipped", proc.stdout)

    def test_events_per_second_holding_up_at_100k_passes(self):
        # 100k -> 60k events/s is 0.60x, over the required 0.2x.
        proc = run_gate(json.dumps(bench_json()))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("0.60x the 10k tier (required 0.20x)", proc.stdout)

    def test_fails_when_events_per_second_collapse_with_fleet_size(self):
        # 100k -> 10k events/s is 0.10x: what a per-event cost linear in
        # fleet size reads from 10k to 100k VMs.
        proc = run_gate(json.dumps(bench_json(scale_events=10000.0)))
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("per-event cost grows", proc.stderr)

    def test_absent_100k_tier_skips_the_events_growth_check_loudly(self):
        proc = run_gate(json.dumps(bench_json(include_scale=False)))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("growth checks skipped", proc.stdout)

    def test_non_positive_100k_events_is_a_parse_error(self):
        for events in (0, -5.0):
            proc = run_gate(json.dumps(bench_json(scale_events=events)))
            self.assertEqual(proc.returncode, 2, events)
            self.assertIn("tiers/100000", proc.stderr)
        doc = bench_json()
        del doc["tiers/100000"]["events_per_second"]
        proc = run_gate(json.dumps(doc))
        self.assertEqual(proc.returncode, 2)

    def test_smoke_run_still_enforces_the_budget(self):
        proc = run_gate(
            json.dumps(bench_json(base_bytes=9000.0, include_scale=False))
        )
        self.assertEqual(proc.returncode, 1, proc.stdout)

    def test_failed_invariants_fail_the_gate(self):
        doc = bench_json()
        doc["tiers/10000"]["invariants_ok"] = False
        proc = run_gate(json.dumps(doc))
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("invariants", proc.stderr)

    def test_failed_invariants_at_100k_fail_the_gate(self):
        doc = bench_json()
        doc["tiers/100000"]["invariants_ok"] = False
        proc = run_gate(json.dumps(doc))
        self.assertEqual(proc.returncode, 1, proc.stdout)

    def test_thresholds_are_flag_adjustable(self):
        proc = run_gate(
            json.dumps(bench_json(base_bytes=9000.0)),
            "--max-bytes-per-vm=10000",
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_profiled_bench_surfaces_top_hotspot_categories(self):
        doc = bench_json()
        doc["tiers/100000"]["profile"] = profile(
            assignments=100000, probes=100000)
        doc["tiers/100000"]["profile"]["categories"] = {
            "dispatch_callback": {"est_total_ns": 9e9},
            "pool_placeable_index": {"est_total_ns": 5e9},
            "ladder_merge": {"est_total_ns": 1e9},
            "calendar_wrap": {"est_total_ns": 1e8},
            "backup_assign": {"count": 100000, "est_total_ns": 1e6},
        }
        proc = run_gate(json.dumps(doc))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("hotspots at 100000 VMs", proc.stdout)
        self.assertIn("dispatch_callback", proc.stdout)
        self.assertIn("pool_placeable_index", proc.stdout)
        self.assertNotIn("calendar_wrap", proc.stdout)

    def test_unprofiled_bench_passes_without_hotspots(self):
        proc = run_gate(json.dumps(bench_json()))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("hotspots", proc.stdout)

    def test_profiled_counts_within_the_rules_pass(self):
        doc = bench_json()
        doc["tiers/10000"]["profile"] = profile(sorted_events=30140)
        doc["tiers/100000"]["profile"] = profile(
            assignments=100000, probes=100000)
        proc = run_gate(json.dumps(doc))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("10000 backup probes for 10000 assignments",
                      proc.stdout)

    def test_more_probes_than_assignments_fail_at_any_tier(self):
        # The round-robin probe loop the open-server index replaced made
        # 1,254,750 probes for 10,000 assignments at 10k.
        doc = bench_json()
        doc["tiers/1000"] = tier(1000, 2000.0, 100000.0)
        doc["tiers/1000"]["profile"] = profile(assignments=1000, probes=1001)
        proc = run_gate(json.dumps(doc))
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("tiers/1000 made 1001 backup probes", proc.stderr)

    def test_sorting_an_event_twice_fails(self):
        doc = bench_json()
        doc["tiers/10000"]["profile"] = profile(sorted_events=34918)
        proc = run_gate(json.dumps(doc))
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("sorted more than once", proc.stderr)

    def test_sort_rule_skipped_after_a_ring_rebase(self):
        # A rebase re-sorts surviving buckets whole, so the bound no longer
        # applies; the probe rule still does.
        doc = bench_json()
        doc["tiers/10000"]["profile"] = profile(sorted_events=34918,
                                                ring_rebases=1)
        proc = run_gate(json.dumps(doc))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        doc["tiers/10000"]["profile"]["counters"]["backup_probes"] = 10001
        proc = run_gate(json.dumps(doc))
        self.assertEqual(proc.returncode, 1, proc.stdout)

    def test_null_profile_skips_the_count_rules(self):
        doc = bench_json()
        doc["tiers/10000"]["profile"] = None
        proc = run_gate(json.dumps(doc))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("backup probes", proc.stdout)

    def test_profile_missing_a_counter_is_a_parse_error(self):
        for name in ("backup_probes", "ring_rebases", "lazy_sorted_events",
                     "ring_inserts", "overflow_spills"):
            doc = bench_json()
            doc["tiers/10000"]["profile"] = profile()
            del doc["tiers/10000"]["profile"]["counters"][name]
            proc = run_gate(json.dumps(doc))
            self.assertEqual(proc.returncode, 2, name)
            self.assertIn(name, proc.stderr)

    def test_profile_missing_backup_assign_is_a_parse_error(self):
        doc = bench_json()
        doc["tiers/10000"]["profile"] = profile()
        del doc["tiers/10000"]["profile"]["categories"]["backup_assign"]
        proc = run_gate(json.dumps(doc))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("backup_assign", proc.stderr)

    def test_profile_that_is_not_an_object_is_a_parse_error(self):
        doc = bench_json()
        doc["tiers/10000"]["profile"] = "profiled"
        proc = run_gate(json.dumps(doc))
        self.assertEqual(proc.returncode, 2)

    def test_missing_10k_tier_is_a_parse_error(self):
        proc = run_gate(json.dumps({"_context": {}}))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("ERROR", proc.stderr)

    def test_missing_bytes_field_is_a_parse_error(self):
        doc = bench_json()
        del doc["tiers/10000"]["bytes_per_vm"]
        proc = run_gate(json.dumps(doc))
        self.assertEqual(proc.returncode, 2)

    def test_non_positive_events_is_a_parse_error(self):
        proc = run_gate(json.dumps(bench_json(base_events=0)))
        self.assertEqual(proc.returncode, 2)

    def test_malformed_json_is_a_parse_error(self):
        proc = run_gate("{not json")
        self.assertEqual(proc.returncode, 2)

    def test_missing_file_is_a_parse_error(self):
        proc = subprocess.run(
            [sys.executable, SCRIPT, "/nonexistent/BENCH.json"],
            capture_output=True,
            text=True,
        )
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()

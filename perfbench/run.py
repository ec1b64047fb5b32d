#!/usr/bin/env python3
"""The repository benchmark: one command per workload, end to end and per layer.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0

Builds the spotcheck libraries and the perfbench binary from source (CMake,
into .bench_build/ or $CARGO_TARGET_DIR), runs it for one workload, checks
its outputs and prints every metric by name and unit. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The full record of the run (context, outcome digest, failed checks, samples
counts) goes to .bench_out/<workload>-seed<N>-trace<T>.json, and a traced
run's spans to .bench_out/<workload>-seed<N>.spans.csv.

Exit codes: 0 with a result line; 1 when the build or the benchmark binary fails; 2
on bad arguments or when the spotcheck sources are missing.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchmath  # noqa: E402

WORKLOADS = ("paper_grid", "fleet_storm", "fleet_churn")

# (name, unit): the end-to-end metrics, from the untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("vm_hours_per_s", "vm-h/s"),
    ("grid_cells_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("bytes_per_vm", "B"),
)

# (name, unit): the per-layer metrics, from the traced run. Names the binary
# reports under "layers" pass straight through; the rest are computed here.
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.dispatch_callback_ms", "ms"),
    ("sim.dispatch_stream_ms", "ms"),
    ("sim.dispatch_periodic_ms", "ms"),
    ("sim.lazy_bucket_sort_ms", "ms"),
    ("sim.lazy_sorted_events", "count"),
    ("sim.bucket_degrades", "count"),
    ("sim.overflow_spills", "count"),
    ("sim.calendar_wrap_ms", "ms"),
    ("market.trace_generate_ms", "ms"),
    ("market.catalog_hits", "count"),
    ("market.catalog_misses", "count"),
    ("market.catalog_lock_wait_ms", "ms"),
    ("market.price_changes_fired", "count"),
    ("cloud.launches", "count"),
    ("cloud.terminations", "count"),
    ("cloud.revocation_warnings", "count"),
    ("cloud.launch_failures", "count"),
    ("cloud.cost_report_ms", "ms"),
    ("core.pool.capacity_index_ms", "ms"),
    ("core.pool.placeable_index_ms", "ms"),
    ("core.pool.pending_join_ms", "ms"),
    ("core.pool.index_inserts", "count"),
    ("core.pool.index_erases", "count"),
    ("core.api.request_us_p50", "us"),
    ("core.api.request_us_p99", "us"),
    ("core.api.release_us_p50", "us"),
    ("core.api.release_us_p99", "us"),
    ("core.revocation_events", "count"),
    ("core.backup_restores", "count"),
    ("core.vms_lost", "count"),
    ("core.repatriations", "count"),
    ("core.grid.busy_fraction", "ratio"),
    ("core.grid.imbalance", "ratio"),
    ("core.grid.prewarm_ms", "ms"),
    ("obs.report_build_ms", "ms"),
    ("virt.evacuations", "count"),
    ("virt.live_migrations", "count"),
    ("virt.failed_migrations", "count"),
    ("virt.restore_bytes_mb", "MB"),
    ("backup.assign_ms", "ms"),
    ("backup.assignments", "count"),
    ("backup.releases", "count"),
    ("backup.probes", "count"),
    ("backup.probes_per_assignment", "ratio"),
    ("backup.servers", "count"),
    ("churn.phase_share", "ratio"),
    ("churn.release_share", "ratio"),
    ("self_ms.sim", "ms"),
    ("self_ms.market", "ms"),
    ("self_ms.cloud", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.core.api", "ms"),
    ("self_ms.core.grid", "ms"),
    ("self_ms.virt", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_overhead", "ratio"),
)

# The reference pass's typical time on the machine the benchmark was tuned on
# (4 vCPUs of a 2.0 GHz Intel Xeon): adjusted seconds are seconds of that
# machine at that speed. A constant, so a metric moves only when the
# workload's speed relative to the pass does.
REFERENCE_NOMINAL_S = 0.050

# Per-call percentiles pooled over the traced repetitions' spans.
API_PERCENTILES = (
    ("core.api.request_us_p50", "request_us", 50),
    ("core.api.request_us_p99", "request_us", 99),
    ("core.api.release_us_p50", "release_us", 50),
    ("core.api.release_us_p99", "release_us", 99),
)

# Outcome fields that are doubles in the binary (the rest are counts).
OUTCOME_DOUBLES = ("cost_per_vm_hour", "unavailability_pct", "degradation_pct",
                   "vm_hours")


class BenchError(Exception):
    """A failure that leaves no result to report (exit 1)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return args


def build_jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build_bench():
    """Configures (once) and builds the perfbench binary; returns its path."""
    target_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build_dir = target_dir / "perfbench"
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            raise BenchError("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(build_dir), "--target",
                   "perfbench", "-j", str(build_jobs())]
    if subprocess.run(compile_cmd, stdout=log, stderr=log).returncode != 0:
        raise BenchError("build failed")
    return build_dir / "perfbench"


def run_bench(bench, args, out_dir):
    raw_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.raw.json"
    spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.csv"
    cmd = [str(bench), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out={raw_path}"]
    if args.trace:
        cmd.append(f"--spans-out={spans_path}")
    # The binary stops at the first repetition past --seconds; the rest of
    # the budget covers set-up, the last repetition and the final checks.
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("benchmark binary timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"benchmark binary exited with {done.returncode}")
    with open(raw_path) as f:
        return json.load(f)


def outcome_records(rep):
    # The binary writes a non-finite double as null; it digests as NaN (its
    # own check has already counted the failure).
    return [{k: (math.nan if v is None else float(v)) if k in OUTCOME_DOUBLES
             else int(v) for k, v in record.items()}
            for record in rep["outcome"]]


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256():
    """Hash of the sources the benchmark builds: identifies the code measured
    where no git commit is available."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


class Checks:
    """Output checks made here, on top of the binary's own."""

    def __init__(self, attempted, failed, failures):
        self.attempted = attempted
        self.failed = failed
        self.failures = list(failures)

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def end_to_end_metrics(raw, reps, checks):
    # Every time is in reference-adjusted seconds: a repetition's times are
    # scaled by REFERENCE_NOMINAL_S over the reference time the binary
    # measured around it (see ReferencePass in bench.cc), so a slow spell of
    # the shared host cancels out and a change to the library does not.
    # Throughputs are then total work over total adjusted time, cell
    # percentiles the mean of each repetition's own percentile, and set-up
    # time the mean of the set-up samples (each covers the same 50 ms).
    scale = [REFERENCE_NOMINAL_S / rep["reference_s"] for rep in reps]
    adjusted_s = sum(rep["wall_s"] * k for rep, k in zip(reps, scale))
    values = {
        "setup_s": statistics.fmean(
            rep["setup_s"] * k for rep, k in zip(reps, scale)),
        "vm_hours_per_s": sum(rep["vm_hours"] for rep in reps) / adjusted_s,
        "grid_cells_per_s": sum(rep["cells"] for rep in reps) / adjusted_s,
        "peak_rss_mb": raw["peak_rss_bytes"] / 2**20,
        "bytes_per_vm": benchmath.median([rep["bytes_per_vm"] for rep in reps]),
    }
    for name, pct in (("cell_ms_p50", 50), ("cell_ms_p90", 90)):
        try:
            values[name] = statistics.fmean(
                benchmath.percentile(rep["cell_ms"], pct) * k
                for rep, k in zip(reps, scale))
        except ValueError as exc:
            checks.expect(False, f"{name}: {exc}")
    cells = min(len(rep["cell_ms"]) for rep in reps)
    counts = {"cells_per_repetition": cells, "repetitions": len(reps),
              "reference_ms_median": 1e3 * benchmath.median(
                  [rep["reference_s"] for rep in reps])}
    return values, counts


def per_layer_metrics(reps, checks):
    traced = [rep for rep in reps if rep["traced"]]
    untraced = [rep for rep in reps if not rep["traced"]]
    values = {}
    for name, _ in PER_LAYER:
        samples = [rep["layers"][name] for rep in traced if name in rep["layers"]]
        if samples:
            values[name] = benchmath.median(samples)
    counts = {}
    for name, key, pct in API_PERCENTILES:
        calls = [x for rep in traced for x in rep[key]]
        counts[key] = len(calls)
        if not calls:
            values[name] = 0.0  # the workload makes no such call
            continue
        try:
            values[name] = benchmath.percentile(calls, pct)
        except ValueError as exc:
            checks.expect(False, f"{name}: {exc}")
    values["trace_overhead"] = (
        benchmath.median([rep["wall_s"] for rep in traced]) /
        benchmath.median([rep["wall_s"] for rep in untraced]))
    counts["traced_repetitions"] = len(traced)
    return values, counts


def main(argv):
    args = parse_args(argv)
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"error: no spotcheck sources at {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        bench = build_bench()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        raw = run_bench(bench, args, out_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = Checks(raw["checks"]["attempted"], raw["checks"]["failed"],
                    raw["checks"]["failures"])
    # Every repetition, traced or untraced (a --trace 1 run has both), must
    # give the same simulated outcome.
    reps = raw["reps"]
    digests = {benchmath.outcome_digest(outcome_records(rep)) for rep in reps}
    checks.expect(len(digests) == 1,
                  f"repetitions disagree on the outcome: {sorted(digests)}")
    digest = min(digests)

    if args.trace:
        values, counts = per_layer_metrics(reps, checks)
        table = PER_LAYER
    else:
        values, counts = end_to_end_metrics(
            raw, [rep for rep in reps if not rep["traced"]], checks)
        table = END_TO_END
    for name, _ in table:
        value = values.get(name)
        ok = value is not None and math.isfinite(value)
        if not args.trace:
            ok = ok and value > 0  # end-to-end metrics are never 0
        checks.expect(ok, f"{name}: not measured ({value})")
        if not ok:
            values[name] = 0.0  # keeps the result line valid JSON

    fraction = benchmath.failed_fraction(checks.attempted, checks.failed)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in table}
    for name, unit in table:
        print(f"{name:34s} {metrics[name]['value']:.6g} {unit}")
    print(f"{'failed_fraction':34s} {fraction:.6g} ({checks.failed}/"
          f"{checks.attempted} checks)")
    print(f"{'samples':34s} {json.dumps(counts, sort_keys=True)}")
    print(f"{'outcome_digest':34s} {digest}")
    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)

    record = {
        "_context": {
            "nproc": len(os.sched_getaffinity(0)),
            "hardware_concurrency": raw["context"]["hardware_concurrency"],
            "grid_jobs": raw["context"]["grid_jobs"],
            "build_type": raw["context"]["build_type"],
            "git_commit": git_commit(),
            "source_sha256": source_sha256(),
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "outcome_digest": digest,
        "failed_fraction": fraction,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failures": checks.failures},
        "samples": counts,
        "metrics": metrics,
    }
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

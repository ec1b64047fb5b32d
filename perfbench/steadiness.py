#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 10 [--workloads fleet_storm ...]

Runs perfbench/run.py once per seed (1..N) on each workload with the
BENCHMARK.json run length, then prints, per metric, the median of the N
values and their quartile spread ((Q3 - Q1) / median, as
statistics.quantiles(n=4) gives the quartiles) next to the metric's bound.
A spread at or above a third of its bound is flagged. Exits 1 if any run
fails or reports a failed check, or any spread is flagged.
"""

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchmath  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} checks failed")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.seeds} seeds, {args.seconds} s runs)")
        for name, bound in bounds.items():
            spread = benchmath.quartile_spread(values[name])
            flagged = spread >= bound / 3
            ok = ok and not flagged
            print(f"  {name:18s} median {benchmath.median(values[name]):12.6g}"
                  f"  spread {spread:7.4f}  bound {bound:5.3f}"
                  f"{'  TOO WIDE' if flagged else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

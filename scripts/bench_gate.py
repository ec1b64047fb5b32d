"""Shared input handling for the benchmark gate scripts.

check_fleet_scale.py, check_grid_scaling.py and profile_fleet.py each judge
one BENCH_*.json file. When the file cannot be judged at all they print why
on stderr, prefixed with their own name, and exit PARSE_ERROR -- never a
soft pass. Each script binds its name once:

    fail_parse = functools.partial(bench_gate.fail_parse, "check_fleet_scale")
"""

import json
import sys

PARSE_ERROR = 2


def fail_parse(prog, message):
    """Prints `<prog>: ERROR: <message>` on stderr and exits PARSE_ERROR."""
    print(f"{prog}: ERROR: {message}", file=sys.stderr)
    raise SystemExit(PARSE_ERROR)


def load_bench(prog, path):
    """Returns the JSON object stored in `path`, or exits PARSE_ERROR."""
    try:
        with open(path, encoding="utf-8") as f:
            bench = json.load(f)
    except OSError as e:
        fail_parse(prog, f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail_parse(prog, f"{path} is not valid JSON: {e}")
    if not isinstance(bench, dict):
        fail_parse(prog, f"{path}: top-level JSON value must be an object")
    return bench

"""Metric maths of the repository benchmark (perfbench/run.py).

Kept apart from the runner so perfbench/test_benchmath.py can pin every rule
down without building or running anything.
"""

import hashlib
import math
import re
import statistics

# BENCHMARK.json's naming rules: a metric name starts with a letter or digit
# and has at most 64 letters, digits, "_", "." and "-"; a unit has at most 16
# letters, digits, "_", "/", "%", "." and "-".
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# A percentile is reported only when at least this many samples lie beyond
# it (p90 needs 100 samples, p99 needs 1000).
MIN_SAMPLES_BEYOND = 10


def valid_metric_name(name):
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


def samples_beyond(n, pct):
    """How many of n samples lie strictly above the pct-th percentile."""
    return math.floor(n * (100.0 - pct) / 100.0 + 1e-9)


def reportable(n, pct):
    """True when pct may be reported from n samples."""
    return n > 0 and samples_beyond(n, pct) >= MIN_SAMPLES_BEYOND


def percentile(values, pct):
    """The pct-th percentile, interpolating linearly between closest ranks.

    Raises ValueError when fewer than MIN_SAMPLES_BEYOND samples lie beyond
    it: a tail figure from too few samples is noise, not a measurement.
    """
    if not reportable(len(values), pct):
        raise ValueError(
            f"p{pct:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"have {len(values)} samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values):
    return statistics.median(values)


def failed_fraction(attempted, failed):
    """Failed output checks over attempted ones; no attempt counts as failure."""
    if attempted <= 0:
        return 1.0
    if failed < 0 or failed > attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def _canonical(value):
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, float):
        return f"f{value.hex()}"
    if isinstance(value, str):
        return "s" + value.encode("unicode_escape").decode("ascii")
    if isinstance(value, dict):
        return "{" + ",".join(f"{_canonical(k)}:{_canonical(value[k])}"
                              for k in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    raise TypeError(f"cannot digest {type(value).__name__}")


def outcome_digest(records):
    """Hash of simulated outcome records (lists/dicts of numbers).

    Floats enter by their exact bits (float.hex) and dict keys in sorted
    order, so the digest depends only on the values, never on formatting or
    key order. 16 hex digits.
    """
    return hashlib.sha256(_canonical(records).encode("ascii")).hexdigest()[:16]

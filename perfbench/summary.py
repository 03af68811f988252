"""Summary logic of the host-time benchmark: percentiles, ratios, failures.

Pure functions over the raw samples hostbench prints, kept apart from
run.py so test_summary.py can check them without building anything.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer would make the tail one or two unlucky samples.
MIN_BEYOND = 10


def median(samples):
    """Median of a non-empty sample list."""
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n samples."""
    return n - math.ceil(q * n)


def tail_percentile(samples, q):
    """Nearest-rank q-th percentile (0 < q < 1), or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    n = len(samples)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND:
        return None
    return sorted(samples)[math.ceil(q * n) - 1]


def highest_reportable(n, candidates=(0.999, 0.99, 0.95, 0.9, 0.75)):
    """Highest candidate percentile n samples can report, or None."""
    for q in candidates:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def describe(samples, unit, q=0.99):
    """One log line: median, tail and the sample count they rest on."""
    n = len(samples)
    if n == 0:
        return "no samples"
    text = f"p50={median(samples):.6g} {unit}"
    tail = tail_percentile(samples, q)
    if tail is None:
        best = highest_reportable(n)
        if best is not None:
            tail, q = tail_percentile(samples, best), best
    if tail is not None:
        text += f" p{q * 100:g}={tail:.6g} {unit}"
    return text + f" (n={n})"


def ratio(numerator, base):
    """numerator / base, 0.0 when the base is 0 (nothing to divide)."""
    return numerator / base if base else 0.0


def format_ratio(numerator, base, base_label):
    """A ratio with its base, e.g. '0.0825 (1.65e+06 / 2e+07 net.messages.tx)'."""
    return f"{ratio(numerator, base):.4g} ({numerator:.6g} / {base:.6g} {base_label})"


def fail_frac(passes):
    """(attempted, failed, failed / attempted) summed over passes.

    Each pass counts its operations (RPC requests, monitor epochs) and its
    output checks as attempted, and the ones that failed as failed. A run
    that attempted nothing is reported as one failed attempt, never as clean.
    """
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if attempted == 0:
        return 1, 1, 1.0
    return attempted, failed, failed / attempted

"""Order statistics and failure accounting for the tcsim benchmark.

Every percentile is computed from raw per-operation samples, never from a
bucketed histogram: a power-of-two bucket reports its upper edge (the
phantom 65.536 ms hold p99), while a nearest-rank percentile is always one of
the samples, so it lies inside [min, max] by construction.
"""

import math

# A tail percentile is only reported where at least this many samples lie
# beyond it.
TAIL_BEYOND = 10


def percentile(samples, p):
    """Nearest-rank p-th percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    xs = sorted(samples)
    # The epsilon keeps p * n / 100 that should be whole (95 * 200 / 100)
    # from rounding up past its rank.
    rank = math.ceil(p * len(xs) / 100 - 1e-9)
    return xs[min(max(rank, 1), len(xs)) - 1]


def tail_percentile(n):
    """The highest percentile of n samples that has TAIL_BEYOND samples
    beyond it: 95 for 200 samples, 90 for 100. With n <= TAIL_BEYOND no
    percentile qualifies and the tail is the maximum (100)."""
    if n <= TAIL_BEYOND:
        return 100.0
    return 100.0 * (n - TAIL_BEYOND) / n


def summarize(samples):
    """Median and tail of raw samples, with the sample count and the
    percentile the tail is."""
    n = len(samples)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": 0.0}
    tail_pct = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(samples, 50),
        "tail": percentile(samples, tail_pct),
        "tail_pct": tail_pct,
    }


def count_failures(op_ok, failures):
    """(attempted, failed) for one run.

    `op_ok` has one entry per attempted operation; `failures` lists the
    run's failed checks. A failed check that no operation accounts for still
    fails the run: it counts as one failed operation, so a check can never
    pass silently.
    """
    attempted = len(op_ok)
    failed = sum(1 for ok in op_ok if not ok)
    if failures and failed == 0:
        failed = 1
        attempted = max(attempted, 1)
    return attempted, failed

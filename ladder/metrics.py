"""Sample statistics and failure accounting for the layer-ladder benchmark."""

import math
import statistics

# Percentiles the tail helper may report, lowest first.
TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def _rank(p, n):
    # Rounded first so that, e.g., 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(values, min_beyond=MIN_BEYOND):
    """(p, value) for the highest percentile in TAIL_PERCENTILES that has at
    least `min_beyond` samples above its rank, or None when even the lowest
    one has fewer."""
    n = len(values)
    best = None
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= min_beyond:
            best = (p, percentile(values, p))
    return best


def timing(values):
    """Median, tail and count of a list of timings, as a report entry."""
    entry = {"n": len(values)}
    if values:
        entry["p50"] = statistics.median(values)
        t = tail(values)
        if t is not None:
            entry["tail_p"], entry["tail"] = t
    return entry


class Tally:
    """Attempted and failed operations. A failure is a non-zero exit, an
    error frame, an eviction, a timeout or a gate mismatch; only the last
    one means an output was wrong."""

    KINDS = ("exit", "error", "evicted", "timeout", "mismatch")

    def __init__(self):
        self.attempted = 0
        self.failed = {k: 0 for k in self.KINDS}

    def ok(self):
        self.attempted += 1

    def fail(self, kind):
        if kind not in self.failed:
            raise ValueError(f"unknown failure kind {kind}")
        self.attempted += 1
        self.failed[kind] += 1

    @property
    def failures(self):
        return sum(self.failed.values())

    @property
    def fail_frac(self):
        return self.failures / self.attempted if self.attempted else 1.0

    @property
    def correct(self):
        return self.failed["mismatch"] == 0

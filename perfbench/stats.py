"""Summary statistics of the benchmark: medians and means, the tail-percentile rule
and the quartile spread used to judge steadiness."""

import math
import statistics
from fractions import Fraction

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, the "percentile" is one or two outliers.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def median(values):
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)


def mean(values):
    if not values:
        raise TooFewSamples("mean of no samples")
    return statistics.fmean(values)


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (exact
    arithmetic, so p99 of 1000 samples is rank 990, not 991)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def percentile(values, p):
    """Nearest-rank p-th percentile with its sample count.  Returns
    (value, n).  Refuses (TooFewSamples) when fewer than MIN_BEYOND samples
    lie beyond it, except for the median, which any non-empty set has."""
    n = len(values)
    if n == 0:
        raise TooFewSamples(f"p{p:g} of no samples")
    if p == 50:
        return median(values), n
    if beyond(n, p) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} of {n} samples has {beyond(n, p)} beyond it (< {MIN_BEYOND})")
    ordered = sorted(values)
    return ordered[rank(n, p) - 1], n


def highest_percentile(n):
    """The highest percentile (to 0.1) that still has MIN_BEYOND samples
    beyond it, or None when n is too small for any tail percentile."""
    best = None
    for tenths in range(500, 1000):
        if beyond(n, tenths / 10.0) >= MIN_BEYOND:
            best = tenths / 10.0
    return best


def quartile_spread(values):
    """(Q3 - Q1) / median, the run-to-run spread of one metric."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2

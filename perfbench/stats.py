"""Summary statistics for benchmark samples (stdlib only).

Tail percentiles are only reported when they rest on enough data: a
percentile needs at least :data:`MIN_BEYOND` samples strictly beyond it,
so a p90 needs 92 samples and a p50 needs 20.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the linear-interpolation rank of ``q``."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation, as numpy's default).

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples lie beyond it.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    data = sorted(float(v) for v in values)
    n = len(data)
    beyond = samples_beyond(n, q) if n else 0
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def percentile_or(values, q: float, default: float) -> float:
    """:func:`percentile`, or ``default`` when it would be refused."""
    try:
        return percentile(values, q)
    except TooFewSamples:
        return default


def median(values) -> float:
    """Plain median: used for run-level figures built from a few samples."""
    data = [float(v) for v in values]
    if not data:
        raise TooFewSamples("median of no samples")
    return statistics.median(data)


def spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, med, q3 = statistics.quantiles([float(v) for v in values], n=4)
    return (q3 - q1) / med if med else math.inf

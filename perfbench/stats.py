"""Order statistics for the benchmark's timings.

Percentiles use the nearest-rank definition: the p-th percentile of ``n``
sorted samples is the sample at rank ``ceil(p / 100 * n)``.  A percentile
is only reported when at least :data:`MIN_BEYOND` samples lie beyond it,
so a tail figure never rests on one or two outliers.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Percentiles considered by :func:`tail_percentile`, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to have a tail beyond it."""


def _rank(p: float, n: int) -> int:
    # Round away float noise (0.99 * 1000 is 989.999...) before the ceiling.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def beyond(p: float, n: int) -> int:
    """Number of samples strictly past the nearest-rank ``p``-th percentile."""
    return n - _rank(p, n)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(samples: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile of :data:`LADDER` with at least
    :data:`MIN_BEYOND` samples beyond it: ``(p, value, n)``.

    Raises :class:`TooFewSamples` when even the median has too thin a tail.
    """
    n = len(samples)
    for p in LADDER:
        if beyond(p, n) >= MIN_BEYOND:
            return p, percentile(samples, p), n
    raise TooFewSamples(f"{n} samples support no percentile in {LADDER}")


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def timing_lines(label: str, samples: Sequence[float]) -> list:
    """``[(name, value, n)]`` for the median and the tail of ``samples``,
    named ``<label>_p50_ms`` and ``<label>_p<P>_ms``."""
    if not samples:
        return []
    lines = [(f"{label}_p50_ms", median(samples), len(samples))]
    try:
        p, value, n = tail_percentile(samples)
    except TooFewSamples:
        return lines
    if p > 50:
        lines.append((f"{label}_p{p:g}_ms", value, n))
    return lines

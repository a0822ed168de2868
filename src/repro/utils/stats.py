"""Statistics helpers shared by scoring and evaluation code.

The geometric mean here is the exact form of Eq. 6 in the paper (path
semantic similarity), computed in log space to avoid underflow on long
paths; the Pearson correlation implements the user-study metric of Section
VII-D.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def finite_positive(value: float, *, allow_zero: bool = False) -> bool:
    """A finite number above zero (or equal to it, with ``allow_zero``).

    ``nan`` fails every comparison, so a bare ``value <= 0`` guard waves
    it (and ``inf``) through; every duration, rate and bound a caller
    can type is checked with this instead.
    """
    return math.isfinite(value) and (value >= 0 if allow_zero else value > 0)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; 0.0 if any value is <= 0.

    The paper's weights are cosine similarities clamped into [0, 1]; a zero
    weight means "semantically unrelated", which collapses the whole path
    score to zero rather than raising.

    >>> round(geometric_mean([0.5, 0.5]), 6)
    0.5
    >>> geometric_mean([1.0, 0.0])
    0.0
    """
    log_sum = 0.0
    count = 0
    for value in values:
        if value <= 0.0:
            return 0.0
        log_sum += math.log(value)
        count += 1
    if count == 0:
        raise ValueError("geometric_mean of an empty sequence")
    return math.exp(log_sum / count)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises :class:`ValueError` on empty input."""
    if not values:
        raise ValueError("mean of an empty sequence")
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    The nearest-rank definition always returns an observed value, which is
    what latency reporting wants (a p99 that was actually experienced by a
    request, not an interpolated artefact).

    >>> percentile([4.0, 1.0, 3.0, 2.0], 50)
    2.0
    >>> percentile([4.0, 1.0, 3.0, 2.0], 100)
    4.0
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank must be in [0, 100], got {q}")
    ordered = sorted(values)
    # Rounding before ceil keeps binary-float dust (7/100*100 =
    # 7.000000000000001) from overshooting an exact integer rank.
    rank = max(1, math.ceil(round(q / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient between two equal-length lists.

    Returns 0.0 when either list has zero variance (the convention used by
    the user-study evaluation, where a constant preference list carries no
    ranking signal).  The coefficient is clamped to ``[-1, 1]``: with a
    denormal variance the quotient can land ~1e-7 outside the interval
    Cauchy-Schwarz guarantees.
    """
    if len(xs) != len(ys):
        raise ValueError("pearson_correlation requires equal-length inputs")
    if len(xs) < 2:
        raise ValueError("pearson_correlation requires at least two points")
    mx = mean(xs)
    my = mean(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    var_x = sum((x - mx) ** 2 for x in xs)
    var_y = sum((y - my) ** 2 for y in ys)
    denominator = math.sqrt(var_x) * math.sqrt(var_y)
    if denominator == 0.0:
        # Either list is constant (or its variance underflowed): no signal.
        return 0.0
    return max(-1.0, min(1.0, cov / denominator))

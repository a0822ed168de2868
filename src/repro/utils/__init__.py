"""Small shared utilities: a heap, clocks, RNG helpers, statistics."""

from repro.utils.heap import MaxHeap
from repro.utils.rng import derive_rng, stable_hash
from repro.utils.stats import geometric_mean, mean, pearson_correlation
from repro.utils.timing import BudgetClock, Clock, Stopwatch, WallClock

__all__ = [
    "MaxHeap",
    "derive_rng",
    "stable_hash",
    "geometric_mean",
    "mean",
    "pearson_correlation",
    "BudgetClock",
    "Clock",
    "Stopwatch",
    "WallClock",
]

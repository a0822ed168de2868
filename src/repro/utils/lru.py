"""The one bounded LRU map, and the one stats shape every row cache reports.

Both row caches in the system — the predicate space's similarity rows
(:mod:`repro.embedding.predicate_space`) and the serving layer's
whole-graph rows (:mod:`repro.serve.cache`) — are an ``OrderedDict``
with a capacity and three counters.  They share this class and this
dataclass; each owner keeps its own lock around it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import astuple, dataclass, replace
from typing import Hashable


@dataclass
class CacheStats:
    """A point-in-time snapshot of one LRU's effectiveness.

    ``hits`` / ``misses`` / ``evictions`` are monotonic counters (a
    phase's are :meth:`since` a baseline); ``entries`` / ``capacity``
    are gauges — they describe *now*.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Pool-wide totals: every field adds, the gauges included ("how
        much do the pool's caches hold overall")."""
        return CacheStats(*(a + b for a, b in zip(astuple(self), astuple(other))))

    def since(self, baseline: "CacheStats") -> "CacheStats":
        """This snapshot with the counters taken relative to ``baseline``;
        the gauges are kept as they are."""
        return replace(
            self,
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            evictions=self.evictions - baseline.evictions,
        )

    def describe(self) -> str:
        return (
            f"hit_rate={self.hit_rate:.3f} "
            f"(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, entries={self.entries}/{self.capacity})"
        )


class LruMap:
    """A capacity-bounded LRU dict with hit/miss/eviction counters.

    Not locked and not validated — the owning cache synchronises around
    it and rejects a capacity below 1 with its own error type.  Values
    are arbitrary objects; ``None`` is reserved as the miss sentinel.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable):
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        if key in self.entries:
            self.entries.move_to_end(key)
        self.entries[key] = value
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=len(self.entries),
            capacity=self.capacity,
        )

"""Shared, thread-safe semantic-graph weight cache.

The engine's per-query :class:`~repro.core.semantic_graph.SemanticGraphView`
is correct but amnesiac: every query re-weights the same knowledge-graph
edges against the predicate space and re-derives the same ``m(u)`` bounds
(Lemma 1).  Both quantities are pure functions of the (graph, space,
``min_weight``) triple — nothing about a query instance enters them — so a
workload of repeated or overlapping queries can share them.

:class:`SemanticGraphCache` holds two LRU-bounded maps:

- **pair weights** ``(query predicate, graph predicate) → weight`` — the
  Eq. 5 cosines, clamped; cheap individually but looked up on every edge
  the A* search crosses;
- **adjacency bounds** ``(node, query predicate) → m(u)`` — each miss costs
  a full incident-edge scan, which makes this map the dominant saving on
  repeated workloads (every A* estimate needs an ``m(u)``).

A third LRU map holds **rows** — opaque whole-graph vectors keyed by
``(kind, query predicate)`` — for the compact CSR kernel
(:mod:`repro.core.compact_view`), whose unit of sharing is one query
predicate against the entire graph (``kind="weights"``: clamped weight
per interned graph-predicate id; ``kind="bounds"``: ``m(u)`` per node;
``kind="log_weights"`` / ``"log_bounds"``: their exact-log twins, which
the array-backed search kernel reads instead of taking logs per search).
Rows are treated as immutable by contract; the cache never copies them.

Eviction never affects correctness — a miss recomputes — so the LRU bound
is purely a memory ceiling.  All operations take one lock; the critical
sections are dict lookups, far cheaper than the graph traversal they
replace.  Hit/miss/eviction counts are kept per map and aggregated by
:class:`CacheStats`.

The cache must be *bound* to exactly one (graph, space, ``min_weight``)
combination before use (views do this automatically); re-binding to a
different combination raises — serving weights from a different predicate
space would corrupt results silently.  The fingerprint views bind also
carries the graph's entity/edge counts, so growing the append-only graph
under a live cache raises at the next view construction instead of
silently serving stale ``m(u)`` bounds or rows.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from repro.errors import ServeError


@dataclass
class CacheStats:
    """A point-in-time snapshot of cache effectiveness."""

    weight_hits: int = 0
    weight_misses: int = 0
    weight_evictions: int = 0
    adjacency_hits: int = 0
    adjacency_misses: int = 0
    adjacency_evictions: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_evictions: int = 0
    weight_entries: int = 0
    adjacency_entries: int = 0
    row_entries: int = 0

    @property
    def hits(self) -> int:
        return self.weight_hits + self.adjacency_hits + self.row_hits

    @property
    def misses(self) -> int:
        return self.weight_misses + self.adjacency_misses + self.row_misses

    @property
    def evictions(self) -> int:
        return self.weight_evictions + self.adjacency_evictions + self.row_evictions

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def describe(self) -> str:
        return (
            f"hit_rate={self.hit_rate:.3f} "
            f"(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, "
            f"entries={self.weight_entries}+{self.adjacency_entries}"
            f"+{self.row_entries})"
        )


class LruMap:
    """A capacity-bounded LRU dict with hit/miss/eviction counters.

    Not locked — callers (the cache below) synchronise around it.
    Values are arbitrary objects; ``None`` is reserved as the miss
    sentinel.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ServeError(f"cache capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self.entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Tuple):
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Tuple, value) -> None:
        if key in self.entries:
            self.entries.move_to_end(key)
        self.entries[key] = value
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self.entries.clear()


class SemanticGraphCache:
    """Cross-query LRU cache of semantic-graph weights and ``m(u)`` bounds.

    Implements the :class:`~repro.core.semantic_graph.WeightCache`
    protocol; hand one instance to a
    :class:`~repro.core.engine.SemanticGraphQueryEngine` (``weight_cache=``)
    or let :class:`~repro.serve.service.QueryService` own one.

    Args:
        max_pairs: capacity of the pair-weight map.  The live pair count is
            ``|query predicates seen| × |graph predicates|`` — small — so
            the default never evicts in practice; it exists as a hard
            ceiling for adversarial predicate churn.
        max_adjacency: capacity of the adjacency map, the memory-heavy one
            (up to ``|touched nodes| × |query predicates seen|`` entries).
        max_rows: capacity of the row map used by compact views.  The
            live count is ``4 × |query predicates seen|`` (weights,
            bounds and the exact-log twin of each) plus one hop label
            per (query-node signature, n̂) seen; the bound caps
            adversarial predicate and entity churn.  Unlike the scalar
            maps, each entry here is a whole-graph vector — bounds rows
            and their logs cost 8 bytes *per graph node*, a hop label
            1 — so deployments on very large graphs should size
            ``max_rows`` against ``8 × num_nodes`` per entry, not treat
            it as a near-free ceiling.
    """

    def __init__(
        self,
        *,
        max_pairs: int = 65536,
        max_adjacency: int = 1_000_000,
        max_rows: int = 1024,
    ):
        self._lock = threading.Lock()
        self._weights = LruMap(max_pairs)
        self._adjacent = LruMap(max_adjacency)
        self._rows = LruMap(max_rows)
        self._fingerprint: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # WeightCache protocol
    # ------------------------------------------------------------------
    def bind(self, fingerprint: Tuple) -> None:
        """Pin this cache to one (graph, space, min_weight) combination.

        The stored fingerprint keeps strong references to its objects and
        compares them by identity — holding them alive is what guarantees
        a recycled memory address can never impersonate the bound graph
        or space.
        """
        with self._lock:
            if self._fingerprint is None:
                self._fingerprint = fingerprint
                return
            same = len(self._fingerprint) == len(fingerprint) and all(
                ours is theirs or ours == theirs
                for ours, theirs in zip(self._fingerprint, fingerprint)
            )
            if not same:
                raise ServeError(
                    "SemanticGraphCache is already bound to a different "
                    "(graph, space, min_weight) combination — or the "
                    "append-only graph has grown since binding, which "
                    "invalidates cached m(u) bounds and rows.  Use one "
                    "cache per engine configuration and rebuild it after "
                    "graph mutation."
                )

    def get_weight(self, query_predicate: str, graph_predicate: str) -> Optional[float]:
        with self._lock:
            return self._weights.get((query_predicate, graph_predicate))

    def put_weight(self, query_predicate: str, graph_predicate: str, weight: float) -> None:
        with self._lock:
            self._weights.put((query_predicate, graph_predicate), weight)

    def get_adjacent(self, uid: int, query_predicate: str) -> Optional[float]:
        with self._lock:
            return self._adjacent.get((uid, query_predicate))

    def put_adjacent(self, uid: int, query_predicate: str, weight: float) -> None:
        with self._lock:
            self._adjacent.put((uid, query_predicate), weight)

    def get_row(self, kind: str, key: Hashable) -> Optional[object]:
        """One whole-graph row (compact-kernel protocol); ``None`` on miss."""
        with self._lock:
            return self._rows.get((kind, key))

    def put_row(self, kind: str, key: Hashable, row: object) -> None:
        """Publish a whole-graph row.  Rows are immutable by contract."""
        with self._lock:
            self._rows.put((kind, key), row)

    # ------------------------------------------------------------------
    # introspection / maintenance
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Consistent snapshot of counters and entry counts."""
        with self._lock:
            return CacheStats(
                weight_hits=self._weights.hits,
                weight_misses=self._weights.misses,
                weight_evictions=self._weights.evictions,
                adjacency_hits=self._adjacent.hits,
                adjacency_misses=self._adjacent.misses,
                adjacency_evictions=self._adjacent.evictions,
                row_hits=self._rows.hits,
                row_misses=self._rows.misses,
                row_evictions=self._rows.evictions,
                weight_entries=len(self._weights.entries),
                adjacency_entries=len(self._adjacent.entries),
                row_entries=len(self._rows.entries),
            )

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._weights.entries)
                + len(self._adjacent.entries)
                + len(self._rows.entries)
            )

    def clear(self) -> None:
        """Drop all entries (the binding and counters survive)."""
        with self._lock:
            self._weights.clear()
            self._adjacent.clear()
            self._rows.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (entries survive).

        Lets a workload driver report per-phase hit rates — e.g. reset
        after a cold pass so the warm pass's rate is not diluted by the
        cold misses.
        """
        with self._lock:
            for lru in (self._weights, self._adjacent, self._rows):
                lru.hits = 0
                lru.misses = 0
                lru.evictions = 0

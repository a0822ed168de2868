"""Shared, thread-safe cache of whole-graph semantic-graph rows.

A per-query view is correct but amnesiac: every query re-derives the
same weights and ``m(u)`` bounds (Lemma 1) for the same query
predicates.  For a fixed (graph, space, ``min_weight``) none of them
depends on the query *instance*, so a workload of repeated or
overlapping queries can share them — and the unit the production path
(:mod:`repro.core.compact_view`) computes, and therefore shares, is a
**row**: one key against the entire graph.

:class:`SemanticGraphCache` is one LRU of such rows keyed
``(kind, key)`` — ``"weights"``: clamped weight per interned
graph-predicate id; ``"bounds"``: ``m(u)`` per node; ``"log_weights"``
/ ``"log_bounds"``: their exact-log twins, which the array-backed
search kernel reads instead of taking logs per search; ``"hop_label"``:
one byte per node, the hop distance to a query node's φ set.  Rows are
immutable by contract; the cache never copies them.

A row must be a function of its key and the binding, nothing else:
whatever a row depends on beyond the bound (graph, space,
``min_weight``) — a hop label depends on the matcher's transformation
library — is part of its key.  Eviction never affects correctness — a
miss recomputes — so the LRU bound is purely a memory ceiling.  All
operations take one lock; the critical sections are dict lookups.

The cache must be *bound* to exactly one (graph, space, ``min_weight``)
combination before use (views do this automatically); re-binding to a
different combination raises — serving weights from a different
predicate space would corrupt results silently.  A frozen store is
immutable, so its identity is the whole graph part of the fingerprint;
the lazy view's fingerprint also carries the live graph's entity/edge
counts, so growing it under a live cache raises at the next view
construction instead of silently serving stale rows.
"""

from __future__ import annotations

import threading
from typing import Hashable, Optional, Tuple

from repro.errors import ServeError
from repro.utils.lru import CacheStats, LruMap


class SemanticGraphCache:
    """Cross-query LRU cache of whole-graph rows.

    Implements the :class:`~repro.core.semantic_graph.WeightCache`
    protocol; hand one instance to a
    :class:`~repro.core.engine.SemanticGraphQueryEngine` (``weight_cache=``)
    or let :class:`~repro.serve.service.QueryService` own one.

    Args:
        max_rows: capacity.  The live count is ``4 × |query predicates
            seen|`` (weights, bounds and the exact-log twin of each)
            plus one hop label per (query-node signature, n̂) seen; the
            bound caps adversarial predicate and entity churn.  Each
            entry is a whole-graph vector — bounds rows and their logs
            cost 8 bytes *per graph node*, a hop label 1 — so
            deployments on very large graphs should size ``max_rows``
            against ``8 × num_nodes`` per entry, not treat it as a
            near-free ceiling.
    """

    def __init__(self, *, max_rows: int = 1024):
        if max_rows < 1:
            raise ServeError(f"cache capacity must be at least 1, got {max_rows}")
        self._lock = threading.Lock()
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

    def get_row(self, kind: str, key: Hashable) -> Optional[object]:
        """One whole-graph row; ``None`` on miss."""
        with self._lock:
            return self._rows.get((kind, key))

    def put_row(self, kind: str, key: Hashable, row: object) -> None:
        """Publish a whole-graph row.  Rows are immutable by contract."""
        with self._lock:
            self._rows.put((kind, key), row)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Consistent snapshot of counters and entry count."""
        with self._lock:
            return self._rows.stats()

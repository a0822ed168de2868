"""The predicate semantic space E = {e1...en} of Section IV-A.

Maps each predicate name to its semantic vector and answers the questions
the rest of the system asks:

- ``similarity(a, b)`` — the cosine of Eq. 5, used as semantic-graph edge
  weights;
- ``similarity_row(p)`` — the cosines of one predicate against **all**
  predicates at once, one matvec per row.  The compact graph kernel
  (:mod:`repro.core.compact_view`) materialises a whole query predicate's
  weights this way instead of one pair at a time;
- ``top_similar(p, n)`` — the n most similar predicates, used by the edge-
  noise experiment (Section VII-E replaces a predicate with one of its
  top-10 neighbours) and by debugging tools.

Memoisation is **row-level and bounded**: the space keeps an LRU of
similarity rows (one ``float64`` vector per predicate asked about — a
:class:`~repro.utils.lru.LruMap` under the space's own lock, reporting
the same :class:`~repro.utils.lru.CacheStats` as the serving layer's
row cache), and ``similarity(a, b)`` reads element ``b`` of row ``a``.
Query workloads ask about few distinct predicates but pair each with
every graph predicate, so a row is exactly the reuse unit — and unlike
a per-pair dict, the LRU cannot grow without bound under workload replay.
Row reads also make the scalar and vector paths bit-identical: both
serve from the same matvec output.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import EmbeddingError, UnknownPredicateError
from repro.utils.lru import CacheStats, LruMap


class PredicateSpace:
    """Immutable predicate → unit-vector mapping with cosine queries.

    Args:
        vectors: predicate name → vector mapping (normalised internally).
        max_cached_rows: LRU bound on memoised similarity rows.  Each row
            costs 8 bytes per predicate; eviction only ever costs a
            recomputed matvec.

    >>> import numpy as np
    >>> space = PredicateSpace({"a": np.array([1.0, 0.0]), "b": np.array([1.0, 1.0])})
    >>> round(space.similarity("a", "b"), 4)
    0.7071
    """

    def __init__(self, vectors: Mapping[str, np.ndarray], *, max_cached_rows: int = 256):
        if not vectors:
            raise EmbeddingError("predicate space needs at least one vector")
        dims = {np.asarray(v).shape for v in vectors.values()}
        if len(dims) != 1:
            raise EmbeddingError(f"inconsistent vector shapes: {sorted(dims)}")
        (shape,) = dims
        if len(shape) != 1 or shape[0] == 0:
            raise EmbeddingError("predicate vectors must be non-empty 1-D arrays")

        self._names: List[str] = list(vectors)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self._names)}
        matrix = np.array([np.asarray(vectors[name], dtype=float) for name in self._names])
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise EmbeddingError("zero-norm predicate vector")
        self._matrix = matrix / norms
        # Bounded LRU of similarity rows: predicate index -> read-only row.
        # Locked: one space is shared by every QueryService worker thread,
        # and an unsynchronised LRU could evict an entry between a get and
        # its move_to_end (KeyError mid-query).  The critical section is
        # dict bookkeeping or one small matvec — far below query cost.
        self._rows = self._fresh_rows(max_cached_rows)
        self._rows_lock = threading.Lock()

    @staticmethod
    def _fresh_rows(max_cached_rows: int) -> LruMap:
        if max_cached_rows < 1:
            raise EmbeddingError(
                f"max_cached_rows must be at least 1, got {max_cached_rows}"
            )
        return LruMap(max_cached_rows)

    # ------------------------------------------------------------------
    def predicates(self) -> List[str]:
        return list(self._names)

    def __contains__(self, predicate: str) -> bool:
        return predicate in self._index

    def index_of(self, predicate: str) -> int:
        """The stable row index of ``predicate`` in this space."""
        try:
            return self._index[predicate]
        except KeyError:
            raise UnknownPredicateError(predicate) from None

    # ------------------------------------------------------------------
    def _row(self, index: int) -> np.ndarray:
        """The memoised cosine row of predicate ``index`` (read-only)."""
        with self._rows_lock:
            row = self._rows.get(index)
            if row is not None:
                return row
            # Elementwise product + per-row pairwise sum, NOT a BLAS
            # matvec: the reduction order is then identical for row(a)[b]
            # and row(b)[a], which keeps Eq. 5 exactly symmetric at the
            # ulp level (gemv blocking does not promise that).
            row = (self._matrix * self._matrix[index]).sum(axis=1)
            # The self-cosine is exactly 1.0 by definition; the product
            # sum only promises it to rounding error.  Pin it so scalar
            # callers see the identity the paper's Eq. 5 assumes.
            row[index] = 1.0
            row.flags.writeable = False
            self._rows.put(index, row)
            return row

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity (Eq. 5) in [-1, 1]; 1.0 when ``a == b``.

        Served from the memoised row of ``a`` — one matvec the first time
        ``a`` is asked about, an array read afterwards.
        """
        ia = self.index_of(a)
        ib = self.index_of(b)
        if ia == ib:
            return 1.0
        return float(self._row(ia)[ib])

    def similarity_row(self, predicate: str) -> np.ndarray:
        """Cosines of ``predicate`` against every predicate, space order.

        One matvec materialises the whole row (Eq. 5 against all graph
        predicates at once); the result is cached, read-only, and indexed
        by :meth:`index_of`.  ``row[index_of(predicate)]`` is exactly 1.0.
        """
        return self._row(self.index_of(predicate))

    # The lock is process-local and the memoised rows are recomputable,
    # so pickling (e.g. shipping a space to a multiprocess worker) keeps
    # only the row cache's capacity: the pickle's size then depends on
    # the space, not on how warm the sender's cache happens to be.  The
    # receiving process starts a fresh lock and an empty cache.
    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        del state["_rows_lock"]
        state["_rows"] = self._rows.capacity
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._rows = self._fresh_rows(state["_rows"])
        self._rows_lock = threading.Lock()

    def stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the similarity-row cache."""
        with self._rows_lock:
            return self._rows.stats()

    def similarities_to(self, predicate: str) -> Dict[str, float]:
        """Cosine from ``predicate`` to every predicate (including itself)."""
        row = self.similarity_row(predicate)
        return {name: float(row[i]) for i, name in enumerate(self._names)}

    def top_similar(
        self, predicate: str, n: int = 10, *, include_self: bool = False
    ) -> List[Tuple[str, float]]:
        """The ``n`` most similar predicates, best first."""
        scores = self.similarities_to(predicate)
        if not include_self:
            scores.pop(predicate, None)
        ranked = sorted(scores.items(), key=lambda kv: kv[1], reverse=True)
        return ranked[:n]

    def with_private_rows(
        self, *, max_cached_rows: Optional[int] = None
    ) -> "PredicateSpace":
        """A clone sharing this space's vectors but with its own row LRU.

        The normalised matrix, name list and index are shared (no copy);
        only the memoised-row cache, its lock and its counters are fresh.
        Rows computed by the clone are bit-identical to this space's —
        the reduction runs over the very same matrix — so a clone times
        or counts rows from an empty cache without touching the
        original's.  Nothing under ``src/`` calls it; the perf ledger's
        cold-row probe (``benchmarks/ledger/layers.py``) does, and tests
        use it for a space whose counters start at zero.
        """
        clone = object.__new__(PredicateSpace)
        clone._names = self._names
        clone._index = self._index
        clone._matrix = self._matrix
        clone._rows = self._fresh_rows(
            self._rows.capacity if max_cached_rows is None else max_cached_rows
        )
        clone._rows_lock = threading.Lock()
        return clone

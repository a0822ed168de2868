"""Vectorized semantic-graph view over the compact CSR kernel.

:class:`CompactSemanticGraphView` is a drop-in
:class:`~repro.core.semantic_graph.WeightedGraphView` whose unit of work
is a **row**, not a pair:

- the weights of a query predicate against *every* graph predicate come
  from one :meth:`~repro.embedding.predicate_space.PredicateSpace
  .similarity_row` matvec, scattered onto the graph's interned predicate
  ids and clamped exactly as the lazy view clamps (Eq. 5, [0, 1],
  ``min_weight`` zeroing);
- ``weighted_incident`` is a CSR slice plus a fancy-index into that row —
  no per-edge dict probes, no ``Edge.other`` branches (the CSR stores the
  other endpoint);
- ``m(u)`` (Lemma 1) for *all* nodes at once is a segment-max
  (``np.maximum.reduceat``) over the per-slot weights, so the A*'s
  Eq. 7 estimates read an array instead of scanning incidence lists.

Rows are exactly the cross-query reuse unit, so when the view is backed
by a shared :class:`~repro.serve.cache.SemanticGraphCache` it gets/puts
whole rows (``kind in {"weights", "bounds"}``, plus their exact-log
twins ``"log_weights"`` / ``"log_bounds"`` for the array-backed search
kernel, and ``"hop_label"`` per φ key for the reach prune) — one cache
round-trip per query predicate — and the serving layer's warm-workload
win composes with the kernel's cold-query win.

Equivalence with the lazy view is exact, not approximate: both serve
weights from the same cached ``PredicateSpace`` rows and walk the same
store's slots in the same order (heap tie-breaks match).  The
view-level suite in ``tests/test_compact_view.py`` and the engine
columns of ``tests/test_conformance.py`` pin all of this.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.pss import log_weight
from repro.embedding.predicate_space import PredicateSpace
from repro.errors import UnknownPredicateError
from repro.kg.compact import CompactGraph, check_frozen_shape
from repro.kg.graph import Edge, GraphReader
from repro.core.semantic_graph import (
    PhiKey,
    SemanticGraphView,
    WeightCache,
    WeightedGraphView,
    shared_hop_label,
)

# The engine's view-construction seam: (kg, space, *, min_weight, cache) ->
# a per-query WeightedGraphView.  `LazyViewFactory` is the default;
# `CompactViewFactory` serves the CSR kernel over the same kind of store.
ViewFactory = Callable[..., WeightedGraphView]


def shared_weight_row(
    view, graph: CompactGraph, query_predicate: str
) -> Tuple[np.ndarray, List[float]]:
    """A view's clamped weights of ``query_predicate`` per graph-predicate id.

    The one place a weight row is computed, for the compact view over its
    kernel and the sharded view over its shard set (``graph`` is any
    kernel carrying the predicate table; every shard carries the same
    one).  Read through the view's per-query L1 (``_weight_rows``: the
    row plus a plain-list mirror for the scalar hot loop) and its shared
    cache (``_cache``, row kind ``"weights"``: the bare read-only
    ``float64`` vector, the documented row contract); a computed row is
    one :meth:`PredicateSpace.similarity_row` scattered onto the
    interned ids, clamped exactly as the lazy view clamps (Eq. 5,
    [0, 1], ``min_weight`` zeroing); the view's first computed row also
    maps the graph's predicate ids to space rows (``_space_index``: the
    row of each, -1 where the space cannot embed it, and the >= 0 mask)
    for the rest of the query.  Counts ``cache_hits`` and
    ``edges_weighted`` on the view, as :func:`shared_hop_label` does.
    """
    entry = view._weight_rows.get(query_predicate)
    if entry is not None:
        return entry
    cache = view._cache
    row = cache.get_row("weights", query_predicate) if cache is not None else None
    if row is not None:
        view.cache_hits += 1
    else:
        if view._space_index is None:
            index = np.full(len(graph.predicate_names), -1, dtype=np.int64)
            for pid, name in enumerate(graph.predicate_names):
                try:
                    index[pid] = view.space.index_of(name)
                except UnknownPredicateError:
                    pass  # the space cannot embed it: weight 0
            view._space_index = (index, index >= 0)
        index, known = view._space_index
        row = np.zeros(len(graph.predicate_names))
        try:
            space_row = view.space.similarity_row(query_predicate)
        except UnknownPredicateError:
            pass  # unknown query predicate: every weight is 0
        else:
            row[known] = np.clip(space_row[index[known]], 0.0, 1.0)
            if view.min_weight > 0.0:
                row[row < view.min_weight] = 0.0
        row.flags.writeable = False
        view.edges_weighted += row.shape[0]
        if cache is not None:
            cache.put_row("weights", query_predicate, row)
    entry = (row, row.tolist())
    view._weight_rows[query_predicate] = entry
    return entry


def _exact_log_array(values: np.ndarray) -> np.ndarray:
    """``log_weight`` over an array, bit-identical to the scalar path.

    ``np.log`` is not guaranteed bit-identical to ``math.log`` (numpy
    ships its own SIMD loops, allowed to differ by an ulp), and the A*
    heap order hangs on exact priority bits — so logs go through
    :func:`~repro.core.pss.log_weight`, amortised over the *distinct*
    values: a weight or ``m(u)`` row draws from at most one value per
    graph predicate, so the scalar loop runs tens of times, not
    per-node.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    logs = np.fromiter(
        (log_weight(value) for value in distinct.tolist()),
        dtype=np.float64,
        count=distinct.size,
    )
    row = logs[inverse]
    row.flags.writeable = False
    return row


class CompactSemanticGraphView:
    """Weighted view of a :class:`~repro.kg.compact.CompactGraph`.

    Args:
        graph: the frozen CSR kernel.
        space: predicate semantic space providing Eq. 5 similarities.
        min_weight: similarities below this materialise as 0 (same policy
            as :class:`~repro.core.semantic_graph.SemanticGraphView`).
        cache: optional shared
            :class:`~repro.core.semantic_graph.WeightCache`, bound to
            ``(graph, space, min_weight)``: the kernel is immutable, so
            its identity is the whole graph part of the binding.
    """

    def __init__(
        self,
        graph: CompactGraph,
        space: PredicateSpace,
        *,
        min_weight: float = 0.0,
        cache: Optional[WeightCache] = None,
    ):
        self.graph = graph
        self.space = space
        self.min_weight = min_weight
        self._cache = cache
        if cache is not None:
            cache.bind((graph, space, min_weight))

        # L1, per query: query predicate -> (row array, row list), filled
        # by shared_weight_row.  The list mirror serves the scalar hot
        # loop (python floats, no np.float64 boxing per element).
        self._weight_rows: Dict[str, Tuple[np.ndarray, List[float]]] = {}
        # Graph predicate id -> space row, built on the first computed
        # weight row (see shared_weight_row).
        self._space_index: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # L1, per query: query predicate -> read-only per-node m(u)
        # array (what the vectorized search kernel consumes), plus a
        # plain-list mirror built only for the scalar callers.
        self._bounds_arrays: Dict[str, np.ndarray] = {}
        self._bounds_rows: Dict[str, List[float]] = {}
        # L1, per query: (kind, query predicate) -> exact-log twin of the
        # weight / m(u) row.
        self._log_rows: Dict[Tuple[str, str], np.ndarray] = {}
        # L1, per query: φ key + (n̂,) -> hop label (see hop_label).
        self._hop_labels: Dict[Tuple, bytes] = {}
        # Pair weights materialised by this view.  The unit of work is a
        # whole row, so each computed row counts |graph predicates| pairs
        # — a *materialisation* count, deliberately not the lazy view's
        # touched-pair count (vectorisation materialises eagerly; that is
        # the point).  Rows served by the shared cache count zero.
        self.edges_weighted = 0
        self.cache_hits = 0  # rows served by the shared cache

    # ------------------------------------------------------------------
    # row materialisation
    # ------------------------------------------------------------------
    def _weight_row(self, query_predicate: str) -> Tuple[np.ndarray, List[float]]:
        """Clamped weights of ``query_predicate`` (see :func:`shared_weight_row`)."""
        return shared_weight_row(self, self.graph, query_predicate)

    def _bounds_row(self, query_predicate: str) -> List[float]:
        """Plain-list mirror of the ``m(u)`` row, for scalar reads.

        Only :meth:`max_adjacent_weight_any` (the reference search's
        per-state probe) comes through here; the
        vectorized kernel reads :meth:`bounds_row_array` and never pays
        the num_nodes-sized ``tolist``.
        """
        bounds = self._bounds_rows.get(query_predicate)
        if bounds is None:
            bounds = self.bounds_row_array(query_predicate).tolist()
            self._bounds_rows[query_predicate] = bounds
        return bounds

    def _log_row(self, kind: str, query_predicate: str, values: np.ndarray) -> np.ndarray:
        """The exact-log twin of one row, cached beside it as ``kind``."""
        key = (kind, query_predicate)
        logs = self._log_rows.get(key)
        if logs is None:
            if self._cache is not None:
                logs = self._cache.get_row(kind, query_predicate)
            if logs is not None:
                self.cache_hits += 1
            else:
                logs = _exact_log_array(values)
                if self._cache is not None:
                    self._cache.put_row(kind, query_predicate, logs)
            self._log_rows[key] = logs
        return logs

    # ------------------------------------------------------------------
    # WeightedGraphView protocol
    # ------------------------------------------------------------------
    def weighted_incident(
        self, uid: int, query_predicate: str
    ) -> Iterable[Tuple[Edge, int, float]]:
        """One node's weighted incidence: ``(edge, neighbour, weight)``.

        Reads the kernel's per-node slot mirror — the other endpoint and
        the interned predicate id are precomputed at freeze time — and
        indexes the query predicate's weight row; no dict probes, no
        ``Edge.other`` branches.  Same contract (and same yield order) as
        the lazy view's ``weighted_incident``; zero-weight edges are
        yielded for the caller's τ-pruning to judge.
        """
        slots = self.graph.node_slots[uid]
        if not slots:
            return
        entry = self._weight_rows.get(query_predicate)
        if entry is None:
            entry = self._weight_row(query_predicate)
        row_list = entry[1]
        for edge, neighbor, pid in slots:
            yield edge, neighbor, row_list[pid]

    def max_adjacent_weight_any(
        self, uid: int, query_predicates: Iterable[str]
    ) -> float:
        """``m(u)`` against several remaining query predicates (Lemma 1).

        Called once per generated A* state: the L1 dict probe is inlined
        so the common (row already materialised) case is two lookups.
        """
        best = 0.0
        rows = self._bounds_rows
        for predicate in query_predicates:
            row = rows.get(predicate)
            if row is None:
                row = self._bounds_row(predicate)
            weight = row[uid]
            if weight > best:
                best = weight
        return best

    # ------------------------------------------------------------------
    # whole-row surface for the vectorized search kernel
    # ------------------------------------------------------------------
    def weight_row_array(self, query_predicate: str) -> np.ndarray:
        """Read-only clamped weights per interned graph-predicate id.

        The same row :meth:`weighted_incident` serves scalars from, so a
        search kernel indexing it by ``slot_predicate`` sees bit-equal
        weights in CSR slot order.
        """
        return self._weight_row(query_predicate)[0]

    def bounds_row_array(self, query_predicate: str) -> np.ndarray:
        """Read-only ``m(u)`` (Lemma 1) per node — one vectorized segment-max.

        The shared cache and the per-view L1 both hold the compact
        ``float64`` vector (8 bytes per node).
        """
        values = self._bounds_arrays.get(query_predicate)
        if values is not None:
            return values
        if self._cache is not None:
            values = self._cache.get_row("bounds", query_predicate)
            if values is not None:
                self._bounds_arrays[query_predicate] = values
                self.cache_hits += 1
                return values
        row, _row_list = self._weight_row(query_predicate)
        graph = self.graph
        values = np.zeros(graph.num_nodes)
        slot_weights = row[graph.slot_predicate]
        starts = graph.indptr[:-1]
        nonempty = starts < graph.indptr[1:]
        if slot_weights.size:
            # reduceat needs non-empty segments: reduce only rows with
            # incidence, leave isolated nodes at m(u) = 0.
            values[nonempty] = np.maximum.reduceat(slot_weights, starts[nonempty])
        values.flags.writeable = False
        self._bounds_arrays[query_predicate] = values
        if self._cache is not None:
            self._cache.put_row("bounds", query_predicate, values)
        return values

    def log_weight_row_array(self, query_predicate: str) -> np.ndarray:
        """``log_weight`` of :meth:`weight_row_array`, element for element.

        Bit-equal to the scalar :func:`~repro.core.pss.log_weight` of each
        weight (see :func:`_exact_log_array`) and shared across queries
        like the row itself (row kind ``"log_weights"``).
        """
        return self._log_row(
            "log_weights", query_predicate, self._weight_row(query_predicate)[0]
        )

    def log_bounds_row_array(self, query_predicate: str) -> np.ndarray:
        """``log_weight`` of :meth:`bounds_row_array` (row kind ``"log_bounds"``)."""
        return self._log_row(
            "log_bounds", query_predicate, self.bounds_row_array(query_predicate)
        )

    def hop_label(self, key: PhiKey, phi: Iterable[int], bound: int) -> bytes:
        """Hops from every node to the nearest φ-match, one byte per node.

        Same contract, bytes and row key as the lazy view's
        :meth:`~repro.core.semantic_graph.SemanticGraphView.hop_label`
        (its breadth-first search is the oracle): ``n̂`` frontier sweeps,
        each the segment-``or`` of "my neighbour has a walk of exactly
        ``k - 1`` hops to φ" over the CSR rows, the same ``reduceat``
        idiom as :meth:`bounds_row_array` — no extra topology mirror.
        """

        def sweeps(cap: int) -> bytes:
            graph = self.graph
            distance = np.full(graph.num_nodes, cap, dtype=np.uint8)
            starts = graph.indptr[:-1]
            nonempty = starts < graph.indptr[1:]
            row_starts = starts[nonempty]
            reach = np.zeros(graph.num_nodes, dtype=bool)
            reach[np.fromiter(phi, dtype=np.int64)] = True
            if row_starts.size:
                for hop in range(1, cap):
                    # reduceat needs non-empty segments, as in bounds_row_array.
                    arrived = np.logical_or.reduceat(
                        reach[graph.slot_neighbor], row_starts
                    )
                    reach = np.zeros(graph.num_nodes, dtype=bool)
                    reach[nonempty] = arrived
                    distance[reach & (distance > hop)] = hop
            return distance.tobytes()

        return shared_hop_label(self, key, bound, sweeps)


class CompactViewFactory:
    """Builds :class:`CompactSemanticGraphView`\\ s over one frozen kernel.

    Matches the engine's ``view_factory`` seam.  The kernel is fixed for
    the factory's life, and every call first checks the reader it is
    handed against it (:func:`~repro.kg.compact.check_frozen_shape`).
    """

    view = CompactSemanticGraphView

    def __init__(self, graph: CompactGraph):
        self.graph = graph

    def __call__(
        self,
        kg: GraphReader,
        space: PredicateSpace,
        *,
        min_weight: float = 0.0,
        cache: Optional[WeightCache] = None,
    ) -> WeightedGraphView:
        check_frozen_shape(kg, self.graph)
        return self.view(self.graph, space, min_weight=min_weight, cache=cache)


class LazyViewFactory(CompactViewFactory):
    """Builds the paper's per-query lazy ``SG_Q`` (the oracle) over one
    frozen kernel — the engine's default view."""

    view = SemanticGraphView

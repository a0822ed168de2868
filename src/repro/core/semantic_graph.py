"""Partially-materialised semantic graph (Definition 5, Section IV-B).

The straightforward construction of ``SG_Q`` — weight every edge of every
edge match up front — is quadratically wasteful (the paper's Fig. 7
analysis: high traversal cost + redundant operations).  Instead this view
materialises weights *on demand* while the A* search runs: an edge gets a
weight the first time the search looks at it, and the weight cache doubles
as the record of which part of ``SG_Q`` was ever built.

Weights are Eq. 5 cosines **clamped to [0, 1]**: the pss machinery
(geometric means, admissibility proofs) requires weights in (0, 1], and a
negative cosine means "semantically opposite", which the search should
treat as unrelated (weight 0 ⇒ pruned by any τ > 0).

**The oracle, not the serving store.**  This view is the paper's one-shot
``SG_Q``: two private dicts that live for one query, over the per-node
slots of a frozen :class:`~repro.kg.compact.CompactGraph`.  The
conformance suites and the golden pass run it as the definition the
production path (:mod:`repro.core.compact_view` over the same kind of
store) is tested against.
Cross-query sharing is a matter of whole-graph *rows* (see
:class:`WeightCache`); the only row this view computes is its hop label,
so that is all it reads from or publishes to a shared cache.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Optional,
    Protocol,
    Set,
    Tuple,
)

from repro.embedding.predicate_space import PredicateSpace
from repro.errors import UnknownPredicateError
from repro.kg.compact import CompactGraph
from repro.kg.graph import Edge


class WeightCache(Protocol):
    """Cross-query store of whole-graph *rows*.

    A row is an opaque value covering one key against the entire bound
    graph — the vector of clamped weights of a query predicate per
    interned graph-predicate id, the vector of its ``m(u)`` bounds per
    node, or (kind ``"hop_label"``) the one-byte-per-node hop distance
    to a query node's φ set.  The cache invariant: every row is a pure
    function of its key and the (graph, space, ``min_weight``) triple
    the cache was bound to — so rows may be shared by any number of
    concurrent per-query views and evicted at any time without affecting
    correctness (a miss just recomputes).  Rows are immutable by
    contract.  :class:`repro.serve.cache.SemanticGraphCache` is the
    implementation.
    """

    def bind(self, fingerprint: Tuple) -> None:
        """Pin the cache to one (graph, space, min_weight) combination.

        Raises :class:`~repro.errors.ServeError` when the cache is already
        bound to a different combination — mixing spaces would serve wrong
        weights silently.
        """
        ...

    def get_row(self, kind: str, key: Hashable) -> Optional[object]:
        ...

    def put_row(self, kind: str, key: Hashable, row: object) -> None:
        ...


#: What a hop label is keyed by — everything its φ set is a function of
#: beyond the graph: ``(node.name, node.etype, library)``, from
#: :meth:`~repro.query.transform.NodeMatcher.phi_key`.  The library is
#: in the key as the object itself, so the cache keeps it alive and two
#: engines share labels exactly when they share a library.
PhiKey = Tuple


def shared_hop_label(
    view, key: PhiKey, bound: int, compute: Callable[[int], bytes]
) -> bytes:
    """A view's hop label through its per-query memo and the row cache.

    The one place that knows the row kind (``"hop_label"``), its key
    (``key + (n̂,)``) and the value a label saturates at (``n̂ + 1``,
    held to one byte, handed to ``compute``); the two views differ only
    in how they compute a missing label.
    """
    row_key = key + (bound,)
    label = view._hop_labels.get(row_key)
    if label is None:
        cache = view._cache
        if cache is not None:
            label = cache.get_row("hop_label", row_key)
        if label is not None:
            view.cache_hits += 1
        else:
            label = compute(min(bound + 1, 255))
            if cache is not None:
                cache.put_row("hop_label", row_key, label)
        view._hop_labels[row_key] = label
    return label


class WeightedGraphView(Protocol):
    """What the A* search needs from a semantic-graph view.

    Kept minimal so alternative backends can stand in for
    :class:`SemanticGraphView` — the numpy-backed
    :class:`~repro.core.compact_view.CompactSemanticGraphView` today,
    shard proxies later.  A view may additionally offer ``hop_label``
    (see :meth:`SemanticGraphView.hop_label`); the search applies the
    reach prune exactly when it does.
    """

    def weighted_incident(
        self, uid: int, query_predicate: str
    ) -> Iterable[Tuple[Edge, int, float]]:
        ...

    def max_adjacent_weight_any(self, uid: int, query_predicates: Iterable[str]) -> float:
        ...


class SemanticGraphView:
    """Lazy weighted view of a frozen graph for one query's predicates.

    One view is shared by all sub-query searches of a query: weights depend
    only on (query predicate, graph predicate), so the cache is global to
    the query, exactly like the paper's single ``SG_Q``.

    Args:
        graph: the frozen store being viewed; the view walks its
            ``node_slots``.
        space: predicate semantic space providing Eq. 5 similarities.
        min_weight: similarities below this materialise as 0.
        cache: optional shared :class:`WeightCache`; when given, the
            view's hop labels survive it and seed future queries.
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
            # The fingerprint holds the objects themselves (not id()s):
            # the cache keeps them alive, so identity can never be
            # recycled onto a different graph/space.  The store is
            # immutable, so its identity is the whole graph part; the
            # leading class keeps the oracle off a cache a compact view
            # over the same store fills, so the two never compare a row
            # with itself.
            cache.bind((SemanticGraphView, graph, space, min_weight))
        # (query predicate, graph predicate) -> clamped weight
        self._weight_cache: Dict[Tuple[str, str], float] = {}
        # (uid, query predicate) -> max adjacent weight (the m(u) of Lemma 1)
        self._max_adjacent_cache: Dict[Tuple[int, str], float] = {}
        # φ key + (n̂,) -> hop label (see hop_label)
        self._hop_labels: Dict[Tuple, bytes] = {}
        self._touched_nodes: Set[int] = set()
        self.edges_weighted = 0  # similarities actually computed by this view
        self.cache_hits = 0  # hop labels served by the shared cache

    # ------------------------------------------------------------------
    def weight(self, query_predicate: str, graph_predicate: str) -> float:
        """Semantic-graph weight ``sim(L_Q(e), L(e'))`` clamped to [0, 1].

        A graph predicate unknown to the space (possible when the space was
        trained on a different graph snapshot) gets weight 0 rather than an
        error: an unembeddable predicate carries no usable semantics.
        """
        key = (query_predicate, graph_predicate)
        cached = self._weight_cache.get(key)
        if cached is not None:
            return cached
        try:
            raw = self.space.similarity(query_predicate, graph_predicate)
        except UnknownPredicateError:
            raw = 0.0
        clamped = min(max(raw, 0.0), 1.0)
        if clamped < self.min_weight:
            clamped = 0.0
        self._weight_cache[key] = clamped
        self.edges_weighted += 1
        return clamped

    def weighted_incident(
        self, uid: int, query_predicate: str
    ) -> Iterable[Tuple[Edge, int, float]]:
        """Materialise the 1-hop semantic graph around ``uid``.

        Yields ``(edge, neighbour, weight)`` for every incident edge,
        weighted against the given query predicate (step 2 of the paper's
        lightweight construction).  Zero-weight edges are still yielded —
        the caller's τ-pruning decides their fate — unless ``min_weight``
        zeroed them out *and* τ > 0 would drop them anyway; filtering here
        would duplicate that policy, so we don't.
        """
        self._touched_nodes.add(uid)
        for edge, neighbor, _pid in self.graph.node_slots[uid]:
            yield edge, neighbor, self.weight(query_predicate, edge.predicate)

    def max_adjacent_weight(self, uid: int, query_predicate: str) -> float:
        """``m(u)`` of Lemma 1: max weight over edges incident to ``uid``.

        The value upper-bounds the weight of the first unexplored edge of
        any continuation through ``uid``, hence (weights ≤ 1) the whole
        unexplored weight product.
        """
        key = (uid, query_predicate)
        cached = self._max_adjacent_cache.get(key)
        if cached is not None:
            return cached
        best = 0.0
        for _edge, _neighbor, weight in self.weighted_incident(uid, query_predicate):
            if weight > best:
                best = weight
        self._max_adjacent_cache[key] = best
        return best

    def max_adjacent_weight_any(self, uid: int, query_predicates: Iterable[str]) -> float:
        """``m(u)`` against several remaining query predicates.

        Multi-edge sub-queries (g2 of Example 2) may continue from ``uid``
        matching the current segment's predicate or — after advancing at an
        intermediate query node — a later one; the max over all remaining
        predicates upper-bounds both.
        """
        best = 0.0
        for predicate in query_predicates:
            weight = self.max_adjacent_weight(uid, predicate)
            if weight > best:
                best = weight
        return best

    def hop_label(self, key: PhiKey, phi: Iterable[int], bound: int) -> bytes:
        """``d[u]``: hops from ``u`` to the nearest φ-match, one byte per node.

        ``d[u]`` is the length of the shortest walk of **at least one**
        hop from ``u`` to a member of ``phi`` over the undirected
        incidence (a φ-match itself reads the way back to the set, not
        0), saturating at ``n̂ + 1``.  A segment closes only by
        *arriving* at a φ-match, so a state at ``u`` with ``h`` hops
        spent needs ``h + d[u] <= n̂`` to ever close it — weights, τ and
        the simple-path rule can only lengthen the way, never shorten
        it.  ``key`` is the query node's :data:`PhiKey`: the label
        depends on topology and φ alone, so it is shared across queries
        (row kind ``"hop_label"``, keyed ``key + (n̂,)``).

        This breadth-first search is the definition the compact view's
        vectorized sweeps are tested against.  Only newly labelled nodes
        are expanded: a node first reached in ``k + 1`` hops has a
        neighbour first reached in ``k`` (or in φ, for ``k = 0``).
        """

        def breadth_first(cap: int) -> bytes:
            node_slots = self.graph.node_slots
            distance = bytearray([cap]) * self.graph.num_nodes
            frontier = list(phi)
            for hop in range(1, cap):
                reached = []
                for uid in frontier:
                    for _edge, neighbor, _pid in node_slots[uid]:
                        if distance[neighbor] > hop:
                            distance[neighbor] = hop
                            reached.append(neighbor)
                frontier = reached
            return bytes(distance)

        return shared_hop_label(self, key, bound, breadth_first)

    # ------------------------------------------------------------------
    @property
    def materialized_pairs(self) -> int:
        """Distinct (query predicate, graph predicate) weights held."""
        return len(self._weight_cache)

    @property
    def touched_nodes(self) -> int:
        """Distinct graph nodes whose 1-hop view was materialised."""
        return len(self._touched_nodes)

    def materialization_ratio(self) -> float:
        """Fraction of graph nodes ever materialised (Example 5's
        "25% of nodes pruned" is 1 minus this, per sub-query)."""
        if self.graph.num_nodes == 0:
            return 0.0
        return self.touched_nodes / self.graph.num_nodes

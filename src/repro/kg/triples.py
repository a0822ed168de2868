"""Id triples for embedding training.

The embedding trainer consumes ``(head, relation, tail)`` id triples built
from a graph's edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

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
    :meth:`KnowledgeGraph.predicates`).
    """
    vocab = kg.predicates()
    rel_index = {p: i for i, p in enumerate(vocab)}
    triples = [
        Triple(edge.source, rel_index[edge.predicate], edge.target)
        for uid in range(kg.num_entities)
        for edge in kg.out_edges(uid)
    ]
    return triples, vocab

"""Query-graph data model (Definitions 2 and 6 of the paper).

A :class:`QueryGraph` has *specific* nodes (known name + type, e.g.
``Germany<Country>``) and *target* nodes (type only, the ``?``-nodes whose
matches are the answers).  Edges carry the predicate the user believes
relates the two nodes — the whole point of the paper is that this predicate
need not exist verbatim in the knowledge graph.

A :class:`SubQueryGraph` is the unit the A* search consumes (Definition 6):
a path graph from a specific node to the pivot target node, stored as the
ordered node sequence plus the query edges between consecutive nodes.
Query-edge direction is independent of walk direction, so each edge is
paired with the walk orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import QueryError


@dataclass(frozen=True)
class QueryNode:
    """A query-graph node.

    ``name`` is ``None`` for target nodes (unknown entities); ``etype`` may
    be ``None`` for an untyped target (rare, but QGA-style keyword queries
    produce them).
    """

    label: str
    etype: Optional[str] = None
    name: Optional[str] = None

    @property
    def is_specific(self) -> bool:
        """True when the entity is known (name given) — Def. 2's ``V^s``."""
        return self.name is not None

    @property
    def is_target(self) -> bool:
        """True for ``?``-nodes — Def. 2's ``V^t``."""
        return self.name is None


@dataclass(frozen=True)
class QueryEdge:
    """A query-graph edge ``source -predicate-> target`` between labels."""

    label: str
    source: str
    predicate: str
    target: str

    def other(self, node_label: str) -> str:
        if node_label == self.source:
            return self.target
        if node_label == self.target:
            return self.source
        raise QueryError(f"node {node_label!r} is not an endpoint of edge {self.label!r}")


class QueryGraph:
    """A validated query graph.

    Construction checks: unique labels, edges reference declared nodes, the
    graph is connected, and at least one target node exists (otherwise
    there is nothing to search for).

    >>> from repro.query.builder import QueryGraphBuilder
    >>> q = (QueryGraphBuilder()
    ...      .target("v1", "Automobile")
    ...      .specific("v2", "Germany", "Country")
    ...      .edge("e1", "v1", "product", "v2")
    ...      .build())
    >>> [n.label for n in q.target_nodes()]
    ['v1']
    """

    def __init__(self, nodes: Sequence[QueryNode], edges: Sequence[QueryEdge]):
        self._nodes: Dict[str, QueryNode] = {}
        for node in nodes:
            if node.label in self._nodes:
                raise QueryError(f"duplicate query node label {node.label!r}")
            self._nodes[node.label] = node
        self._edges: List[QueryEdge] = []
        self._edge_index: Dict[str, QueryEdge] = {}
        self._adjacency: Dict[str, List[QueryEdge]] = {label: [] for label in self._nodes}
        for edge in edges:
            if edge.label in self._edge_index:
                raise QueryError(f"duplicate query edge label {edge.label!r}")
            if edge.source not in self._nodes or edge.target not in self._nodes:
                raise QueryError(f"edge {edge.label!r} references an undeclared node")
            if edge.source == edge.target:
                raise QueryError(f"edge {edge.label!r} is a self-loop")
            self._edges.append(edge)
            self._edge_index[edge.label] = edge
            self._adjacency[edge.source].append(edge)
            self._adjacency[edge.target].append(edge)
        self._validate()

    def _validate(self) -> None:
        if not self._nodes:
            raise QueryError("query graph has no nodes")
        if not any(node.is_target for node in self._nodes.values()):
            raise QueryError("query graph has no target (?) node")
        if len(self._nodes) > 1 and not self._edges:
            raise QueryError("multi-node query graph has no edges")
        if not self._is_connected():
            raise QueryError("query graph is not connected")

    def _is_connected(self) -> bool:
        labels = list(self._nodes)
        seen = {labels[0]}
        frontier = [labels[0]]
        while frontier:
            current = frontier.pop()
            for edge in self._adjacency[current]:
                neighbor = edge.other(current)
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._nodes)

    # ------------------------------------------------------------------
    def node(self, label: str) -> QueryNode:
        try:
            return self._nodes[label]
        except KeyError:
            raise QueryError(f"unknown query node {label!r}") from None

    def nodes(self) -> List[QueryNode]:
        return list(self._nodes.values())

    def edges(self) -> List[QueryEdge]:
        return list(self._edges)

    def specific_nodes(self) -> List[QueryNode]:
        return [n for n in self._nodes.values() if n.is_specific]

    def target_nodes(self) -> List[QueryNode]:
        return [n for n in self._nodes.values() if n.is_target]

    def edges_at(self, label: str) -> List[QueryEdge]:
        self.node(label)
        return list(self._adjacency[label])

    def replace_node(self, node: QueryNode) -> "QueryGraph":
        """A copy with one node swapped (used by noise injection)."""
        nodes = [node if n.label == node.label else n for n in self._nodes.values()]
        if node.label not in self._nodes:
            raise QueryError(f"unknown query node {node.label!r}")
        return QueryGraph(nodes, self._edges)

    def replace_edge(self, edge: QueryEdge) -> "QueryGraph":
        """A copy with one edge swapped (used by noise injection)."""
        if edge.label not in self._edge_index:
            raise QueryError(f"unknown query edge {edge.label!r}")
        edges = [edge if e.label == edge.label else e for e in self._edges]
        return QueryGraph(list(self._nodes.values()), edges)


@dataclass(frozen=True)
class SubQueryStep:
    """One query edge along a sub-query walk.

    ``forward`` is True when the walk traverses the query edge from its
    declared source to its declared target.
    """

    edge: QueryEdge
    forward: bool

    @property
    def predicate(self) -> str:
        return self.edge.predicate


@dataclass(frozen=True)
class SubQueryGraph:
    """A path-shaped sub-query from a specific node to the pivot (Def. 6).

    ``node_labels`` lists the walk's query nodes in order
    (``node_labels[0]`` is the specific start, ``node_labels[-1]`` the
    pivot); ``steps[i]`` is the query edge between ``node_labels[i]`` and
    ``node_labels[i+1]``.
    """

    query: QueryGraph
    node_labels: Tuple[str, ...]
    steps: Tuple[SubQueryStep, ...]

    def __post_init__(self) -> None:
        if len(self.node_labels) != len(self.steps) + 1:
            raise QueryError("sub-query node/step counts do not line up")
        if not self.steps:
            raise QueryError("sub-query must contain at least one edge")
        start = self.query.node(self.node_labels[0])
        if not start.is_specific:
            raise QueryError("sub-query must start at a specific node")
        for i, step in enumerate(self.steps):
            a, b = self.node_labels[i], self.node_labels[i + 1]
            if {step.edge.source, step.edge.target} != {a, b}:
                raise QueryError(
                    f"step {i} edge {step.edge.label!r} does not connect {a!r}-{b!r}"
                )

    @property
    def start(self) -> QueryNode:
        """The specific node the search starts from (``v^s``)."""
        return self.query.node(self.node_labels[0])

    def predicates(self) -> List[str]:
        return [step.predicate for step in self.steps]

    def describe(self) -> str:
        parts = [self.node_labels[0]]
        for step, label in zip(self.steps, self.node_labels[1:]):
            parts.append(f"-{step.predicate}-")
            parts.append(label)
        return "<" + " ".join(parts) + ">"

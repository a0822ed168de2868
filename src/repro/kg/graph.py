"""In-memory knowledge graph store (Definition 1 of the paper).

A knowledge graph ``G = (V, E, L)`` has typed, named entity nodes and
directed predicate-labelled edges.  This module provides:

- :class:`Entity` — an immutable node record ``(uid, name, etype)``;
- :class:`Edge` — an immutable directed edge ``(source, predicate, target)``;
- :class:`KnowledgeGraph` — adjacency storage with the label indexes the
  search layer needs: entities by type, entities by name, predicates by
  (source type, target type) signature, and *undirected* incident-edge
  iteration (the paper's path definition ignores edge direction, footnote 1);
- :class:`GraphReader` — the seven members of it the online engine reads.

The store is append-only: experiments build a graph once and query it many
times, so there is no node/edge deletion, which keeps the indexes trivially
consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterator, List, Optional, Protocol, Set, Tuple

from repro.errors import GraphError, UnknownEntityError


@dataclass(frozen=True)
class Entity:
    """A knowledge-graph node: unique id, display name, and entity type."""

    uid: int
    name: str
    etype: str

    def __str__(self) -> str:
        return f"{self.name}<{self.etype}>"


@dataclass(frozen=True)
class Edge:
    """A directed predicate edge between two entity ids."""

    source: int
    predicate: str
    target: int

    def other(self, uid: int) -> int:
        """The endpoint opposite to ``uid`` (undirected traversal helper)."""
        if uid == self.source:
            return self.target
        if uid == self.target:
            return self.source
        raise GraphError(f"entity {uid} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"({self.source})-[{self.predicate}]->({self.target})"


@dataclass
class GraphStatistics:
    """Aggregate statistics used by cost models and reports."""

    num_entities: int = 0
    num_edges: int = 0
    num_types: int = 0
    num_predicates: int = 0
    average_degree: float = 0.0
    max_degree: int = 0


class GraphReader(Protocol):
    """What the online engine reads of a graph: its entity directory.

    φ(v) node matching (Def. 3), Eq. 1's minCost pivot choice (``|V|``,
    ``|E|``), answer rendering and the answer cache's epoch stamp go
    through these seven members and nothing else — every edge the search
    sees comes from its ``WeightedGraphView``.  :class:`KnowledgeGraph`
    satisfies the protocol; a frozen store (by value, attached from
    shared memory, sharded) is read through
    :class:`~repro.kg.compact.FrozenGraphReader`.  Implementations agree
    on order: entities by uid, per-type uids ascending, types by first
    use.
    """

    name: str

    @property
    def num_entities(self) -> int: ...

    @property
    def num_edges(self) -> int: ...

    def entity(self, uid: int) -> Entity:
        """The record of ``uid``; ``UnknownEntityError`` past the end."""

    def entities(self) -> Iterator[Entity]: ...

    def entities_of_type(self, etype: str) -> List[int]: ...

    def types(self) -> List[str]: ...


class KnowledgeGraph:
    """Adjacency-indexed knowledge graph (Definition 1).

    >>> kg = KnowledgeGraph()
    >>> audi = kg.add_entity("Audi_TT", "Automobile")
    >>> germany = kg.add_entity("Germany", "Country")
    >>> _ = kg.add_edge(audi.uid, "assembly", germany.uid)
    >>> [e.predicate for e, v in kg.incident(audi.uid)]
    ['assembly']
    """

    def __init__(self, name: str = "kg"):
        self.name = name
        self._entities: List[Entity] = []
        # The adjacency indexes: (edge, other endpoint) pairs precomputed
        # at add_edge time, split by direction so undirected iteration
        # keeps the historical out-edges-then-in-edges order (search
        # tie-breaks depend on it).  incident() — the search layer's
        # hottest graph call — is then a plain chained walk; the
        # direction-specific edge lists are derived on demand (cold
        # paths only), so each edge is indexed exactly twice.
        self._incident_out: Dict[int, List[Tuple[Edge, int]]] = {}
        self._incident_in: Dict[int, List[Tuple[Edge, int]]] = {}
        self._by_type: Dict[str, List[int]] = {}
        self._by_name: Dict[str, List[int]] = {}
        self._predicates: Dict[str, int] = {}
        self._edge_set: Set[Tuple[int, str, int]] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_entity(self, name: str, etype: str) -> Entity:
        """Create an entity and return its record.

        Names need not be unique (e.g. two people named "John Smith"); the
        uid disambiguates.  Empty names or types are rejected.
        """
        if not name or not etype:
            raise GraphError("entity name and type must be non-empty")
        uid = len(self._entities)
        entity = Entity(uid=uid, name=name, etype=etype)
        self._entities.append(entity)
        self._incident_out[uid] = []
        self._incident_in[uid] = []
        self._by_type.setdefault(etype, []).append(uid)
        self._by_name.setdefault(name, []).append(uid)
        return entity

    def add_edge(self, source: int, predicate: str, target: int) -> Optional[Edge]:
        """Add a directed edge; returns ``None`` if it already exists.

        Self-loops are rejected: the paper's schema paths never use them and
        they would let the A* search "stall" on a node.
        """
        if not predicate:
            raise GraphError("edge predicate must be non-empty")
        if source == target:
            raise GraphError("self-loop edges are not supported")
        self._check_uid(source)
        self._check_uid(target)
        key = (source, predicate, target)
        if key in self._edge_set:
            return None
        edge = Edge(source=source, predicate=predicate, target=target)
        self._edge_set.add(key)
        self._incident_out[source].append((edge, target))
        self._incident_in[target].append((edge, source))
        self._predicates[predicate] = self._predicates.get(predicate, 0) + 1
        return edge

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _check_uid(self, uid: int) -> None:
        if not 0 <= uid < len(self._entities):
            raise UnknownEntityError(uid)

    def entity(self, uid: int) -> Entity:
        """The entity record for ``uid``."""
        self._check_uid(uid)
        return self._entities[uid]

    def entities(self) -> Iterator[Entity]:
        """Iterate over all entities in insertion order."""
        return iter(self._entities)

    def entities_of_type(self, etype: str) -> List[int]:
        """All entity ids with the given type (empty list if none)."""
        return list(self._by_type.get(etype, []))

    def entities_named(self, name: str) -> List[int]:
        """All entity ids with the given exact name (empty list if none)."""
        return list(self._by_name.get(name, []))

    def entity_by_name(self, name: str) -> Entity:
        """The unique entity with ``name``; raises if absent or ambiguous."""
        uids = self._by_name.get(name, [])
        if not uids:
            raise UnknownEntityError(name)
        if len(uids) > 1:
            raise GraphError(f"entity name {name!r} is ambiguous ({len(uids)} hits)")
        return self._entities[uids[0]]

    def has_edge(self, source: int, predicate: str, target: int) -> bool:
        """Whether the exact directed edge exists."""
        return (source, predicate, target) in self._edge_set

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def out_edges(self, uid: int) -> List[Edge]:
        """Directed edges leaving ``uid`` (a fresh O(degree) list).

        Loop-heavy callers should prefer :meth:`out_incident`, which
        returns the stored pairs without copying.
        """
        self._check_uid(uid)
        return [edge for edge, _other in self._incident_out[uid]]

    def in_edges(self, uid: int) -> List[Edge]:
        """Directed edges entering ``uid`` (a fresh O(degree) list).

        Loop-heavy callers should prefer :meth:`in_incident`.
        """
        self._check_uid(uid)
        return [edge for edge, _other in self._incident_in[uid]]

    def out_incident(self, uid: int) -> List[Tuple[Edge, int]]:
        """Live ``(edge, target)`` pairs for edges leaving ``uid``.

        The returned list is the stored index — callers must not mutate
        it.  Zero-copy counterpart of :meth:`out_edges`.
        """
        self._check_uid(uid)
        return self._incident_out[uid]

    def in_incident(self, uid: int) -> List[Tuple[Edge, int]]:
        """Live ``(edge, source)`` pairs for edges entering ``uid``.

        The returned list is the stored index — callers must not mutate
        it.  Zero-copy counterpart of :meth:`in_edges`.
        """
        self._check_uid(uid)
        return self._incident_in[uid]

    def incident(self, uid: int) -> Iterator[Tuple[Edge, int]]:
        """Iterate ``(edge, neighbour_uid)`` over all edges touching ``uid``.

        Traversal is undirected (paper footnote 1): both outgoing and
        incoming edges are yielded, paired with the opposite endpoint —
        outgoing first, then incoming, each in insertion order (the
        historical order; equal-score search tie-breaks depend on it).
        The pairs are precomputed at :meth:`add_edge` time, so iteration
        is a chained list walk — this is the search layer's hottest
        graph call.
        """
        self._check_uid(uid)
        out = self._incident_out[uid]
        into = self._incident_in[uid]
        if not into:
            return iter(out)
        if not out:
            return iter(into)
        return chain(out, into)

    def incident_list(self, uid: int) -> List[Tuple[Edge, int]]:
        """The precomputed ``(edge, neighbour_uid)`` incidence of ``uid``.

        A fresh concatenated list in :meth:`incident` order.  Freeze-time
        consumers (:mod:`repro.kg.compact`) use this to avoid walking the
        two direction indexes themselves.
        """
        self._check_uid(uid)
        return self._incident_out[uid] + self._incident_in[uid]

    def degree(self, uid: int) -> int:
        """Undirected degree of ``uid``."""
        self._check_uid(uid)
        return len(self._incident_out[uid]) + len(self._incident_in[uid])

    def neighbors(self, uid: int) -> List[int]:
        """Distinct neighbour ids of ``uid`` (undirected)."""
        seen: Set[int] = set()
        out: List[int] = []
        for _edge, other in self.incident(uid):
            if other not in seen:
                seen.add(other)
                out.append(other)
        return out

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def num_entities(self) -> int:
        return len(self._entities)

    @property
    def num_edges(self) -> int:
        return len(self._edge_set)

    def predicates(self) -> List[str]:
        """All distinct predicates, in first-use order."""
        return list(self._predicates)

    def predicate_frequency(self, predicate: str) -> int:
        """Number of edges carrying ``predicate`` (0 if unused)."""
        return self._predicates.get(predicate, 0)

    def types(self) -> List[str]:
        """All distinct entity types, in first-use order."""
        return list(self._by_type)

    def statistics(self) -> GraphStatistics:
        """Compute aggregate statistics (O(V))."""
        degrees = [self.degree(u) for u in range(self.num_entities)]
        return GraphStatistics(
            num_entities=self.num_entities,
            num_edges=self.num_edges,
            num_types=len(self._by_type),
            num_predicates=len(self._predicates),
            average_degree=(sum(degrees) / len(degrees)) if degrees else 0.0,
            max_degree=max(degrees) if degrees else 0,
        )

    def triples(self) -> Iterator[Tuple[str, str, str]]:
        """Iterate ``(head name, predicate, tail name)`` string triples,
        source-major in uid order."""
        for uid in range(self.num_entities):
            for edge, _other in self._incident_out[uid]:
                yield (
                    self._entities[edge.source].name,
                    edge.predicate,
                    self._entities[edge.target].name,
                )

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph(name={self.name!r}, entities={self.num_entities}, "
            f"edges={self.num_edges})"
        )

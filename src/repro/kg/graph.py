"""In-memory knowledge graph store (Definition 1 of the paper).

A knowledge graph ``G = (V, E, L)`` has typed, named entity nodes and
directed predicate-labelled edges.  This module provides:

- :class:`Entity` — an immutable node record ``(uid, name, etype)``;
- :class:`Edge` — an immutable directed edge ``(source, predicate, target)``;
- :class:`KnowledgeGraph` — adjacency storage with the label indexes the
  search layer needs: entities by type and by name, predicates in
  first-use order, and *undirected* incident-edge iteration (the paper's
  path definition ignores edge direction, footnote 1);
- :class:`GraphReader` — the seven members of it the online engine reads.

The store is append-only: experiments build a graph once and query it many
times, so there is no node/edge deletion, which keeps the indexes trivially
consistent.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Optional, Protocol, Set, Tuple

import numpy as np

from repro.errors import GraphError, UnknownEntityError


@dataclass(frozen=True)
class Entity:
    """A knowledge-graph node: unique id, display name, and entity type."""

    uid: int
    name: str
    etype: str


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


class GraphReader(Protocol):
    """What the online engine reads of a graph: its entity directory.

    φ(v) node matching (Def. 3), Eq. 1's minCost pivot choice (``|V|``,
    ``|E|``) and answer rendering go through these seven members and
    nothing else — every edge the search sees comes from its
    ``WeightedGraphView``.  :class:`KnowledgeGraph`
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

    Besides the per-node incidence lists the search walks, the graph
    keeps three append-only ``uint32`` edge columns — source, target and
    interned predicate id, one entry per accepted edge in insertion
    order (12 bytes an edge).  Predicate ids follow first use, i.e.
    index into :meth:`predicates`.  :meth:`edge_columns` hands out copies
    of them, which is all :meth:`~repro.kg.compact.CompactGraph.freeze`
    needs to build the CSR with numpy alone.

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
        # Predicate -> interned id; ids (and the dict's order) follow
        # first use.
        self._predicates: Dict[str, int] = {}
        self._edge_set: Set[Tuple[int, str, int]] = set()
        # The edge columns, appended together by add_edge only, after
        # every check.  Unsigned: ids are never negative, and "I" appends
        # about twice as fast as "i".  Nothing may hold a buffer view of
        # them: an array that exports its buffer refuses to grow
        # (BufferError), so readers get copies.
        self._edge_source = array("I")
        self._edge_target = array("I")
        self._edge_predicate = array("I")

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
        pid = self._predicates.get(predicate, len(self._predicates))
        self._edge_source.append(source)
        self._edge_target.append(target)
        self._edge_predicate.append(pid)
        edge = Edge(source=source, predicate=predicate, target=target)
        self._edge_set.add(key)
        self._incident_out[source].append((edge, target))
        self._incident_in[target].append((edge, source))
        self._predicates.setdefault(predicate, pid)
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
        it.
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

    def edge_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(source, target, predicate id)`` of every edge, insertion order.

        Fresh ``int64`` / ``int64`` / ``int32`` arrays copied from the
        edge columns, never views of them — a view would pin the
        columns' buffers and the next :meth:`add_edge` would fail.
        """
        return (
            np.array(self._edge_source, dtype=np.int64),
            np.array(self._edge_target, dtype=np.int64),
            np.array(self._edge_predicate, dtype=np.int32),
        )

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

    def types(self) -> List[str]:
        """All distinct entity types, in first-use order."""
        return list(self._by_type)

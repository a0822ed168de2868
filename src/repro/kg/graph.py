"""Knowledge-graph builder (Definition 1 of the paper).

A knowledge graph ``G = (V, E, L)`` has typed, named entity nodes and
directed predicate-labelled edges.  This module provides:

- :class:`Entity` — an immutable node record ``(uid, name, etype)``;
- :class:`Edge` — an immutable directed edge ``(source, predicate, target)``,
  the record a frozen store builds for a path (the builder keeps none);
- :class:`KnowledgeGraph` — the builder: entities with their name and type
  indexes, predicates in first-use order, and every edge as three integer
  columns;
- :class:`GraphReader` — the seven members of it the online engine reads.

The builder is append-only and keeps no incidence: every edge walk —
the engine's views, the test oracles, the baselines — reads a
:class:`~repro.kg.compact.CompactGraph` frozen from its columns.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Protocol, Set, Tuple

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
    """Append-only knowledge-graph builder (Definition 1).

    Per edge the graph keeps three ``uint32`` column entries — source,
    target and interned predicate id, in insertion order (12 bytes an
    edge) — and one packed integer key that refuses duplicates and
    answers :meth:`has_edge`.  It keeps no incidence: walk the graph
    through :meth:`CompactGraph.freeze(kg) <repro.kg.compact.CompactGraph.freeze>`,
    which builds its CSR from :meth:`edge_columns` with numpy alone.
    Predicate ids follow first use, i.e. index into :meth:`predicates`.

    >>> kg = KnowledgeGraph()
    >>> audi = kg.add_entity("Audi_TT", "Automobile")
    >>> germany = kg.add_entity("Germany", "Country")
    >>> kg.add_edge(audi.uid, "assembly", germany.uid)
    True
    >>> kg.add_edge(audi.uid, "assembly", germany.uid)  # a duplicate
    False
    >>> kg.has_edge(audi.uid, "assembly", germany.uid), kg.num_edges
    (True, 1)
    """

    def __init__(self, name: str = "kg"):
        self.name = name
        self._entities: List[Entity] = []
        self._by_type: Dict[str, List[int]] = {}
        self._by_name: Dict[str, List[int]] = {}
        # Predicate -> interned id; ids (and the dict's order) follow
        # first use.
        self._predicates: Dict[str, int] = {}
        # One packed int per edge (see _edge_key): ints are not tracked
        # by the collector, so the set is one object however many edges.
        self._edge_keys: Set[int] = set()
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
        self._by_type.setdefault(etype, []).append(uid)
        self._by_name.setdefault(name, []).append(uid)
        return entity

    def add_edge(self, source: int, predicate: str, target: int) -> bool:
        """Add a directed edge; ``False`` if it already exists.

        Self-loops are rejected: the paper's schema paths never use them and
        they would let the A* search "stall" on a node.
        """
        if not predicate:
            raise GraphError("edge predicate must be non-empty")
        if source == target:
            raise GraphError("self-loop edges are not supported")
        self._check_uid(source)
        self._check_uid(target)
        pid = self._predicates.get(predicate, len(self._predicates))
        key = _edge_key(source, pid, target)
        if key in self._edge_keys:
            return False
        self._edge_source.append(source)
        self._edge_target.append(target)
        self._edge_predicate.append(pid)
        self._edge_keys.add(key)
        self._predicates.setdefault(predicate, pid)
        return True

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
        pid = self._predicates.get(predicate)
        count = len(self._entities)
        return (
            pid is not None
            and 0 <= source < count
            and 0 <= target < count
            and _edge_key(source, pid, target) in self._edge_keys
        )

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
        return len(self._edge_source)

    def predicates(self) -> List[str]:
        """All distinct predicates, in first-use order."""
        return list(self._predicates)

    def types(self) -> List[str]:
        """All distinct entity types, in first-use order."""
        return list(self._by_type)


def _edge_key(source: int, pid: int, target: int) -> int:
    """One int per ``(source, predicate id, target)``: uids are uint32."""
    return (pid << 64) | (source << 32) | target

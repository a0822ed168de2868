"""Compact, numpy-backed knowledge-graph kernel (frozen CSR incidence).

:class:`~repro.kg.graph.KnowledgeGraph` is a builder: it keeps its edges
as three integer columns and nothing a walk could use.  Every edge
reader — the engine's views, the test oracles, the baselines — walks a
:class:`CompactGraph` instead.

:class:`CompactGraph` freezes the builder into interned id tables plus
an **undirected-incidence CSR**:

- ``indptr[u] : indptr[u + 1]`` delimits node ``u``'s incidence slots
  (each edge occupies two slots, one per endpoint);
- ``slot_neighbor[s]`` is the *other* endpoint of slot ``s`` — the
  ``Edge.other`` branch is resolved once at freeze time and leaves the
  hot loop;
- ``slot_predicate[s]`` is the interned predicate id, the index into any
  per-query-predicate weight row (see
  :class:`repro.core.compact_view.CompactSemanticGraphView`);
- ``slot_edge[s]`` is the edge id, an index into the three edge columns
  for the rare moments a real :class:`~repro.kg.graph.Edge` is needed
  (:meth:`CompactGraph.edge` builds it — ``PathMatch`` assembly, result
  rendering);
- ``name_blob`` / ``name_offsets`` carry the UTF-8 entity names, so a
  snapshot is a *complete* description of the graph: every engine reads
  its entity records from the snapshot (:class:`FrozenGraphReader`),
  never from the builder it was frozen from.

Slot order within a node is the insertion-order rule: the node's
out-edges, then its in-edges, each in the order ``add_edge`` accepted
them.  Every view walks these slots, so the lazy oracle and the compact
kernel expand states in the same sequence — which is what makes their
results byte-identical, heap tie-breaks included.

:meth:`CompactGraph.freeze` builds every edge and slot column from
*copies* of the builder's three append-only columns (source, target,
interned predicate id, in insertion order) with numpy alone: a stable
argsort by source numbers the edges, a stable argsort by target orders
the in-slots, two scatters fill the CSR.  Copies, not views: a column
that exported its buffer could not grow.

A frozen kernel keeps no reference to the graph it was frozen from: it
is immutable, and a graph that grows afterwards changes nothing it
serves.  All index state is plain int arrays — picklable and shardable.

Beyond pickling, the columns can live in **named shared memory**
(:mod:`repro.kg.shm`): :meth:`CompactGraph.to_shared` packs them into one
segment and returns an owning :class:`SharedCompactGraph` lease whose
:class:`CompactGraphHandle` pickles at O(metadata);
:meth:`CompactGraph.from_handle` attaches zero-copy in a worker.  Derived
object state (per-node slot mirror, entity names and records) is rebuilt
**lazily**, so attaching costs metadata, not O(V + E) — the hot arrays
are served straight from the shared mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError, ServeError, UnknownEntityError
from repro.kg.graph import Edge, Entity, GraphReader, KnowledgeGraph
from repro.kg.shm import ShmArrayBlock, ShmBlockHandle

#: The columns :meth:`CompactGraph.to_shared` publishes — every numeric
#: table plus the entity-name blob, i.e. everything a worker needs to
#: serve queries without the builder.
SHARED_COLUMNS = (
    "entity_type",
    "edge_source",
    "edge_target",
    "edge_predicate",
    "indptr",
    "slot_neighbor",
    "slot_predicate",
    "slot_edge",
    "slot_forward",
    "name_blob",
    "name_offsets",
)


class CompactGraph:
    """Frozen CSR snapshot of a :class:`~repro.kg.graph.KnowledgeGraph`.

    Build one with :meth:`freeze`; instances are immutable and stand
    alone: nothing refers back to the source graph, and the ``Edge``
    records a search returns are built from the columns — equal to the
    graph's own, not the same objects.

    >>> kg = KnowledgeGraph()
    >>> a = kg.add_entity("Audi_TT", "Automobile")
    >>> g = kg.add_entity("Germany", "Country")
    >>> kg.add_edge(a.uid, "assembly", g.uid)
    True
    >>> compact = CompactGraph.freeze(kg)
    >>> compact.num_nodes, compact.num_edges
    (2, 1)
    >>> int(compact.slot_neighbor[compact.indptr[0]])
    1
    >>> [(edge.predicate, neighbor) for edge, neighbor, _pid in compact.node_slots[1]]
    [('assembly', 0)]
    """

    __slots__ = (
        "__weakref__",  # the store leak check in tests/test_service_lifecycle.py
        "kg_name",
        "num_nodes",
        "num_edges",
        "predicate_names",
        "predicate_index",
        "type_names",
        "type_index",
        "entity_type",
        "edge_source",
        "edge_target",
        "edge_predicate",
        "indptr",
        "slot_neighbor",
        "slot_predicate",
        "slot_edge",
        "slot_forward",
        "name_blob",
        "name_offsets",
        "_node_slots",
        "_names",
        "_entities",
        "_indptr_list",
        "_slot_neighbor_list",
        "_slot_predicate_list",
        "_shm_block",
    )

    # Derived-object state: reconstructable from the arrays, so pickling
    # ships only numeric tables (plus name strings).  ``_shm_block`` pins the shared
    # mapping of an attached kernel and never travels.
    _TRANSIENT = (
        "__weakref__",
        "_node_slots",
        "_names",
        "_entities",
        "_indptr_list",
        "_slot_neighbor_list",
        "_slot_predicate_list",
        "_shm_block",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            if name == "__weakref__":
                continue
            if name in self._TRANSIENT:
                object.__setattr__(self, name, fields.get(name))
            else:
                object.__setattr__(self, name, fields[name])

    # ------------------------------------------------------------------
    @classmethod
    def freeze(cls, kg: KnowledgeGraph) -> "CompactGraph":
        """Snapshot ``kg`` into interned tables + an incidence CSR.

        Every edge and slot column comes from copies of the graph's
        insertion-ordered edge columns (:meth:`KnowledgeGraph.edge_columns`)
        by numpy alone: a stable argsort by source numbers the edges
        source-major, a stable argsort by target orders each node's
        in-slots, and two scatters fill the CSR.  No Python code runs per
        edge, and none per node beyond C-level ``map`` calls over the
        names.  The kernel keeps the graph's (immutable) ``Entity``
        records and names, so its reader builds neither; it keeps no
        reference to ``kg`` itself.  Nothing is memoised on ``kg``: every
        call copies the columns and sorts afresh.
        """
        entities = list(kg.entities())
        num_nodes = len(entities)
        predicate_names = kg.predicates()
        predicate_index = {name: i for i, name in enumerate(predicate_names)}
        type_names = kg.types()
        type_index = {name: i for i, name in enumerate(type_names)}

        entity_type = np.empty(num_nodes, dtype=np.int32)
        for tid, etype in enumerate(type_names):
            entity_type[kg.entities_of_type(etype)] = tid

        # Entity names as one UTF-8 blob + offsets: with these on board
        # the snapshot fully describes the graph, which is what lets a
        # shared-memory worker rebuild Entity records without the object
        # graph (see FrozenGraphReader).
        names = list(map(attrgetter("name"), entities))
        joined = "".join(names)
        blob = joined.encode("utf-8")
        if len(blob) == len(joined):  # all ASCII: a byte per character
            lengths = map(len, names)
        else:
            lengths = map(len, map(str.encode, names))
        name_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(lengths, dtype=np.int64, count=num_nodes),
            out=name_offsets[1:],
        )
        name_blob = np.frombuffer(blob, dtype=np.uint8)

        # Edge ids are source-major, each source's out-edges in insertion
        # order: a stable sort of the insertion-ordered source column is
        # exactly that numbering.
        source, target, predicate = kg.edge_columns()
        num_edges = len(source)
        if not num_edges == len(target) == len(predicate):  # pragma: no cover
            raise GraphError(
                f"edge columns disagree ({num_edges}, {len(target)}, "
                f"{len(predicate)}); graph mutated during freeze?"
            )
        order = _stable_argsort(source, num_nodes)
        edge_source = source[order]
        edge_target = target[order]
        edge_predicate = predicate[order]
        rank = np.arange(num_edges, dtype=np.int64)
        edge_id = np.empty(num_edges, dtype=np.int64)
        edge_id[order] = rank
        # A node's in-list is in insertion order: a stable sort of the
        # target column lists every in-edge, target-major, in that order.
        in_edge = edge_id[_stable_argsort(target, num_nodes)]
        del source, target, predicate, order, edge_id
        out_degree = np.bincount(edge_source, minlength=num_nodes)
        in_degree = np.bincount(edge_target, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(out_degree + in_degree, out=indptr[1:])

        # Undirected-incidence CSR in the insertion-order rule
        # (load-bearing: it is the order every view expands in): node
        # u's out-edges, then its in-edges, each in insertion order.  Out-edge ``eid`` of u lands
        # in slot ``indptr[u] + eid - first_out[u]``; the r-th in-edge of
        # v in slot ``indptr[v] + out_degree[v] + r``.
        first_out = np.cumsum(out_degree) - out_degree
        first_in = np.cumsum(in_degree) - in_degree
        out_slot = rank + np.repeat(indptr[:-1] - first_out, out_degree)
        in_slot = rank + np.repeat(
            indptr[:-1] + out_degree - first_in, in_degree
        )
        num_slots = 2 * num_edges
        slot_edge = np.empty(num_slots, dtype=np.int64)
        slot_edge[out_slot] = rank
        slot_edge[in_slot] = in_edge
        slot_neighbor = np.empty(num_slots, dtype=np.int64)
        slot_neighbor[out_slot] = edge_target
        slot_neighbor[in_slot] = edge_source[in_edge]
        slot_predicate = edge_predicate[slot_edge]
        # Self-loops are refused by add_edge, so a slot is forward
        # exactly when it is an out-slot.
        slot_forward = np.zeros(num_slots, dtype=bool)
        slot_forward[out_slot] = True

        return cls(
            kg_name=kg.name,
            num_nodes=num_nodes,
            num_edges=num_edges,
            predicate_names=predicate_names,
            predicate_index=predicate_index,
            type_names=type_names,
            type_index=type_index,
            entity_type=entity_type,
            edge_source=edge_source,
            edge_target=edge_target,
            edge_predicate=edge_predicate,
            indptr=indptr,
            slot_neighbor=slot_neighbor,
            slot_predicate=slot_predicate,
            slot_edge=slot_edge,
            slot_forward=slot_forward,
            name_blob=name_blob,
            name_offsets=name_offsets,
            _names=names,
            _entities=entities,
        )

    # ------------------------------------------------------------------
    # shared-memory lifecycle
    # ------------------------------------------------------------------
    def to_shared(self) -> "SharedCompactGraph":
        """Publish the columns into one shared-memory segment.

        Returns the owning :class:`SharedCompactGraph` lease; its
        ``.handle`` is the O(metadata) :class:`CompactGraphHandle` to
        ship to workers.  This kernel keeps serving from its own heap
        arrays — the lease is an independent copy whose lifetime the
        caller controls (close it after the workers are gone).
        """
        block = ShmArrayBlock.create(
            {name: getattr(self, name) for name in SHARED_COLUMNS}
        )
        handle = CompactGraphHandle(
            block=block.handle,
            num_nodes=self.num_nodes,
            num_edges=self.num_edges,
            kg_name=self.kg_name,
            predicate_names=tuple(self.predicate_names),
            type_names=tuple(self.type_names),
        )
        return SharedCompactGraph(handle=handle, block=block)

    @classmethod
    def from_handle(cls, handle: "CompactGraphHandle") -> "CompactGraph":
        """Attach a shared snapshot zero-copy (O(metadata) warmup).

        The arrays are read-only views over the shared mapping; derived
        object state (slot mirror, names, entity records) is rebuilt
        lazily on first use.  Raises :class:`~repro.errors.GraphError` when the
        owner already unlinked the segment (service closed / owner died).
        """
        block = ShmArrayBlock.attach(handle.block)
        predicate_names = list(handle.predicate_names)
        type_names = list(handle.type_names)
        columns = {name: block.array(name) for name in SHARED_COLUMNS}
        return cls(
            kg_name=handle.kg_name,
            num_nodes=handle.num_nodes,
            num_edges=handle.num_edges,
            predicate_names=predicate_names,
            predicate_index={n: i for i, n in enumerate(predicate_names)},
            type_names=type_names,
            type_index={n: i for i, n in enumerate(type_names)},
            _shm_block=block,
            **columns,
        )

    # ------------------------------------------------------------------
    # lazily rebuilt derived state
    # ------------------------------------------------------------------
    # The builders are idempotent pure functions of the arrays, so a
    # benign race between threads only duplicates work; the last write
    # wins with an equal value.

    @property
    def node_slots(self) -> List[Tuple[Tuple[Edge, int, int], ...]]:
        """Per-node ``(edge, neighbor, predicate id)`` triples, slot order.

        The graph's one edge walk: ``weighted_incident`` of every view
        (the lazy oracle, the reference search over a compact view, the
        sharded gather, the ``view_incident_us`` probe), the path
        oracles of :mod:`repro.kg.paths` and the baselines.  An edge's
        direction is ``edge.source == uid``.  The array search kernel
        reads the flat list mirrors
        (:meth:`indptr_list`, :meth:`slot_neighbor_list`,
        :meth:`slot_predicate_list`) instead.  Built once (O(V + E)) on
        first use, on every kernel — frozen, unpickled or attached — so
        a service that only runs the array kernel never pays for it.
        """
        if self._node_slots is None:
            # One Edge per edge id, shared by its two slots.
            predicate_names = self.predicate_names
            edges = [
                Edge(source=source, predicate=predicate_names[pid], target=target)
                for source, pid, target in zip(
                    self.edge_source.tolist(),
                    self.edge_predicate.tolist(),
                    self.edge_target.tolist(),
                )
            ]
            triples = [
                (edges[eid], neighbor, pid)
                for eid, neighbor, pid in zip(
                    self.slot_edge.tolist(),
                    self.slot_neighbor.tolist(),
                    self.slot_predicate.tolist(),
                )
            ]
            bounds = self.indptr.tolist()
            object.__setattr__(
                self,
                "_node_slots",
                [tuple(triples[start:end]) for start, end in zip(bounds, bounds[1:])],
            )
        return self._node_slots

    def entity_names(self) -> List[str]:
        """All entity names, uid-ordered (decoded once from the blob)."""
        if self._names is None:
            blob = self.name_blob.tobytes()
            offsets = self.name_offsets.tolist()
            names = [
                blob[offsets[uid]:offsets[uid + 1]].decode("utf-8")
                for uid in range(self.num_nodes)
            ]
            object.__setattr__(self, "_names", names)
        return self._names

    def entity_records(self) -> List[Entity]:
        """All ``Entity`` records, uid-ordered (do not mutate).

        A just-frozen kernel holds the source graph's own records; an
        attached or unpickled one builds them once from the names and
        the type column.
        """
        if self._entities is None:
            names = self.entity_names()
            type_names = self.type_names
            entities = [
                Entity(uid=uid, name=names[uid], etype=type_names[tid])
                for uid, tid in enumerate(self.entity_type.tolist())
            ]
            object.__setattr__(self, "_entities", entities)
        return self._entities

    # ------------------------------------------------------------------
    # edge records
    # ------------------------------------------------------------------
    def edge(self, eid: int) -> Edge:
        """The :class:`Edge` behind edge id ``eid``, built from the columns.

        For match assembly and rendering: a query reads a few dozen, so
        each is built on demand rather than kept in a table.  Equal to
        the record ``node_slots`` holds for it, not the same object.
        """
        return Edge(
            source=int(self.edge_source[eid]),
            predicate=self.predicate_names[self.edge_predicate[eid]],
            target=int(self.edge_target[eid]),
        )

    def indptr_list(self) -> List[int]:
        """Python-int mirror of ``indptr``, built once per kernel.

        The search kernel reads two ``indptr`` scalars per pop; the
        memoized mirror keeps those reads unboxed without a per-search
        ``tolist`` over the whole array.  Do not mutate.
        """
        if self._indptr_list is None:
            object.__setattr__(self, "_indptr_list", self.indptr.tolist())
        return self._indptr_list

    def slot_neighbor_list(self) -> List[int]:
        """Python-int mirror of ``slot_neighbor`` (see :meth:`indptr_list`)."""
        if self._slot_neighbor_list is None:
            object.__setattr__(
                self, "_slot_neighbor_list", self.slot_neighbor.tolist()
            )
        return self._slot_neighbor_list

    def slot_predicate_list(self) -> List[int]:
        """Python-int mirror of ``slot_predicate`` (see :meth:`indptr_list`).

        Maps a slot to its interned predicate id, which is what lets
        every per-search weight table be predicate-sized.
        """
        if self._slot_predicate_list is None:
            object.__setattr__(
                self, "_slot_predicate_list", self.slot_predicate.tolist()
            )
        return self._slot_predicate_list

    # ------------------------------------------------------------------
    # Pickle plumbing (__slots__ classes need it explicitly).  Only the
    # numeric tables travel: the entity records, the per-node slot mirror
    # and the list mirrors are dropped and rebuilt lazily on first use,
    # so shipping a kernel to a worker process costs the arrays, not
    # Python objects per edge.
    def __getstate__(self) -> Dict[str, object]:
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self._TRANSIENT
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name in self._TRANSIENT:
            if name != "__weakref__":
                object.__setattr__(self, name, None)
        for name, value in state.items():
            object.__setattr__(self, name, value)


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative int keys below ``bound`` (< 2**32).

    An LSD radix sort by 16-bit digits, one ``uint16`` stable argsort per
    digit — numpy sorts 16-bit keys stably by radix, several times faster
    than its stable sort of wider ints.  ``astype`` keeps the low digit.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    if bound > 1 << 16:
        high = (keys[order] >> 16).astype(np.uint16)
        order = order[np.argsort(high, kind="stable")]
    return order


# ----------------------------------------------------------------------
# shared-memory handle + owner lease
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CompactGraphHandle:
    """Picklable pointer to a shm-resident :class:`CompactGraph`.

    Carries the segment manifest plus the small interned-string tables;
    its pickle is O(predicates + types), independent of V and E — this is
    what an :class:`~repro.core.engine.EngineSpec` ships to process
    workers instead of the arrays.
    """

    block: ShmBlockHandle
    num_nodes: int
    num_edges: int
    kg_name: str
    predicate_names: Tuple[str, ...]
    type_names: Tuple[str, ...]


class SharedCompactGraph:
    """The owner's lease on a shared :class:`CompactGraph` segment.

    Created by :meth:`CompactGraph.to_shared`.  Exactly one process owns
    the segment; it must keep the lease alive while workers are attached
    and :meth:`close` it afterwards (detach + unlink, idempotent).  A
    finalizer performs the same cleanup at interpreter exit, so a crashed
    owner cannot leak ``/dev/shm`` entries.

    Usable as a context manager::

        with compact.to_shared() as lease:
            ship(lease.handle)
    """

    def __init__(self, handle: CompactGraphHandle, block: ShmArrayBlock):
        self.handle = handle
        self._block = block

    @property
    def name(self) -> str:
        return self._block.name

    @property
    def closed(self) -> bool:
        return self._block.closed

    def close(self) -> None:
        """Detach and unlink the segment (idempotent).

        Workers still attached keep their mappings (POSIX unlink removes
        the name, not the memory), but no new attach can succeed — call
        this only after the worker pool is shut down.
        """
        self._block.close()
        self._block.unlink()

    def __enter__(self) -> "SharedCompactGraph":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ----------------------------------------------------------------------
# the engine's read contract over a frozen store
# ----------------------------------------------------------------------

class FrozenGraphReader:
    """The :class:`~repro.kg.graph.GraphReader` of a frozen store.

    One implementation for every frozen form — a :class:`CompactGraph`
    by value, unpickled or attached from shared memory, and a
    :class:`~repro.kg.sharded.ShardedGraph` (whose node columns are
    replicated per shard) — because it reads only what they share:
    ``kg_name``, ``num_nodes``, ``num_edges``, ``type_names`` and
    ``entity_records()``.  It has no edge surface on
    purpose: edges are served by the store's view factory, and a
    traversal method here could answer from one shard's slice.

    Construction is O(1); the store keeps the entity records, and the
    per-type index is derived once on first use, in the source graph's
    order (entities by uid, per-type uids ascending, types by first
    use), so node matching and pivot selection behave bit-identically
    to the source graph.  The builder is idempotent, so a race between
    threads only duplicates work.
    """

    def __init__(self, store):
        self._store = store
        self.name: str = store.kg_name
        self._by_type: Optional[Dict[str, List[int]]] = None

    @property
    def num_entities(self) -> int:
        return self._store.num_nodes

    @property
    def num_edges(self) -> int:
        return self._store.num_edges

    def entity(self, uid: int) -> Entity:
        """The entity record for ``uid``."""
        if not 0 <= uid < self._store.num_nodes:
            raise UnknownEntityError(uid)
        return self._store.entity_records()[uid]

    def entities(self) -> Iterator[Entity]:
        """Iterate over all entities in insertion (uid) order."""
        return iter(self._store.entity_records())

    def entities_of_type(self, etype: str) -> List[int]:
        """All entity ids with the given type (empty list if none)."""
        if self._by_type is None:
            index: Dict[str, List[int]] = {
                name: [] for name in self._store.type_names
            }
            for entity in self._store.entity_records():
                index[entity.etype].append(entity.uid)
            self._by_type = index
        return list(self._by_type.get(etype, []))

    def types(self) -> List[str]:
        """All distinct entity types, in first-use order."""
        return list(self._store.type_names)


def check_frozen_shape(kg: GraphReader, store) -> None:
    """Every view factory's guard: :class:`~repro.errors.ServeError` when
    the reader an engine hands it has other counts than its store — a
    live ``KnowledgeGraph`` that grew after the freeze — rather than
    serve rows and ``m(u)`` bounds that miss the growth."""
    if kg.num_entities != store.num_nodes or kg.num_edges != store.num_edges:
        raise ServeError(
            f"the graph has {kg.num_entities} entities and "
            f"{kg.num_edges} edges, but was frozen at {store.num_nodes} "
            f"and {store.num_edges}: freeze it again and build a new "
            "engine"
        )

"""Entity-partitioned sharded store over the compact CSR kernel.

One frozen :class:`~repro.kg.compact.CompactGraph` is as fast as a single
box allows — and exactly as large as that box's RAM allows.  This module
splits the store along **entity ownership** so the edge tables (the part
that grows with the graph) divide across N independent shards while
results stay bit-identical to the unsharded kernel:

- :func:`partition_entities` deterministically assigns every entity to a
  shard (``"hash"`` mixing or greedy ``"balanced-degree"``);
- every edge is **owned by exactly one shard** — the shard of its source
  entity — and both of its incidence slots live in that shard, one under
  each endpoint's CSR row.  A node's incidence is therefore *scattered*
  across shards (its in-edges live wherever their sources live), which is
  what makes ``weighted_incident`` an embarrassingly parallel per-shard
  gather;
- each shard is a real :class:`CompactGraph` (independently freezable
  and picklable) whose CSR rows span **all** nodes but hold
  only the shard's owned slots, in global relative order.  Entity columns
  (types, names, ``indptr``) are replicated per shard; edge columns are
  not — memory divides where it matters;
- the **cut-edge replica table** is the per-slot ``slot_rank`` column:
  each local slot remembers its global position inside its node's
  unsharded incidence row.  Ranks are unique per node, so merging the
  per-shard gathers back into one sequence is a stable sort by rank —
  this is the ordering invariant that keeps heap tie-breaks, and hence
  answers, bit-identical to the unsharded view.  It is also what makes a
  cut edge (endpoints on different shards) visible from *both* endpoints:
  the remote endpoint's row in the owner shard carries the slot, and the
  rank says exactly where it belongs in the merge;
- ``m(u)`` (Lemma 1) is a per-shard segment-max over the shard's slots;
  the global row is the elementwise max of the per-shard maxima — exact
  for floats, so the merged row equals the unsharded one bit for bit;
- the hop label (the reach prune's φ distance) is ``n̂`` frontier
  sweeps, each the OR of every shard's segment-``or`` over its own
  rows: the shards' slots together are exactly the global slot set, so
  no merged topology is built and the label equals the unsharded one
  byte for byte.

:class:`ShardedGraphView` implements the
:class:`~repro.core.semantic_graph.WeightedGraphView` protocol plus
``hop_label`` over the shard set, gathering shard by shard on the
calling thread.  Every shard carries the same predicate table, so the
shard set has **one row source**: per query predicate one weight row
(computed from the engine's own
:class:`~repro.embedding.predicate_space.PredicateSpace`, exactly as
the compact view computes it) and one merged ``m(u)`` row, plus one hop
label per φ set — all in the engine's shared weight cache, bound to the
shard set.  A sharded engine's caches and stats are therefore an
unsharded engine's: one row cache, one space.

A shard set is served in the caller's process only: a process pool
publishes and attaches one :class:`~repro.kg.compact.CompactGraph`
segment, and a :class:`~repro.serve.service.QueryService` refuses a
sharded store on the process backend.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.kg.compact import SHARED_COLUMNS, CompactGraph, check_frozen_shape
from repro.kg.graph import Edge, Entity, KnowledgeGraph
from repro.utils.rng import derive_rng

#: Supported entity-partitioning strategies.
SHARD_STRATEGIES = ("hash", "balanced-degree")


def compact_resident_bytes(graph: CompactGraph) -> int:
    """Bytes of the kernel's resident column arrays (the shm payload)."""
    return sum(
        int(np.asarray(getattr(graph, name)).nbytes) for name in SHARED_COLUMNS
    )


# ----------------------------------------------------------------------
# entity partitioner
# ----------------------------------------------------------------------

def partition_entities(
    graph: CompactGraph, num_shards: int, *, strategy: str = "hash"
) -> np.ndarray:
    """Deterministic entity → shard assignment (``int32``, length V).

    ``"hash"`` mixes each uid with a fixed salt (derived from seed 0 and
    the shard count) through the splitmix64 finalizer — stateless,
    uniform, and stable across runs.  ``"balanced-degree"`` sorts nodes
    by ``(-degree, uid)`` and greedily assigns each to the least-loaded
    shard (load = owned degree mass; ties break to the lowest shard id).
    Same inputs → byte-identical assignment array.
    """
    if num_shards < 1:
        raise GraphError(f"num_shards must be at least 1, got {num_shards}")
    if strategy not in SHARD_STRATEGIES:
        raise GraphError(
            f"unknown shard strategy {strategy!r} "
            f"(expected one of {SHARD_STRATEGIES})"
        )
    num_nodes = graph.num_nodes
    if strategy == "hash":
        rng = derive_rng(0, f"entity-shard-hash-{num_shards}")
        salt = np.uint64(int(rng.integers(0, 2**63)))
        uids = np.arange(num_nodes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            x = uids + salt
            x ^= x >> np.uint64(30)
            x *= np.uint64(0xBF58476D1CE4E5B9)
            x ^= x >> np.uint64(27)
            x *= np.uint64(0x94D049BB133111EB)
            x ^= x >> np.uint64(31)
        return (x % np.uint64(num_shards)).astype(np.int32)

    degrees = np.diff(graph.indptr)
    # Heaviest node first, uid as the tie-break; the greedy heap then
    # spreads degree mass evenly (classic LPT scheduling).
    order = np.lexsort((np.arange(num_nodes), -degrees))
    assignment = np.empty(num_nodes, dtype=np.int32)
    heap: List[Tuple[int, int]] = [(0, sid) for sid in range(num_shards)]
    heapq.heapify(heap)
    degree_list = degrees.tolist()
    for uid in order.tolist():
        load, sid = heapq.heappop(heap)
        assignment[uid] = sid
        # +1 keeps isolated nodes spreading too instead of all landing
        # on shard 0.
        heapq.heappush(heap, (load + degree_list[uid] + 1, sid))
    return assignment


# ----------------------------------------------------------------------
# shard slicing
# ----------------------------------------------------------------------

@dataclass(eq=False)
class GraphShard:
    """One shard: a full-width CompactGraph over the shard's owned slots.

    ``slot_rank[s]`` is local slot ``s``'s position inside its node's
    *global* (unsharded) incidence row — the cut-edge replica table that
    lets per-shard gathers merge back into the exact global order.
    ``owned_edges`` maps local edge ids back to global edge ids
    (ascending, so local id order == global id order).
    """

    shard_id: int
    graph: CompactGraph
    slot_rank: np.ndarray
    owned_edges: np.ndarray
    cut_edges: int
    _rank_list: Optional[List[int]] = field(default=None, repr=False)

    def rank_list(self) -> List[int]:
        """Python-int mirror of ``slot_rank`` for the merge hot loop."""
        if self._rank_list is None:
            self._rank_list = self.slot_rank.tolist()
        return self._rank_list

    def resident_bytes(self) -> int:
        """Shard-resident bytes: columns + rank table + edge-id map."""
        return (
            compact_resident_bytes(self.graph)
            + int(self.slot_rank.nbytes)
            + int(self.owned_edges.nbytes)
        )


def _slice_shards(
    full: CompactGraph, shard_of: np.ndarray, num_shards: int
) -> List[GraphShard]:
    """Split a frozen kernel into per-shard kernels by edge ownership.

    Pure array slicing over the full freeze — no per-shard ``add_edge``
    replay — so within-node slot order (and hence the rank table) is
    taken straight from the global CSR.  Every shard shares the full
    freeze's node columns, names and entity records.
    """
    num_nodes, num_edges = full.num_nodes, full.num_edges
    edge_owner = shard_of[np.asarray(full.edge_source)]
    slot_owner = edge_owner[np.asarray(full.slot_edge)]
    row_lengths = np.diff(full.indptr)
    node_of_slot = np.repeat(
        np.arange(num_nodes, dtype=np.int64), row_lengths
    )
    rank_global = (
        np.arange(2 * num_edges, dtype=np.int64)
        - np.repeat(full.indptr[:-1], row_lengths)
    ).astype(np.int32)
    cut_mask = shard_of[np.asarray(full.edge_source)] != shard_of[
        np.asarray(full.edge_target)
    ]

    shards: List[GraphShard] = []
    for sid in range(num_shards):
        owned = np.flatnonzero(edge_owner == sid)
        sel = np.flatnonzero(slot_owner == sid)
        counts = np.bincount(node_of_slot[sel], minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        graph = CompactGraph(
            kg_name=f"{full.kg_name}#shard{sid}",
            num_nodes=num_nodes,
            num_edges=int(owned.size),
            predicate_names=full.predicate_names,
            predicate_index=full.predicate_index,
            type_names=full.type_names,
            type_index=full.type_index,
            entity_type=full.entity_type,
            edge_source=np.ascontiguousarray(full.edge_source[owned]),
            edge_target=np.ascontiguousarray(full.edge_target[owned]),
            edge_predicate=np.ascontiguousarray(full.edge_predicate[owned]),
            indptr=indptr,
            slot_neighbor=np.ascontiguousarray(full.slot_neighbor[sel]),
            slot_predicate=np.ascontiguousarray(full.slot_predicate[sel]),
            slot_edge=np.searchsorted(owned, full.slot_edge[sel]),
            slot_forward=np.ascontiguousarray(full.slot_forward[sel]),
            name_blob=full.name_blob,
            name_offsets=full.name_offsets,
            _names=full._names,
            _entities=full._entities,
        )
        shards.append(
            GraphShard(
                shard_id=sid,
                graph=graph,
                slot_rank=np.ascontiguousarray(rank_global[sel]),
                owned_edges=owned,
                cut_edges=int(cut_mask[owned].sum()),
            )
        )
    return shards


# ----------------------------------------------------------------------
# the shard set
# ----------------------------------------------------------------------

class ShardedGraph:
    """N entity-partitioned :class:`GraphShard`\\ s over one frozen graph.

    Build with :meth:`build` (slices a transient full freeze).
    Instances are immutable and, like :class:`CompactGraph` itself, keep
    no reference to the source graph.
    """

    def __init__(
        self,
        *,
        kg_name: str,
        num_nodes: int,
        num_edges: int,
        shards: Sequence[GraphShard],
        shard_of: np.ndarray,
    ):
        self.kg_name = kg_name
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.shards = list(shards)
        self.shard_of = shard_of

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, kg: KnowledgeGraph, num_shards: int, *, strategy: str = "hash"
    ) -> "ShardedGraph":
        """Partition ``kg`` into ``num_shards`` shards.

        The full freeze is transient scaffolding: it exists long enough
        to take the global slot order (the rank table) and is dropped
        once the shards are sliced.
        """
        full = CompactGraph.freeze(kg)
        shard_of = partition_entities(full, num_shards, strategy=strategy)
        return cls(
            kg_name=full.kg_name,
            num_nodes=full.num_nodes,
            num_edges=full.num_edges,
            shards=_slice_shards(full, shard_of, num_shards),
            shard_of=shard_of,
        )

    # ------------------------------------------------------------------
    @property
    def cut_edges(self) -> int:
        """Edges whose endpoints live on different shards."""
        return sum(shard.cut_edges for shard in self.shards)

    # The node columns are replicated in every shard; shard 0's copy is
    # what a FrozenGraphReader reads.
    @property
    def type_names(self) -> List[str]:
        return self.shards[0].graph.type_names

    def entity_records(self) -> List[Entity]:
        """All entity records, uid-ordered (shard 0's, built once)."""
        return self.shards[0].graph.entity_records()

    def resident_bytes(self) -> List[int]:
        """Per-shard resident bytes (what each shard's box would hold)."""
        return [shard.resident_bytes() for shard in self.shards]

    def max_resident_bytes(self) -> int:
        return max(self.resident_bytes())


# ----------------------------------------------------------------------
# the rank-merged view + factory
# ----------------------------------------------------------------------

class ShardedGraphView:
    """Rank-merged :class:`WeightedGraphView` over a shard set.

    ``weighted_incident`` gathers each shard's slice of the node's row
    straight off ``shard.graph`` and ``shard.rank_list()``, weighs it
    from the shard set's weight row and merges by the global rank table
    — a stable sort over unique keys, so the yielded sequence is
    bit-identical to the unsharded view's.  ``m(u)`` is read off one
    merged row per query predicate (:meth:`bounds_row_array`) and
    :meth:`hop_label` sweeps the shards' own rows, so a search over this
    view makes the unsharded search's every decision, reach prune
    included.

    An edge's weight is a function of (query predicate, graph predicate)
    alone (Section IV-B) and every shard carries the same predicate
    table, so one weight row per query predicate serves the whole shard
    set: :func:`~repro.core.compact_view.shared_weight_row` computes it
    from the engine's own space, as it does for the compact view.  The
    weight row, the merged ``m(u)`` row and the hop label all go through
    ``cache`` (the engine's shared weight cache, bound to the shard set
    by the factory) and a per-query L1, as the compact view's rows do.

    The view deliberately does **not** expose the single-CSR surface
    (``graph`` / ``weight_row_array``), so the ``"auto"`` search kernel
    falls back to the reference A* — the merge seam is the protocol, not
    the arrays.
    """

    def __init__(
        self,
        sharded: ShardedGraph,
        space,  # PredicateSpace
        *,
        min_weight: float = 0.0,
        cache=None,  # Optional[WeightCache], bound to ``sharded``
    ):
        self._shards = sharded.shards
        # Shard 0's kernel stands for the predicate table every shard shares.
        self._table = sharded.shards[0].graph
        self.space = space
        self.min_weight = min_weight
        self._cache = cache
        # L1, per query: query predicate -> (row array, row list), filled
        # by shared_weight_row, which also fills the space index.
        self._weight_rows: Dict[str, Tuple[np.ndarray, List[float]]] = {}
        self._space_index: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # L1, per query: query predicate -> plain-list mirror of the
        # merged m(u) row, for the per-state probes.
        self._bounds_rows: Dict[str, List[float]] = {}
        # L1, per query: φ key + (n̂,) -> hop label (see hop_label).
        self._hop_labels: Dict[Tuple, bytes] = {}
        # Counted as on the compact view: pair weights of computed rows
        # (one row per query predicate, whatever the shard count) and
        # rows served by the shared cache.
        self.edges_weighted = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    def _weight_row(self, query_predicate: str) -> Tuple[np.ndarray, List[float]]:
        from repro.core.compact_view import shared_weight_row

        return shared_weight_row(self, self._table, query_predicate)

    def weighted_incident(
        self, uid: int, query_predicate: str
    ) -> Iterable[Tuple[Edge, int, float]]:
        """``(edge, neighbour, weight)`` in exact global slot order."""
        entry = self._weight_rows.get(query_predicate)
        if entry is None:
            entry = self._weight_row(query_predicate)
        row_list = entry[1]
        merged: List[Tuple[int, Edge, int, float]] = []
        for shard in self._shards:
            graph = shard.graph
            slots = graph.node_slots[uid]
            if slots:
                start = graph.indptr_list()[uid]
                ranks = shard.rank_list()
                merged += [
                    (ranks[start + offset], edge, neighbor, row_list[pid])
                    for offset, (edge, neighbor, pid) in enumerate(slots)
                ]
        merged.sort(key=lambda item: item[0])
        for _rank, edge, neighbor, weight in merged:
            yield edge, neighbor, weight

    def _shard_rows(self) -> List[Tuple[CompactGraph, np.ndarray, np.ndarray]]:
        """``(shard kernel, starts of its non-empty rows, non-empty mask)``
        per shard holding any slot — ``reduceat`` needs non-empty
        segments, as in the compact view."""
        rows = []
        for shard in self._shards:
            graph = shard.graph
            starts = graph.indptr[:-1]
            nonempty = starts < graph.indptr[1:]
            if nonempty.any():
                rows.append((graph, starts[nonempty], nonempty))
        return rows

    def bounds_row_array(self, query_predicate: str) -> np.ndarray:
        """Read-only global ``m(u)`` per node, bit-equal to the unsharded row.

        The elementwise max of every shard's segment-max over its own
        slots (exact for floats), shared across queries through the
        engine's cache (row kind ``"bounds"``).  The per-shard maxima
        are not kept: nothing reads them once merged.
        """
        row = None
        if self._cache is not None:
            row = self._cache.get_row("bounds", query_predicate)
        if row is not None:
            self.cache_hits += 1
            return row
        weights = self._weight_row(query_predicate)[0]
        row = np.zeros(self._table.num_nodes)
        for graph, row_starts, nonempty in self._shard_rows():
            row[nonempty] = np.maximum(
                row[nonempty],
                np.maximum.reduceat(weights[graph.slot_predicate], row_starts),
            )
        row.flags.writeable = False
        if self._cache is not None:
            self._cache.put_row("bounds", query_predicate, row)
        return row

    def _bounds_row(self, query_predicate: str) -> List[float]:
        """Plain-list mirror of the merged ``m(u)`` row, once per query."""
        bounds = self._bounds_rows.get(query_predicate)
        if bounds is None:
            bounds = self.bounds_row_array(query_predicate).tolist()
            self._bounds_rows[query_predicate] = bounds
        return bounds

    def max_adjacent_weight_any(
        self, uid: int, query_predicates: Iterable[str]
    ) -> float:
        """``m(u)`` against several remaining query predicates (Lemma 1).

        Called once per generated A* state: the L1 dict probe is inlined
        so the common (row already merged) case is two lookups.
        """
        best = 0.0
        rows = self._bounds_rows
        for predicate in query_predicates:
            row = rows.get(predicate)
            if row is None:
                row = self._bounds_row(predicate)
            weight = row[uid]
            if weight > best:
                best = weight
        return best

    def hop_label(self, key: Tuple, phi: Iterable[int], bound: int) -> bytes:
        """Hops from every node to the nearest φ-match, one byte per node.

        The unsharded views' contract, bytes and row key (see
        :meth:`~repro.core.semantic_graph.SemanticGraphView.hop_label`):
        ``n̂`` frontier sweeps, each the OR over shards of the shard's
        segment-``or`` of "my neighbour has a walk of exactly ``k - 1``
        hops to φ" over its own CSR rows.
        """
        from repro.core.semantic_graph import shared_hop_label

        def sweeps(cap: int) -> bytes:
            num_nodes = self._table.num_nodes
            shard_rows = self._shard_rows()
            distance = np.full(num_nodes, cap, dtype=np.uint8)
            reach = np.zeros(num_nodes, dtype=bool)
            reach[np.fromiter(phi, dtype=np.int64)] = True
            for hop in range(1, cap):
                arrived = np.zeros(num_nodes, dtype=bool)
                for graph, row_starts, nonempty in shard_rows:
                    arrived[nonempty] |= np.logical_or.reduceat(
                        reach[graph.slot_neighbor], row_starts
                    )
                reach = arrived
                distance[reach & (distance > hop)] = hop
            return distance.tobytes()

        return shared_hop_label(self, key, bound, sweeps)


class ShardedViewFactory:
    """Builds :class:`ShardedGraphView`\\ s over one shard set.

    Matches the engine's ``view_factory`` seam and keeps no state beyond
    the shard set: every row the views read — the weight and merged
    ``m(u)`` rows per query predicate, the hop labels — lives in the
    engine's shared ``cache``, bound to the shard set's identity, and is
    computed from the engine's own space.  A sharded engine therefore
    reports exactly what an unsharded one does: one row cache, one space.
    Every call first runs :func:`~repro.kg.compact.check_frozen_shape`.
    """

    def __init__(self, sharded: ShardedGraph):
        self._sharded = sharded

    def __call__(
        self,
        kg,
        space,
        *,
        min_weight: float = 0.0,
        cache=None,
    ) -> ShardedGraphView:
        check_frozen_shape(kg, self._sharded)
        if cache is not None:
            # The shard set is immutable, so its identity is the whole
            # graph part of the binding.
            cache.bind((self._sharded, space, min_weight))
        return ShardedGraphView(
            self._sharded, space, min_weight=min_weight, cache=cache
        )

"""``CompactGraph.freeze`` against a per-slot reference loop.

The production freeze writes each CSR column whole (one ``np.fromiter``
or one scatter per column).  The reference below walks the graph slot by
slot, storing one scalar per column per slot — the obvious loop, kept
here as the oracle.  Every shared column must agree in dtype, shape and
values, and so must the derived state a search reads (``node_slots``,
the entity names, and the edge table down to object identity).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.datasets import load_bundle
from repro.kg.compact import SHARED_COLUMNS, CompactGraph
from repro.kg.graph import Edge, KnowledgeGraph


def reference_freeze(kg: KnowledgeGraph) -> Dict[str, object]:
    """Every column and the derived state, written one slot at a time."""
    num_nodes = kg.num_entities
    predicate_index = {name: i for i, name in enumerate(kg.predicates())}
    type_index = {name: i for i, name in enumerate(kg.types())}
    entity_type = np.fromiter(
        (type_index[entity.etype] for entity in kg.entities()),
        dtype=np.int32,
        count=num_nodes,
    )
    names = [entity.name for entity in kg.entities()]
    encoded = [name.encode("utf-8") for name in names]
    name_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(b) for b in encoded], out=name_offsets[1:])
    name_blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)

    edges: List[Edge] = []
    edge_id: Dict[Edge, int] = {}
    for uid in range(num_nodes):
        for edge, _target in kg.out_incident(uid):
            edge_id[edge] = len(edges)
            edges.append(edge)
    num_edges = len(edges)
    edge_source = np.fromiter(
        (edge.source for edge in edges), dtype=np.int64, count=num_edges
    )
    edge_target = np.fromiter(
        (edge.target for edge in edges), dtype=np.int64, count=num_edges
    )
    edge_predicate = np.fromiter(
        (predicate_index[edge.predicate] for edge in edges),
        dtype=np.int32,
        count=num_edges,
    )

    num_slots = 2 * num_edges
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    slot_neighbor = np.empty(num_slots, dtype=np.int64)
    slot_predicate = np.empty(num_slots, dtype=np.int32)
    slot_edge = np.empty(num_slots, dtype=np.int64)
    slot_forward = np.empty(num_slots, dtype=bool)
    node_slots: List[Tuple[Tuple[Edge, int, int], ...]] = []
    cursor = 0
    for uid in range(num_nodes):
        triples = []
        for edge, neighbor in kg.incident(uid):
            eid = edge_id[edge]
            pid = int(edge_predicate[eid])
            slot_neighbor[cursor] = neighbor
            slot_edge[cursor] = eid
            slot_predicate[cursor] = pid
            slot_forward[cursor] = edge.source == uid
            triples.append((edge, neighbor, pid))
            cursor += 1
        node_slots.append(tuple(triples))
        indptr[uid + 1] = cursor
    assert cursor == num_slots

    return {
        "columns": {
            "entity_type": entity_type,
            "edge_source": edge_source,
            "edge_target": edge_target,
            "edge_predicate": edge_predicate,
            "indptr": indptr,
            "slot_neighbor": slot_neighbor,
            "slot_predicate": slot_predicate,
            "slot_edge": slot_edge,
            "slot_forward": slot_forward,
            "name_blob": name_blob,
            "name_offsets": name_offsets,
        },
        "node_slots": node_slots,
        "edges": edges,
        "names": names,
    }


def assert_freeze_matches_reference(kg: KnowledgeGraph) -> CompactGraph:
    compact = CompactGraph.freeze(kg)
    expected = reference_freeze(kg)
    assert set(expected["columns"]) == set(SHARED_COLUMNS)
    for name, want in expected["columns"].items():
        got = getattr(compact, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert compact.num_nodes == kg.num_entities
    assert compact.num_edges == kg.num_edges
    assert compact.node_slots == expected["node_slots"]
    assert compact.entity_names() == expected["names"]
    # The edge table holds the source graph's own Edge objects.
    edges = [compact.edge(eid) for eid in range(compact.num_edges)]
    assert len(edges) == len(expected["edges"])
    assert all(got is want for got, want in zip(edges, expected["edges"]))
    assert all(
        got[0] is want[0]
        for got_row, want_row in zip(compact.node_slots, expected["node_slots"])
        for got, want in zip(got_row, want_row)
    )
    return compact


# ----------------------------------------------------------------------
# generated append-only graphs
# ----------------------------------------------------------------------
_NAMES = st.sampled_from(["a", "b", "Zoë", "東京", "x y", "a"])
_TYPES = st.sampled_from(["Person", "City", "Company"])
_PREDICATES = st.sampled_from(["born_in", "works_for", "located_in", "knows"])


@st.composite
def append_only_graphs(draw) -> KnowledgeGraph:
    """Graphs as ``add_entity`` / ``add_edge`` calls would build them.

    Covers the empty graph, isolated nodes, nodes with only in-edges,
    repeated ``add_edge`` calls (refused as duplicates) and several
    predicates and types.
    """
    kg = KnowledgeGraph("generated")
    num_nodes = draw(st.integers(min_value=0, max_value=12))
    for _ in range(num_nodes):
        kg.add_entity(draw(_NAMES), draw(_TYPES))
    if num_nodes < 2:
        return kg
    node = st.integers(0, num_nodes - 1)
    triples = draw(
        st.lists(
            st.tuples(node, _PREDICATES, node).filter(lambda t: t[0] != t[2]),
            max_size=40,
        )
    )
    repeats = draw(st.lists(st.sampled_from(triples), max_size=5)) if triples else []
    for source, predicate, target in triples + repeats:
        kg.add_edge(source, predicate, target)
    return kg


class TestFreezeAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(append_only_graphs())
    def test_generated_graphs(self, kg):
        assert_freeze_matches_reference(kg)

    @settings(max_examples=60, deadline=None)
    @given(append_only_graphs(), append_only_graphs())
    def test_refreeze_after_growth(self, kg, growth):
        before = CompactGraph.freeze(kg)
        snapshot = {name: getattr(before, name).copy() for name in SHARED_COLUMNS}
        offset = kg.num_entities
        for entity in growth.entities():
            kg.add_entity(entity.name, entity.etype)
        for uid in range(growth.num_entities):
            for edge, target in growth.out_incident(uid):
                kg.add_edge(offset + uid, edge.predicate, offset + target)
        if offset:
            # Link the old and the new part, both ways.
            for uid in range(growth.num_entities):
                kg.add_edge(uid % offset, "knows", offset + uid)
                kg.add_edge(offset + uid, "located_in", (uid + 1) % offset)
        grown = kg.num_entities != offset or kg.num_edges != before.num_edges
        assert before.is_stale() == grown
        assert_freeze_matches_reference(kg)
        # The earlier snapshot is untouched by the growth.
        for name, column in snapshot.items():
            assert np.array_equal(getattr(before, name), column)

    def test_in_edge_only_node(self):
        kg = KnowledgeGraph("sink")
        for name in ("s", "t", "u"):
            kg.add_entity(name, "Thing")
        kg.add_edge(0, "p", 2)
        kg.add_edge(1, "p", 2)
        kg.add_edge(1, "q", 2)
        compact = assert_freeze_matches_reference(kg)
        assert compact.indptr[3] - compact.indptr[2] == 3
        assert not compact.slot_forward[compact.indptr[2]:].any()

    @pytest.mark.parametrize(
        "preset, scale",
        [("dbpedia", 1.0), ("freebase", 1.0), ("yago2", 1.0), ("dbpedia", 4.0)],
    )
    def test_bundle_presets(self, preset, scale):
        assert_freeze_matches_reference(load_bundle(preset, scale=scale, seed=11).kg)

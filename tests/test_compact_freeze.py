"""``CompactGraph.freeze`` against a per-slot reference loop.

The production freeze builds each CSR column whole, with numpy, from the
graph's insertion-ordered edge columns.  The reference below first
builds each node's incidence from those columns in plain Python — its
out-edges, then its in-edges, each in insertion order — and then walks
it slot by slot, storing one scalar per column per slot: the obvious
loop, kept here as the oracle, independent of the freeze.  Every shared
column must agree in dtype, shape and values, and so must the derived
state a search reads (``node_slots``, the entity names and records, and
every edge the columns rebuild).  The edge columns themselves are checked
against the accepted calls after any sequence of construction calls,
refused ones included, and ``has_edge`` against the inserted triples.
"""

from __future__ import annotations

import copy
import pickle
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.datasets import load_bundle
from repro.errors import GraphError, UnknownEntityError
from repro.kg.compact import SHARED_COLUMNS, CompactGraph
from repro.kg.graph import Edge, KnowledgeGraph


def column_incidence(
    kg: KnowledgeGraph,
) -> Tuple[List[List[Tuple[Edge, int]]], List[List[Tuple[Edge, int]]]]:
    """Per node, its ``(edge, other endpoint)`` out-pairs and in-pairs,
    each in insertion order, read straight off ``kg.edge_columns()``."""
    names = kg.predicates()
    out: List[List[Tuple[Edge, int]]] = [[] for _ in range(kg.num_entities)]
    into: List[List[Tuple[Edge, int]]] = [[] for _ in range(kg.num_entities)]
    source, target, predicate = (column.tolist() for column in kg.edge_columns())
    for s, t, p in zip(source, target, predicate):
        edge = Edge(source=s, predicate=names[p], target=t)
        out[s].append((edge, t))
        into[t].append((edge, s))
    return out, into


def slot_oracle(kg: KnowledgeGraph) -> List[List[Tuple[Edge, int]]]:
    """Each node's slots by the insertion-order rule: out, then in."""
    out, into = column_incidence(kg)
    return [o + i for o, i in zip(out, into)]


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

    out, _into = column_incidence(kg)
    edges: List[Edge] = []
    edge_id: Dict[Edge, int] = {}
    for uid in range(num_nodes):
        for edge, _target in out[uid]:
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
    for uid, incidence in enumerate(slot_oracle(kg)):
        triples = []
        for edge, neighbor in incidence:
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
    assert compact.entity_records() == list(kg.entities())
    # Every edge the columns rebuild equals the graph's own record.
    edges = [compact.edge(eid) for eid in range(compact.num_edges)]
    assert edges == expected["edges"]
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
        counts = (kg.num_entities, kg.num_edges)
        offset = kg.num_entities
        for entity in growth.entities():
            kg.add_entity(entity.name, entity.etype)
        names = growth.predicates()
        for source, target, pid in zip(*(c.tolist() for c in growth.edge_columns())):
            kg.add_edge(offset + source, names[pid], offset + target)
        if offset:
            # Link the old and the new part, both ways.
            for uid in range(growth.num_entities):
                kg.add_edge(uid % offset, "knows", offset + uid)
                kg.add_edge(offset + uid, "located_in", (uid + 1) % offset)
        assert_freeze_matches_reference(kg)
        # The earlier snapshot is untouched by the growth.
        assert (before.num_nodes, before.num_edges) == counts
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


@st.composite
def multigraph_calls(draw) -> Tuple[int, List[Tuple[int, str, int]]]:
    """A node count and ``add_edge`` calls over few nodes and predicates:
    parallel edges under several predicates, both directions, and
    repeats the graph refuses, in any order."""
    num_nodes = draw(st.integers(min_value=2, max_value=6))
    node = st.integers(0, num_nodes - 1)
    calls = draw(
        st.lists(
            st.tuples(node, _PREDICATES, node).filter(lambda t: t[0] != t[2]),
            max_size=50,
        )
    )
    repeats = draw(st.lists(st.sampled_from(calls), max_size=10)) if calls else []
    return num_nodes, draw(st.permutations(calls + repeats))


class TestMultigraphs:
    @settings(max_examples=150, deadline=None)
    @given(multigraph_calls())
    def test_has_edge_and_slots_agree_with_the_inserted_triples(self, drawn):
        num_nodes, calls = drawn
        kg = KnowledgeGraph("multi")
        for uid in range(num_nodes):
            kg.add_entity(f"n{uid}", "Thing")
        inserted = set()
        accepted = []
        for call in calls:
            assert kg.add_edge(*call) is (call not in inserted)
            if call not in inserted:
                inserted.add(call)
                accepted.append(call)
        assert_columns_hold(kg, accepted)
        uids = range(-1, num_nodes + 1)  # out-of-range ids included
        for source in uids:
            for predicate in ("born_in", "works_for", "located_in", "knows", "absent"):
                for target in uids:
                    assert kg.has_edge(source, predicate, target) == (
                        (source, predicate, target) in inserted
                    )
        compact = CompactGraph.freeze(kg)
        for uid, want in enumerate(slot_oracle(kg)):
            assert [(e, n) for e, n, _pid in compact.node_slots[uid]] == want


# ----------------------------------------------------------------------
# the graph's edge columns
# ----------------------------------------------------------------------
def assert_columns_hold(kg: KnowledgeGraph, accepted=None) -> None:
    """The three columns hold one entry per stored edge, predicate ids
    in first-use order, and no triple twice; ``has_edge`` answers every
    one of them.  With ``accepted``, the columns are exactly those
    ``(source, predicate, target)`` calls, in call order."""
    source, target, predicate = kg.edge_columns()
    assert (source.dtype, target.dtype, predicate.dtype) == (
        np.int64, np.int64, np.int32,
    )
    assert len(source) == len(target) == len(predicate) == kg.num_edges
    names = kg.predicates()
    assert sorted(set(predicate.tolist())) == list(range(len(names)))
    # First use: predicate id i first appears before id i + 1.
    firsts = [predicate.tolist().index(pid) for pid in range(len(names))]
    assert firsts == sorted(firsts)
    triples = [
        (s, names[p], t)
        for s, t, p in zip(source.tolist(), target.tolist(), predicate.tolist())
    ]
    assert len(set(triples)) == len(triples)
    assert all(kg.has_edge(*triple) for triple in triples)
    if accepted is not None:
        assert triples == list(accepted)


_CALLS = st.one_of(
    st.tuples(st.just("entity"), _NAMES, _TYPES),
    st.tuples(
        st.just("edge"),
        st.integers(-1, 9),
        st.sampled_from(["born_in", "works_for", "knows", ""]),
        st.integers(-1, 9),
    ),
)


class TestEdgeColumns:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(_CALLS, max_size=60))
    def test_any_call_sequence(self, calls):
        kg = KnowledgeGraph("calls")
        accepted: List[Tuple[int, str, int]] = []
        for call in calls:
            if call[0] == "entity":
                kg.add_entity(call[1], call[2])
                continue
            _, source, predicate, target = call
            before = kg.edge_columns()
            try:
                added = kg.add_edge(source, predicate, target)
            except GraphError:  # empty predicate, self-loop, unknown uid
                added = False
            if added:
                accepted.append((source, predicate, target))
                continue
            # Refused or a duplicate: nothing appended.
            for column, was in zip(kg.edge_columns(), before):
                assert np.array_equal(column, was)
        assert kg.num_edges == len(accepted)
        assert_columns_hold(kg, accepted)

    def test_each_refusal_appends_nothing(self):
        kg = KnowledgeGraph("refusals")
        for name in ("a", "b"):
            kg.add_entity(name, "Thing")
        assert kg.add_edge(0, "p", 1) is True
        assert kg.add_edge(0, "p", 1) is False  # duplicate
        with pytest.raises(GraphError):
            kg.add_edge(0, "p", 0)  # self-loop
        with pytest.raises(UnknownEntityError):
            kg.add_edge(0, "p", 7)
        with pytest.raises(GraphError):
            kg.add_edge(0, "", 1)
        assert kg.predicates() == ["p"]
        assert [column.tolist() for column in kg.edge_columns()] == [[0], [1], [0]]
        assert_columns_hold(kg, [(0, "p", 1)])

    def test_freeze_grow_refreeze(self):
        kg = KnowledgeGraph("grow")
        for name in ("a", "b", "c"):
            kg.add_entity(name, "Thing")
        kg.add_edge(2, "p", 0)
        kg.add_edge(1, "q", 0)
        kg.add_edge(0, "p", 1)
        first = CompactGraph.freeze(kg)
        first_edges = reference_freeze(kg)["edges"]
        snapshot = {name: getattr(first, name).copy() for name in SHARED_COLUMNS}
        held = kg.edge_columns()  # a reader's copies must not pin the columns
        # The graph keeps accepting edges, before and after a new node,
        # including out-edges of nodes that sort before the old ones.
        assert kg.add_edge(0, "q", 2) is True
        kg.add_entity("d", "Other")
        assert kg.add_edge(3, "r", 0) is True
        assert kg.add_edge(0, "r", 3) is True
        assert len(held[0]) == 3
        second = assert_freeze_matches_reference(kg)
        assert second.num_edges == 6 and first.num_edges == 3
        for name, column in snapshot.items():
            assert np.array_equal(getattr(first, name), column), name
        # The first snapshot's edges, first read after the growth, are
        # still exactly the ones it froze.
        assert [first.edge(eid) for eid in range(first.num_edges)] == first_edges
        assert_columns_hold(kg, [
            (2, "p", 0), (1, "q", 0), (0, "p", 1), (0, "q", 2), (3, "r", 0),
            (0, "r", 3),
        ])

    @pytest.mark.parametrize(
        "roundtrip",
        [lambda kg: pickle.loads(pickle.dumps(kg)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_roundtrip_freezes_identically(self, roundtrip):
        kg = load_bundle("dbpedia", scale=1.0, seed=11).kg
        twin = roundtrip(kg)
        want = CompactGraph.freeze(kg)
        got = assert_freeze_matches_reference(twin)
        for name in SHARED_COLUMNS:
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        # The copy's columns are its own: it grows, the original does not.
        uid = twin.add_entity("Fresh", "Thing").uid
        assert twin.add_edge(uid, "knows", 0) is True
        assert twin.num_edges == kg.num_edges + 1
        assert len(kg.edge_columns()[0]) == kg.num_edges
        assert_columns_hold(twin)
        assert twin.has_edge(uid, "knows", 0) and not kg.has_edge(uid, "knows", 0)

    def test_uids_past_sixteen_bits(self):
        # The freeze sorts node ids by 16-bit digits; pair uids that share
        # their low digit so only the high one orders them.
        kg = KnowledgeGraph("wide")
        for uid in range(70_000):
            kg.add_entity(f"n{uid}", "Thing")
        for source, target in [
            (65_541, 5), (5, 65_541), (65_541, 3), (3, 5), (69_999, 4_463),
            (4_463, 65_541), (5, 69_999), (1, 65_537), (65_537, 1),
        ]:
            kg.add_edge(source, "p", target)
        assert_freeze_matches_reference(kg)

"""Unit tests for the knowledge-graph builder and its read contract."""

import gc
import tracemalloc

import pytest

from repro.errors import GraphError, UnknownEntityError
from repro.kg.compact import CompactGraph, FrozenGraphReader
from repro.kg.graph import Edge, KnowledgeGraph


@pytest.fixture()
def kg():
    graph = KnowledgeGraph("t")
    graph.add_entity("Audi_TT", "Automobile")
    graph.add_entity("Germany", "Country")
    graph.add_entity("Volkswagen", "Company")
    graph.add_edge(0, "assembly", 1)
    graph.add_edge(2, "location", 1)
    return graph


class TestConstruction:
    def test_add_entity_assigns_sequential_uids(self, kg):
        entity = kg.add_entity("BMW_320", "Automobile")
        assert entity.uid == 3

    def test_rejects_empty_labels(self, kg):
        with pytest.raises(GraphError):
            kg.add_entity("", "Automobile")
        with pytest.raises(GraphError):
            kg.add_entity("X", "")

    def test_add_edge_returns_whether_it_added(self, kg):
        assert kg.add_edge(0, "assembly", 1) is False  # a duplicate
        assert kg.num_edges == 2
        assert kg.add_edge(1, "assembly", 0) is True  # the other direction
        assert kg.num_edges == 3

    def test_rejects_self_loop(self, kg):
        with pytest.raises(GraphError):
            kg.add_edge(0, "successor", 0)

    def test_rejects_unknown_endpoint(self, kg):
        with pytest.raises(UnknownEntityError):
            kg.add_edge(0, "assembly", 99)

    def test_rejects_empty_predicate(self, kg):
        with pytest.raises(GraphError):
            kg.add_edge(0, "", 1)


class TestLookups:
    def test_entity_by_uid(self, kg):
        assert kg.entity(0).name == "Audi_TT"
        with pytest.raises(UnknownEntityError):
            kg.entity(99)

    def test_entities_of_type(self, kg):
        assert kg.entities_of_type("Automobile") == [0]
        assert kg.entities_of_type("Nothing") == []

    def test_entities_named_returns_all(self, kg):
        kg.add_entity("Germany", "Book")
        assert len(kg.entities_named("Germany")) == 2

    def test_has_edge_is_directed(self, kg):
        assert kg.has_edge(0, "assembly", 1)
        assert not kg.has_edge(1, "assembly", 0)


class TestTraversal:
    """The insertion-order rule, read off a frozen store: a node's
    slots are its out-edges, then its in-edges, each in insertion order."""

    def test_slots_are_undirected(self, kg):
        slots = CompactGraph.freeze(kg).node_slots[1]
        assert {other for _e, other, _pid in slots} == {0, 2}

    def test_slots_are_out_edges_then_in_edges(self, kg):
        kg.add_edge(1, "capital", 2)
        slots = CompactGraph.freeze(kg).node_slots[1]
        assert [(e.predicate, other) for e, other, _pid in slots] == [
            ("capital", 2), ("assembly", 0), ("location", 2),
        ]

    def test_out_and_in_slots(self, kg):
        store = CompactGraph.freeze(kg)
        assert [e.predicate for e, _o, _p in store.node_slots[0] if e.source == 0] == [
            "assembly"
        ]
        assert [
            (e.predicate, other) for e, other, _p in store.node_slots[1] if e.target == 1
        ] == [("assembly", 0), ("location", 2)]

    def test_edge_other_endpoint(self):
        edge = Edge(source=3, predicate="p", target=7)
        assert edge.other(3) == 7
        assert edge.other(7) == 3
        with pytest.raises(GraphError):
            edge.other(5)


class TestPerEdgeCost:
    """What an accepted edge costs the builder: its three column entries
    and one packed key — no per-edge object the collector walks."""

    EDGES = 20_000
    #: Bytes an edge may add under tracemalloc.  About 150 on CPython
    #: 3.11 at this size (12 in the columns, a 36-byte int key, its set
    #: slot), ~170 at worst just after the key set resizes; an ``Edge``
    #: and two incidence tuples per edge would cost over 340.
    BYTES_PER_EDGE = 256

    def test_an_edge_adds_few_bytes_and_no_tracked_object(self):
        kg = KnowledgeGraph("cost")
        for uid in range(300):
            kg.add_entity(f"n{uid}", "Thing")
        calls = [
            (source, ("p", "q", "r")[(source + target) % 3], target)
            for source in range(300)
            for target in range(300)
            if source != target
        ][: self.EDGES]
        gc.collect()
        objects = len(gc.get_objects())
        tracemalloc.start()
        try:
            for call in calls:
                kg.add_edge(*call)
            traced, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kg.num_edges == self.EDGES
        assert traced / self.EDGES < self.BYTES_PER_EDGE
        assert len(gc.get_objects()) - objects < self.EDGES


class TestAggregates:
    def test_predicates_in_first_use_order(self, kg):
        assert kg.predicates() == ["assembly", "location"]


# That every frozen reader answers the seven members and every
# decomposition like its source graph is checked by each cell of
# tests/test_conformance.py that builds its engine in this process.
def test_the_frozen_reader_has_no_edge_surface():
    for name in ("incident", "has_edge", "out_edges", "statistics", "triples"):
        assert not hasattr(FrozenGraphReader, name)

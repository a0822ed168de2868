"""Unit tests for the knowledge-graph builder and its read contract."""

import gc
import tracemalloc
from contextlib import ExitStack

import pytest

from repro.errors import GraphError, UnknownEntityError
from repro.kg.compact import CompactGraph, FrozenGraphReader
from repro.kg.graph import Edge, KnowledgeGraph
from repro.kg.sharded import ShardedGraph
from repro.kg.shm import leaked_segments
from repro.query.decompose import decompose_query
from repro.query.transform import NodeMatcher


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


class TestGraphReaderConformance:
    """Every ``GraphReader`` — the object graph, and the one frozen reader
    over each store form — answers the seven members alike, so node
    matching and pivot choice cannot tell them apart."""

    FORMS = [
        "kg", "frozen", "frozen-shm", "sharded2", "sharded4",
        "sharded2-balanced", "sharded4-balanced",
    ]

    @pytest.fixture(scope="class", params=FORMS)
    def reader(self, request, small_bundle):
        kg, form = small_bundle.kg, request.param
        if form == "kg":
            yield kg
            return
        if form.startswith("frozen"):
            store = CompactGraph.freeze(kg)
        else:
            strategy = "balanced-degree" if form.endswith("-balanced") else "hash"
            store = ShardedGraph.build(
                kg, int(form[len("sharded")]), strategy=strategy
            )
        with ExitStack() as stack:
            if form.endswith("-shm"):
                lease = stack.enter_context(store.to_shared())
                store = CompactGraph.from_handle(lease.handle)
            yield FrozenGraphReader(store)
        assert leaked_segments() == []

    def test_seven_members_equal_the_source_graph(self, small_bundle, reader):
        kg = small_bundle.kg
        assert reader.name == kg.name
        assert reader.num_entities == kg.num_entities
        assert reader.num_edges == kg.num_edges
        assert list(reader.entities()) == list(kg.entities())
        for uid in (0, kg.num_entities - 1):
            assert reader.entity(uid) == kg.entity(uid)
        for uid in (-1, kg.num_entities):
            with pytest.raises(UnknownEntityError):
                reader.entity(uid)
        assert reader.types() == kg.types()
        for etype in kg.types() + ["NoSuchType"]:
            assert reader.entities_of_type(etype) == kg.entities_of_type(etype)

    def test_decomposes_like_the_source_graph(self, small_bundle, reader):
        kg, library = small_bundle.kg, small_bundle.library
        source, ours = NodeMatcher(kg, library), NodeMatcher(reader, library)
        for item in small_bundle.workload:
            assert decompose_query(
                item.query, kg=reader, matcher=ours
            ) == decompose_query(item.query, kg=kg, matcher=source), item.qid

    def test_the_frozen_reader_has_no_edge_surface(self):
        for name in ("incident", "has_edge", "out_edges", "statistics", "triples"):
            assert not hasattr(FrozenGraphReader, name)

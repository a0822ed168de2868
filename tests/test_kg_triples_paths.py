"""Tests for id triples and path utilities."""

import dataclasses
import hashlib
import json

import pytest

from repro.bench.datasets import load_bundle
from repro.errors import GraphError
from repro.kg.compact import CompactGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.paths import Path, PathStep, enumerate_paths, follow_pattern
from repro.kg.triples import Triple, graph_to_id_triples


@pytest.fixture()
def kg():
    graph = KnowledgeGraph()
    a = graph.add_entity("A", "T1")
    b = graph.add_entity("B", "T2")
    c = graph.add_entity("C", "T3")
    graph.add_entity("Island", "T4")  # isolated
    graph.add_edge(a.uid, "p", b.uid)
    graph.add_edge(b.uid, "q", c.uid)
    graph.add_edge(a.uid, "r", c.uid)
    return graph


@pytest.fixture()
def store(kg):
    return CompactGraph.freeze(kg)


class TestIdTriples:
    def test_graph_to_id_triples(self, kg):
        triples, vocab = graph_to_id_triples(kg)
        assert len(triples) == 3
        assert vocab == ["p", "q", "r"]
        assert all(0 <= t.relation < len(vocab) for t in triples)

    def test_ids_are_graph_uids(self, kg):
        triples, vocab = graph_to_id_triples(kg)
        named = [(t.head, vocab[t.relation], t.tail) for t in triples]
        # Source-major, each source's edges in insertion order.
        assert named == [(0, "p", 1), (0, "r", 2), (1, "q", 2)]

    @pytest.mark.parametrize(
        "preset, edges, digest",
        [
            ("dbpedia", 2920,
             "fb61387b4972b2bdf59e5364ce3b1500992e9952aa9a95bc98c9dd9a18d79d83"),
            ("yago2", 2342,
             "d9b54369d27148fc0bc12309836a143141e06cdaddaa6cadebb7277ad6669949"),
        ],
    )
    def test_a_generated_bundle_gives_the_recorded_triples(self, preset, edges, digest):
        # The list TransE trains on, pinned: the same triples in the same
        # order keep training bit-identical.
        triples, vocab = graph_to_id_triples(load_bundle(preset, scale=1.0, seed=11).kg)
        blob = json.dumps([[t.head, t.relation, t.tail] for t in triples] + [vocab])
        assert len(triples) == edges
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    def test_order_is_source_major(self, kg):
        triples, _vocab = graph_to_id_triples(kg)
        heads = [t.head for t in triples]
        assert heads == sorted(heads)

    def test_vocabulary_is_the_graph_predicate_order(self, kg):
        _triples, vocab = graph_to_id_triples(kg)
        assert vocab == kg.predicates()

    def test_edgeless_graph_gives_nothing(self):
        graph = KnowledgeGraph()
        graph.add_entity("Lonely", "T")
        assert graph_to_id_triples(graph) == ([], [])

    def test_triple_is_a_frozen_value(self):
        triple = Triple(1, 0, 2)
        assert triple == Triple(1, 0, 2)
        assert len({triple, Triple(1, 0, 2), Triple(2, 0, 1)}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            triple.head = 3


class TestPath:
    def test_single_node_path(self):
        path = Path.single_node(5)
        assert path.nodes() == [5]
        assert path.hops == 0
        assert path.end == 5

    def test_extend_and_nodes(self, store):
        edge = store.edge(0)  # A -p-> B
        path = Path.single_node(0).extend(PathStep(edge=edge, forward=True))
        assert path.nodes() == [0, 1]
        assert [step.predicate for step in path.steps] == ["p"]

    def test_backward_step(self, store):
        edge = store.edge(0)
        path = Path.single_node(1).extend(PathStep(edge=edge, forward=False))
        assert path.nodes() == [1, 0]

    def test_describe(self, kg, store):
        e1 = store.edge(0)
        path = Path.single_node(0).extend(PathStep(e1, True))
        assert path.describe(kg) == "A -p-> B"


class TestEnumeratePaths:
    def test_enumerates_all_simple_paths(self, store):
        paths = list(enumerate_paths(store, 0, max_hops=2))
        rendered = {tuple(p.nodes()) for p in paths}
        # From A: A-B, A-B-C, A-C, A-C-B (undirected traversal).
        assert (0, 1) in rendered
        assert (0, 1, 2) in rendered
        assert (0, 2) in rendered
        assert (0, 2, 1) in rendered

    def test_simple_only_never_revisits_a_node(self, store):
        simple = list(enumerate_paths(store, 0, max_hops=3))
        walks = list(enumerate_paths(store, 0, max_hops=3, simple_only=False))
        assert all(len(set(p.nodes())) == len(p.nodes()) for p in simple)
        assert any(len(set(p.nodes())) < len(p.nodes()) for p in walks)
        assert set(simple) < set(walks)

    def test_respects_hop_bound(self, store):
        assert all(p.hops <= 1 for p in enumerate_paths(store, 0, max_hops=1))

    def test_zero_bound_yields_nothing(self, store):
        assert list(enumerate_paths(store, 0, max_hops=0)) == []


class TestFollowPattern:
    def test_forward_step(self, store):
        assert follow_pattern(store, 0, [("p", "+")]) == {1}

    def test_backward_step(self, store):
        assert follow_pattern(store, 1, [("p", "-")]) == {0}

    def test_two_hop_pattern(self, store):
        assert follow_pattern(store, 0, [("p", "+"), ("q", "+")]) == {2}

    def test_dead_end_is_empty(self, store):
        assert follow_pattern(store, 0, [("nope", "+")]) == set()

    def test_invalid_direction_raises(self, store):
        with pytest.raises(GraphError):
            follow_pattern(store, 0, [("p", "?")])

"""Tests for id triples and path utilities."""

import dataclasses

import pytest

from repro.errors import GraphError
from repro.kg.graph import KnowledgeGraph
from repro.kg.paths import (
    Path,
    PathStep,
    enumerate_paths,
    follow_pattern,
    reverse_pattern,
)
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


class TestIdTriples:
    def test_graph_to_id_triples(self, kg):
        triples, vocab = graph_to_id_triples(kg)
        assert len(triples) == 3
        assert vocab == ["p", "q", "r"]
        assert all(0 <= t.relation < len(vocab) for t in triples)

    def test_ids_are_graph_uids(self, kg):
        triples, vocab = graph_to_id_triples(kg)
        named = {
            (kg.entity(t.head).name, vocab[t.relation], kg.entity(t.tail).name)
            for t in triples
        }
        assert named == set(kg.triples())

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

    def test_extend_and_nodes(self, kg):
        edge = kg.out_edges(0)[0]  # A -p-> B
        path = Path.single_node(0).extend(PathStep(edge=edge, forward=True))
        assert path.nodes() == [0, 1]
        assert path.predicates() == ["p"]

    def test_backward_step(self, kg):
        edge = kg.out_edges(0)[0]
        path = Path.single_node(1).extend(PathStep(edge=edge, forward=False))
        assert path.nodes() == [1, 0]

    def test_concat_validates_junction(self, kg):
        e1 = kg.out_edges(0)[0]  # A-B
        e2 = kg.out_edges(1)[0]  # B-C
        first = Path.single_node(0).extend(PathStep(e1, True))
        second = Path.single_node(1).extend(PathStep(e2, True))
        joined = first.concat(second)
        assert joined.nodes() == [0, 1, 2]
        with pytest.raises(GraphError):
            second.concat(first)

    def test_is_simple(self, kg):
        e1 = kg.out_edges(0)[0]
        back_and_forth = (
            Path.single_node(0)
            .extend(PathStep(e1, True))
            .extend(PathStep(e1, False))
        )
        assert not back_and_forth.is_simple()

    def test_describe(self, kg):
        e1 = kg.out_edges(0)[0]
        path = Path.single_node(0).extend(PathStep(e1, True))
        assert path.describe(kg) == "A -p-> B"


class TestEnumeratePaths:
    def test_enumerates_all_simple_paths(self, kg):
        paths = list(enumerate_paths(kg, 0, max_hops=2))
        rendered = {tuple(p.nodes()) for p in paths}
        # From A: A-B, A-B-C, A-C, A-C-B (undirected traversal).
        assert (0, 1) in rendered
        assert (0, 1, 2) in rendered
        assert (0, 2) in rendered
        assert (0, 2, 1) in rendered

    def test_respects_hop_bound(self, kg):
        assert all(p.hops <= 1 for p in enumerate_paths(kg, 0, max_hops=1))

    def test_zero_bound_yields_nothing(self, kg):
        assert list(enumerate_paths(kg, 0, max_hops=0)) == []


class TestFollowPattern:
    def test_forward_step(self, kg):
        assert follow_pattern(kg, 0, [("p", "+")]) == {1}

    def test_backward_step(self, kg):
        assert follow_pattern(kg, 1, [("p", "-")]) == {0}

    def test_two_hop_pattern(self, kg):
        assert follow_pattern(kg, 0, [("p", "+"), ("q", "+")]) == {2}

    def test_dead_end_is_empty(self, kg):
        assert follow_pattern(kg, 0, [("nope", "+")]) == set()

    def test_invalid_direction_raises(self, kg):
        with pytest.raises(GraphError):
            follow_pattern(kg, 0, [("p", "?")])

    def test_reverse_pattern_inverts_walk(self, kg):
        pattern = [("p", "+"), ("q", "+")]
        assert 2 in follow_pattern(kg, 0, pattern)
        assert 0 in follow_pattern(kg, 2, reverse_pattern(pattern))

    def test_reverse_is_involution(self):
        pattern = [("a", "+"), ("b", "-")]
        assert reverse_pattern(reverse_pattern(pattern)) == pattern

"""Tests for the query layer: model, builder, transform, decompose, noise."""

import pytest

from repro.embedding.oracle import oracle_predicate_space
from repro.errors import DecompositionError, QueryError
from repro.kg.compact import CompactGraph
from repro.kg.generator import build_dataset
from repro.kg.schema import dbpedia_like_schema
from repro.query.builder import QueryGraphBuilder
from repro.query.decompose import CostModel, _cover_cost, decompose_query
from repro.query.model import QueryEdge, QueryGraph, QueryNode, SubQueryGraph, SubQueryStep
from repro.query.noise import add_edge_noise, add_node_noise, apply_noise_to_workload
from repro.query.transform import (
    MATCH_ABBREVIATION,
    MATCH_IDENTICAL,
    MATCH_SYNONYM,
    NodeMatcher,
    TransformationLibrary,
    normalize_label,
)


def simple_query(predicate="product"):
    return (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "Germany", "Country")
        .edge("e1", "v1", predicate, "v2")
        .build()
    )


def chain_query():
    return (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "China", "Country")
        .target("v3", "Engine")
        .specific("v4", "Germany", "Country")
        .edge("e1", "v1", "assembly", "v2")
        .edge("e2", "v1", "engine", "v3")
        .edge("e3", "v3", "manufacturer", "v4")
        .build()
    )


class TestQueryModel:
    def test_specific_vs_target(self):
        query = simple_query()
        assert query.node("v2").is_specific
        assert query.node("v1").is_target
        assert [n.label for n in query.specific_nodes()] == ["v2"]

    def test_validation_rejects_duplicates(self):
        with pytest.raises(QueryError):
            QueryGraph(
                [QueryNode("v1"), QueryNode("v1")],
                [],
            )

    def test_validation_requires_target(self):
        with pytest.raises(QueryError):
            QueryGraph([QueryNode("v1", name="Germany")], [])

    def test_validation_requires_connectivity(self):
        with pytest.raises(QueryError):
            QueryGraph(
                [QueryNode("v1"), QueryNode("v2", name="X"), QueryNode("v3", name="Y")],
                [QueryEdge("e1", "v1", "p", "v2")],
            )

    def test_edge_endpoints_must_exist(self):
        with pytest.raises(QueryError):
            QueryGraph(
                [QueryNode("v1"), QueryNode("v2", name="X")],
                [QueryEdge("e1", "v1", "p", "v9")],
            )

    def test_self_loop_rejected(self):
        with pytest.raises(QueryError):
            QueryGraph([QueryNode("v1")], [QueryEdge("e1", "v1", "p", "v1")])

    def test_replace_node_keeps_rest(self):
        query = simple_query()
        replaced = query.replace_node(QueryNode("v2", "Country", "GER"))
        assert replaced.node("v2").name == "GER"
        assert replaced.node("v1").etype == "Automobile"

    def test_replace_edge(self):
        query = simple_query()
        replaced = query.replace_edge(QueryEdge("e1", "v1", "assembly", "v2"))
        assert [e.predicate for e in replaced.edges()] == ["assembly"]

    def test_replace_rejects_unknown_labels(self):
        query = simple_query()
        with pytest.raises(QueryError):
            query.replace_node(QueryNode("v9", "Country", "GER"))
        with pytest.raises(QueryError):
            query.replace_edge(QueryEdge("e9", "v1", "assembly", "v2"))

    def test_edges_at(self):
        query = chain_query()
        assert len(query.edges_at("v1")) == 2
        assert {e.label for e in query.edges_at("v3")} == {"e2", "e3"}

    def test_builder_auto_edge_labels(self):
        query = (
            QueryGraphBuilder()
            .target("v1", "A")
            .specific("v2", "X")
            .edge(None, "v1", "p", "v2")
            .build()
        )
        assert [(e.label, e.predicate) for e in query.edges()] == [("e1", "p")]


class TestSubQueryGraph:
    def test_walk_consistency_checked(self):
        query = chain_query()
        e1 = query.edges()[0]
        with pytest.raises(QueryError):
            SubQueryGraph(
                query=query,
                node_labels=("v2", "v3"),
                steps=(SubQueryStep(e1, True),),
            )

    def test_must_start_specific(self):
        query = chain_query()
        e1 = query.edges()[0]
        with pytest.raises(QueryError):
            SubQueryGraph(
                query=query,
                node_labels=("v1", "v2"),
                steps=(SubQueryStep(e1, True),),
            )

    def test_describe_and_predicates(self):
        query = chain_query()
        _e1, e2, e3 = query.edges()
        sub = SubQueryGraph(
            query=query,
            node_labels=("v4", "v3", "v1"),
            steps=(SubQueryStep(e3, False), SubQueryStep(e2, False)),
        )
        assert sub.predicates() == ["manufacturer", "engine"]
        assert sub.start.label == "v4"
        assert sub.node_labels[-1] == "v1"
        assert "v4" in sub.describe()


class TestTransformationLibrary:
    @pytest.fixture(scope="class")
    def library(self):
        return TransformationLibrary.from_schema(dbpedia_like_schema())

    def test_identical(self, library):
        assert library.match_type("Automobile", "Automobile") == MATCH_IDENTICAL
        assert library.match_name("Germany", "Germany") == MATCH_IDENTICAL

    def test_synonym(self, library):
        assert library.match_type("Car", "Automobile") == MATCH_SYNONYM
        assert library.match_type("Vehicle", "Automobile") == MATCH_SYNONYM

    def test_abbreviation(self, library):
        assert library.match_name("GER", "Germany") == MATCH_ABBREVIATION
        assert library.match_name("FRG", "Germany") == MATCH_ABBREVIATION

    def test_mismatch(self, library):
        assert library.match_type("Car", "Country") is None
        assert library.match_name("GER", "China") is None

    def test_case_and_separator_insensitive(self, library):
        assert library.match_name("federal republic of germany", "Germany")
        assert library.match_type("automobile", "Automobile") == MATCH_IDENTICAL

    def test_unknown_labels_match_identically(self, library):
        assert library.match_type("Spaceship", "Spaceship") == MATCH_IDENTICAL
        assert library.match_type("Spaceship", "Rocket") is None

    def test_variants(self, library):
        variants = library.name_variants("Germany")
        assert "ger" in variants and "frg" in variants

    def test_empty_library_identical_only(self):
        library = TransformationLibrary()
        assert library.match_type("Car", "Automobile") is None
        assert library.match_type("Car", "Car") == MATCH_IDENTICAL

    def test_bad_family_kind(self):
        from repro.kg.schema import SynonymFamily

        library = TransformationLibrary()
        with pytest.raises(QueryError):
            library.add_family(SynonymFamily("x", kind="verb"))

    def test_normalize_label(self):
        assert normalize_label("Audi_TT") == "audi tt"


class TestNodeMatcher:
    @pytest.fixture(scope="class")
    def setup(self):
        kg = build_dataset("dbpedia", seed=1, scale=0.5)
        library = TransformationLibrary.from_schema(dbpedia_like_schema())
        return kg, NodeMatcher(kg, library)

    def test_without_a_library_only_identical_labels_match(self, setup):
        kg, _matcher = setup
        plain = NodeMatcher(kg)
        assert plain.matches(QueryNode("v", "Country", "GER")) == []
        assert plain.matches(QueryNode("v", "Country", "Germany")) == kg.entities_named(
            "Germany"
        )

    def test_specific_by_name(self, setup):
        kg, matcher = setup
        node = QueryNode("v", "Country", "Germany")
        matches = matcher.matches(node)
        assert matches == kg.entities_named("Germany")

    def test_specific_via_abbreviation(self, setup):
        kg, matcher = setup
        node = QueryNode("v", "Country", "GER")
        assert matcher.matches(node) == kg.entities_named("Germany")

    def test_target_by_type_synonym(self, setup):
        kg, matcher = setup
        cars = matcher.matches(QueryNode("v", "Car"))
        autos = matcher.matches(QueryNode("v", "Automobile"))
        assert cars == autos and len(autos) > 0

    def test_untyped_target_matches_everything(self, setup):
        kg, matcher = setup
        assert len(matcher.matches(QueryNode("v"))) == kg.num_entities

    def test_type_filter_on_specific(self, setup):
        kg, matcher = setup
        node = QueryNode("v", "Automobile", "Germany")  # wrong type
        assert matcher.matches(node) == []

    def test_is_match_agrees_with_matches(self, setup):
        kg, matcher = setup
        node = QueryNode("v", "Country", "Germany")
        uid = matcher.matches(node)[0]
        assert matcher.is_match(node, uid)
        assert not matcher.is_match(node, (uid + 1) % kg.num_entities)

    def test_match_count_uses_cache(self, setup):
        _kg, matcher = setup
        node = QueryNode("v", "Automobile")
        assert matcher.match_count(node) == len(matcher.matches(node))


class TestDecomposition:
    @pytest.fixture(scope="class")
    def setup(self):
        kg = build_dataset("dbpedia", seed=1, scale=0.5)
        library = TransformationLibrary.from_schema(dbpedia_like_schema())
        return kg, NodeMatcher(kg, library)

    def test_simple_query_one_subquery(self, setup):
        kg, matcher = setup
        result = decompose_query(simple_query(), kg=kg, matcher=matcher)
        assert len(result.subqueries) == 1
        assert result.pivot_label == "v1"

    def test_chain_query_two_subqueries(self, setup):
        kg, matcher = setup
        result = decompose_query(chain_query(), kg=kg, matcher=matcher)
        assert result.pivot_label == "v1"
        assert len(result.subqueries) == 2
        covered = {
            step.edge.label for sub in result.subqueries for step in sub.steps
        }
        assert covered == {"e1", "e2", "e3"}

    def test_forced_pivot(self, setup):
        kg, matcher = setup
        result = decompose_query(chain_query(), kg=kg, matcher=matcher, pivot="v3")
        assert result.pivot_label == "v3"
        covered = {
            step.edge.label for sub in result.subqueries for step in sub.steps
        }
        assert covered == {"e1", "e2", "e3"}

    def test_pivot_must_be_target(self, setup):
        kg, matcher = setup
        with pytest.raises(DecompositionError):
            decompose_query(chain_query(), kg=kg, matcher=matcher, pivot="v2")

    def test_random_strategy_deterministic_by_seed(self, setup):
        kg, matcher = setup
        a = decompose_query(chain_query(), kg=kg, matcher=matcher, strategy="random", seed=3)
        b = decompose_query(chain_query(), kg=kg, matcher=matcher, strategy="random", seed=3)
        assert a.pivot_label == b.pivot_label

    def test_unknown_strategy(self, setup):
        kg, matcher = setup
        with pytest.raises(DecompositionError):
            decompose_query(chain_query(), kg=kg, matcher=matcher, strategy="best")

    def test_no_specific_node_rejected(self):
        query = QueryGraph(
            [QueryNode("v1", "A"), QueryNode("v2", "B")],
            [QueryEdge("e1", "v1", "p", "v2")],
        )
        with pytest.raises(DecompositionError):
            decompose_query(query)

    def test_triangle_query_covers_cycle(self, setup):
        kg, matcher = setup
        triangle = (
            QueryGraphBuilder()
            .target("v1", "Automobile")
            .target("v2", "Person")
            .specific("v3", "Germany", "Country")
            .edge("e1", "v1", "assembly", "v3")
            .edge("e2", "v2", "nationality", "v3")
            .edge("e3", "v1", "designer", "v2")
            .build()
        )
        result = decompose_query(triangle, kg=kg, matcher=matcher)
        covered = {
            step.edge.label for sub in result.subqueries for step in sub.steps
        }
        assert covered == {"e1", "e2", "e3"}
        for sub in result.subqueries:
            assert sub.node_labels[-1] == result.pivot_label

    def test_min_cost_prefers_cheaper_pivot(self, setup):
        kg, matcher = setup
        # For the chain query, pivot v1 needs walks of length 1 and 2;
        # pivot v3 needs walks of length 2 and 1 from v4/v2 — cost model
        # should pick the one minimising total search space; just check it
        # picked the globally cheapest among target candidates.
        chosen = decompose_query(chain_query(), kg=kg, matcher=matcher)
        forced = decompose_query(chain_query(), kg=kg, matcher=matcher, pivot="v3")
        assert chosen.cost <= forced.cost


class TestAverageDegreeWithoutTheScan:
    """``decompose_query`` reads d̄ as ``2|E| / |V|`` instead of an O(|V|)
    degree scan on every call.  (That every frozen reader decomposes alike
    is ``TestGraphReaderConformance``.)"""

    def test_decompositions_unchanged(self, small_bundle):
        kg = small_bundle.kg
        matcher = NodeMatcher(kg, small_bundle.library)
        degrees = [len(slots) for slots in CompactGraph.freeze(kg).node_slots]
        scanned = CostModel(
            average_degree=max(sum(degrees) / len(degrees), 2.0), path_bound=4
        )
        for item in small_bundle.workload:
            chosen = decompose_query(item.query, kg=kg, matcher=matcher)
            # The cost is the one the scanned average yields, bit for bit.
            cost, subqueries = _cover_cost(
                item.query, chosen.pivot_label, matcher, scanned
            )
            assert (chosen.cost, chosen.subqueries) == (cost, subqueries), item.qid


class TestNoise:
    @pytest.fixture(scope="class")
    def resources(self):
        schema = dbpedia_like_schema()
        return (
            TransformationLibrary.from_schema(schema),
            oracle_predicate_space(schema, seed=3),
        )

    def test_node_noise_changes_surface_form(self, resources):
        library, _space = resources
        noisy = add_node_noise(simple_query(), library, seed=1)
        original = simple_query()
        changed = any(
            noisy.node(n.label).name != n.name or noisy.node(n.label).etype != n.etype
            for n in original.nodes()
        )
        assert changed

    def test_node_noise_preserves_phi(self, resources):
        library, _space = resources
        noisy = add_node_noise(simple_query(), library, seed=1)
        node = noisy.node("v2")
        if node.name != "Germany":
            assert library.match_name(node.name, "Germany") is not None

    def test_edge_noise_swaps_to_similar(self, resources):
        _library, space = resources
        noisy = add_edge_noise(simple_query(), space, seed=1, top_n=5)
        (new_predicate,) = [e.predicate for e in noisy.edges()]
        assert new_predicate != "product"
        top5 = [name for name, _s in space.top_similar("product", 5)]
        assert new_predicate in top5

    def test_edge_noise_top_n_validated(self, resources):
        _library, space = resources
        with pytest.raises(QueryError):
            add_edge_noise(simple_query(), space, top_n=0)

    def test_workload_noise_ratio(self, resources):
        library, space = resources
        queries = [simple_query() for _ in range(10)]
        noisy = apply_noise_to_workload(
            queries, ratio=0.4, kind="edge", space=space, seed=5
        )
        changed = sum(
            1
            for original, new in zip(queries, noisy)
            if new.edges()[0].predicate != original.edges()[0].predicate
        )
        assert changed == 4

    def test_workload_noise_validation(self, resources):
        library, space = resources
        with pytest.raises(QueryError):
            apply_noise_to_workload([], ratio=2.0, kind="edge", space=space)
        with pytest.raises(QueryError):
            apply_noise_to_workload([], ratio=0.5, kind="edge")
        with pytest.raises(QueryError):
            apply_noise_to_workload([], ratio=0.5, kind="weird", space=space, library=library)

"""Tests for the A* semantic search (Algorithm 1, Theorems 1-2)."""

import pytest

from repro.core.astar import SubQuerySearch, brute_force_matches
from repro.core.config import SearchConfig, VisitedPolicy
from repro.core.semantic_graph import SemanticGraphView
from repro.embedding.oracle import oracle_predicate_space
from repro.errors import SearchError
from repro.kg.compact import CompactGraph
from repro.kg.generator import build_dataset
from repro.kg.schema import dbpedia_like_schema
from repro.query.builder import QueryGraphBuilder
from repro.query.decompose import decompose_query
from repro.query.transform import NodeMatcher, TransformationLibrary


def product_query():
    return (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "Germany", "Country")
        .edge("e1", "v1", "product", "v2")
        .build()
    )


def build_search(kg, space, query, matcher, config=None, pivot=None):
    config = config or SearchConfig(tau=0.5, path_bound=4)
    decomposition = decompose_query(query, kg=kg, matcher=matcher, pivot=pivot)
    view = SemanticGraphView(CompactGraph.freeze(kg), space)
    return SubQuerySearch(view, decomposition.subqueries[0], matcher, config)


class TestFig2Example:
    """Hand-checkable assertions on the Fig. 2 running example."""

    def test_best_match_is_audi_via_assembly(self, fig2_kg, fig2_space, fig2_matcher):
        search = build_search(fig2_kg, fig2_space, product_query(), fig2_matcher)
        best = search.next_match()
        assert best is not None
        assert fig2_kg.entity(best.pivot_uid).name == "Audi_TT"
        assert best.pss == pytest.approx(
            fig2_space.similarity("product", "assembly")
        )

    def test_matches_arrive_in_descending_pss(self, fig2_kg, fig2_space, fig2_matcher):
        search = build_search(fig2_kg, fig2_space, product_query(), fig2_matcher)
        matches = search.run(k=5)
        pss_values = [m.pss for m in matches]
        assert pss_values == sorted(pss_values, reverse=True)

    def test_second_match_is_kia_via_designer_chain(
        self, fig2_kg, fig2_space, fig2_matcher
    ):
        search = build_search(fig2_kg, fig2_space, product_query(), fig2_matcher)
        matches = search.run(k=3)
        names = [fig2_kg.entity(m.pivot_uid).name for m in matches]
        assert names[0] == "Audi_TT"
        assert "KIA_K5" in names  # via designer+nationality (0.85, 0.81)
        kia = next(m for m in matches if fig2_kg.entity(m.pivot_uid).name == "KIA_K5")
        expected = (
            fig2_space.similarity("product", "designer")
            * fig2_space.similarity("product", "nationality")
        ) ** 0.5
        assert kia.pss == pytest.approx(expected)

    def test_tau_prunes_low_pss_matches(self, fig2_kg, fig2_space, fig2_matcher):
        config = SearchConfig(tau=0.9, path_bound=4)
        search = build_search(
            fig2_kg, fig2_space, product_query(), fig2_matcher, config=config
        )
        matches = search.run(k=10)
        assert all(m.pss >= 0.9 for m in matches)
        assert len(matches) == 1  # only the assembly match survives

    def test_path_bound_limits_hops(self, fig2_kg, fig2_space, fig2_matcher):
        config = SearchConfig(tau=0.5, path_bound=1)
        search = build_search(
            fig2_kg, fig2_space, product_query(), fig2_matcher, config=config
        )
        matches = search.run(k=10)
        assert all(m.path.hops <= 1 for m in matches)

    def test_exhaustion_reported(self, fig2_kg, fig2_space, fig2_matcher):
        search = build_search(fig2_kg, fig2_space, product_query(), fig2_matcher)
        search.run(k=100)
        assert search.exhausted
        assert search.next_match() is None

    def test_stats_populated(self, fig2_kg, fig2_space, fig2_matcher):
        search = build_search(fig2_kg, fig2_space, product_query(), fig2_matcher)
        search.run(k=2)
        assert search.stats.expansions > 0
        assert search.stats.states_generated > 0
        assert search.stats.goals_emitted == 2

    def test_run_rejects_bad_k(self, fig2_kg, fig2_space, fig2_matcher):
        search = build_search(fig2_kg, fig2_space, product_query(), fig2_matcher)
        with pytest.raises(SearchError):
            search.run(k=0)


class TestOptimalityAgainstBruteForce:
    """Theorem 2 on generated graphs: A* (EXPAND policy) finds exactly the
    top matches the exhaustive oracle finds, in the same pss order."""

    @pytest.fixture(scope="class")
    def setup(self):
        kg = build_dataset("dbpedia", seed=9, scale=0.3)
        schema = dbpedia_like_schema()
        space = oracle_predicate_space(schema, seed=3)
        matcher = NodeMatcher(kg, TransformationLibrary.from_schema(schema))
        return kg, space, matcher

    @pytest.mark.parametrize("anchor", ["Germany", "China", "Korea"])
    def test_single_edge_subquery_matches_brute_force(self, setup, anchor):
        kg, space, matcher = setup
        query = (
            QueryGraphBuilder()
            .target("v1", "Automobile")
            .specific("v2", anchor, "Country")
            .edge("e1", "v1", "product", "v2")
            .build()
        )
        config = SearchConfig(
            tau=0.8, path_bound=3, visited_policy=VisitedPolicy.EXPAND
        )
        decomposition = decompose_query(query, kg=kg, matcher=matcher)
        view = SemanticGraphView(CompactGraph.freeze(kg), space)
        search = SubQuerySearch(view, decomposition.subqueries[0], matcher, config)
        astar = search.run(k=10**6)

        oracle = brute_force_matches(
            SemanticGraphView(CompactGraph.freeze(kg), space), decomposition.subqueries[0], matcher, config
        )
        astar_by_pivot = {m.pivot_uid: m.pss for m in astar}
        oracle_by_pivot = {m.pivot_uid: m.pss for m in oracle}
        assert set(astar_by_pivot) == set(oracle_by_pivot)
        for pivot, pss in oracle_by_pivot.items():
            assert astar_by_pivot[pivot] == pytest.approx(pss)

    def test_multi_edge_subquery_matches_brute_force(self, setup):
        kg, space, matcher = setup
        query = (
            QueryGraphBuilder()
            .target("v1", "Book")
            .target("v2", "Person")
            .specific("v3", "Germany", "Country")
            .edge("e1", "v1", "author", "v2")
            .edge("e2", "v2", "nationality", "v3")
            .build()
        )
        config = SearchConfig(
            tau=0.8, path_bound=2, visited_policy=VisitedPolicy.EXPAND
        )
        decomposition = decompose_query(query, kg=kg, matcher=matcher)
        view = SemanticGraphView(CompactGraph.freeze(kg), space)
        search = SubQuerySearch(view, decomposition.subqueries[0], matcher, config)
        astar = {m.pivot_uid: m.pss for m in search.run(k=10**6)}
        oracle = {
            m.pivot_uid: m.pss
            for m in brute_force_matches(
                SemanticGraphView(CompactGraph.freeze(kg), space),
                decomposition.subqueries[0],
                matcher,
                config,
            )
        }
        # The A* may additionally find non-simple paths the oracle skips,
        # so it must dominate the oracle per pivot and never rank below.
        for pivot, pss in oracle.items():
            assert pivot in astar
            assert astar[pivot] >= pss - 1e-9

    def test_generate_policy_is_subset_of_expand(self, setup):
        kg, space, matcher = setup
        query = (
            QueryGraphBuilder()
            .target("v1", "Automobile")
            .specific("v2", "Germany", "Country")
            .edge("e1", "v1", "product", "v2")
            .build()
        )
        results = {}
        for policy in VisitedPolicy:
            config = SearchConfig(tau=0.8, path_bound=3, visited_policy=policy)
            decomposition = decompose_query(query, kg=kg, matcher=matcher)
            search = SubQuerySearch(
                SemanticGraphView(CompactGraph.freeze(kg), space),
                decomposition.subqueries[0],
                matcher,
                config,
            )
            results[policy] = {m.pivot_uid for m in search.run(k=10**6)}
        assert results[VisitedPolicy.GENERATE] <= results[VisitedPolicy.EXPAND]

    def test_first_match_is_global_optimum(self, setup):
        kg, space, matcher = setup
        query = (
            QueryGraphBuilder()
            .target("v1", "Person")
            .specific("v2", "Korea", "Country")
            .edge("e1", "v1", "nationality", "v2")
            .build()
        )
        config = SearchConfig(
            tau=0.8, path_bound=3, visited_policy=VisitedPolicy.EXPAND
        )
        decomposition = decompose_query(query, kg=kg, matcher=matcher)
        search = SubQuerySearch(
            SemanticGraphView(CompactGraph.freeze(kg), space), decomposition.subqueries[0], matcher, config
        )
        best = search.next_match()
        oracle = brute_force_matches(
            SemanticGraphView(CompactGraph.freeze(kg), space), decomposition.subqueries[0], matcher, config
        )
        assert best is not None and oracle
        assert best.pss == pytest.approx(oracle[0].pss)

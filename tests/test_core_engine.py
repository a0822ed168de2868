"""Tests for the engine, TBQ (Algorithms 2-3) and config validation."""

import gc

import pytest

from repro.bench.metrics import jaccard
from repro.core.compact_view import CompactViewFactory
from repro.core.config import PssMode, SearchConfig, VisitedPolicy
from repro.core.engine import SemanticGraphQueryEngine
from repro.core.time_bounded import TimeBoundedCoordinator
from repro.embedding.oracle import oracle_predicate_space
from repro.errors import ConfigError, SearchError, TimeBudgetError
from repro.kg.compact import CompactGraph, FrozenGraphReader
from repro.kg.generator import build_dataset
from repro.kg.schema import dbpedia_like_schema
from repro.kg.sharded import ShardedGraph
from repro.query.builder import QueryGraphBuilder
from repro.query.transform import TransformationLibrary
from repro.scenarios import WorkloadBuilder, build_resources
from repro.utils.timing import BudgetClock


@pytest.fixture(scope="module")
def engine():
    schema = dbpedia_like_schema()
    kg = build_dataset("dbpedia", seed=4, scale=1.0)
    space = oracle_predicate_space(schema, seed=3)
    library = TransformationLibrary.from_schema(schema)
    return SemanticGraphQueryEngine(kg, space, library)


def product_query():
    return (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "Germany", "Country")
        .edge("e1", "v1", "product", "v2")
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


class TestSearchConfig:
    def test_paper_defaults(self):
        config = SearchConfig()
        assert config.tau == 0.8
        assert config.path_bound == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 1.5},
            {"tau": -0.1},
            {"path_bound": 0},
            {"min_weight": 2.0},
            {"min_weight": -0.1},
            {"assembly_seconds_per_match": -1},
            {"assembly_seconds_per_match": float("inf")},
            {"assembly_seconds_per_match": float("nan")},
            {"alert_ratio": 0.0},
            {"alert_ratio": 1.2},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SearchConfig(**kwargs)


class TestSGQEngine:
    def test_simple_query_returns_ranked_answers(self, engine):
        result = engine.search(product_query(), k=10)
        assert len(result.matches) <= 10
        scores = [m.score for m in result.matches]
        assert scores == sorted(scores, reverse=True)
        assert not result.approximate
        assert result.elapsed_seconds > 0

    @pytest.mark.parametrize(
        "freeze",
        [CompactGraph.freeze, lambda kg: ShardedGraph.build(kg, 2)],
        ids=["compact", "sharded"],
    )
    def test_a_frozen_reader_needs_its_view_factory(self, engine, fig2_kg, freeze):
        reader = FrozenGraphReader(freeze(fig2_kg))
        with pytest.raises(SearchError, match="through its view factory"):
            SemanticGraphQueryEngine(reader, engine.space, engine.library)

    def test_answers_are_automobiles(self, engine):
        result = engine.search(product_query(), k=10)
        for uid in result.answer_uids():
            assert engine.kg.entity(uid).etype == "Automobile"

    def test_chain_query_assembles_components(self, engine):
        result = engine.search(chain_query(), k=8)
        assert result.subquery_stats and len(result.subquery_stats) == 2
        assert result.ta_accesses > 0

    def test_k_validation(self, engine):
        with pytest.raises(SearchError):
            engine.search(product_query(), k=0)
        with pytest.raises(SearchError):
            engine.search_time_bounded(product_query(), k=0, time_bound=1.0)

    def test_forced_pivot_changes_decomposition(self, engine):
        default = engine.decompose(chain_query())
        forced = engine.decompose(chain_query(), pivot="v3")
        assert default.pivot_label != forced.pivot_label or default is not forced

    def test_exhaustive_assembly_same_topk(self, engine):
        fast = engine.search(product_query(), k=5)
        slow = engine.search(product_query(), k=5, exhaustive_assembly=True)
        assert fast.answer_uids() == slow.answer_uids()

    def test_total_stats_aggregates(self, engine):
        result = engine.search(chain_query(), k=5)
        total = result.total_stats()
        assert total.expansions == sum(
            s.expansions for s in result.subquery_stats
        )

    @pytest.mark.parametrize("compact", [False, True], ids=["lazy", "compact"])
    def test_total_stats_takes_the_view_counters_once(self, compact):
        """``edges_weighted`` / ``nodes_touched`` are the one view's, copied
        onto every sub-query's stats: a 3-sub-query total reports them
        once, not three times."""
        workload = (
            WorkloadBuilder("ledger", seed=7)
            .domain("dbpedia", scale=1.0, generator_seed=11)
            .intents(star=5, chain=5, noisy_predicate=5, entity_heavy=5, tau_stress=5)
            .top_k(5)
            .tau(0.8)
            .augment(
                paraphrase_fraction=0.25, node_noise_fraction=0.25,
                min_similarity=0.8,
            )
            .build()
        )
        resources = build_resources(workload)
        engine = SemanticGraphQueryEngine(
            resources.kg, resources.space, resources.library, resources.config,
            view_factory=(
                CompactViewFactory(CompactGraph.freeze(resources.kg))
                if compact
                else None
            ),
        )
        query = next(
            q.query for q in workload.queries
            if len(engine.decompose(q.query).subqueries) == 3
        )
        views = []
        make_view = engine._make_view

        def recording_make_view():
            views.append(make_view())
            return views[-1]

        engine._make_view = recording_make_view
        result = engine.search(query, k=5)
        (view,) = views
        assert len(result.subquery_stats) == 3
        total = result.total_stats()
        assert total.edges_weighted == view.edges_weighted > 0
        if compact:
            assert total.nodes_touched == 0
        else:
            assert total.nodes_touched == view.touched_nodes > 0

    def test_reused_decomposition(self, engine):
        decomposition = engine.decompose(product_query())
        result = engine.search(product_query(), k=3, decomposition=decomposition)
        assert result.matches

    def test_arithmetic_scoring_mode_runs(self):
        schema = dbpedia_like_schema()
        kg = build_dataset("dbpedia", seed=4, scale=0.5)
        engine = SemanticGraphQueryEngine(
            kg,
            oracle_predicate_space(schema, seed=3),
            TransformationLibrary.from_schema(schema),
            SearchConfig(scoring=PssMode.ARITHMETIC),
        )
        result = engine.search(product_query(), k=5)
        assert result.matches


class TestTBQ:
    def test_approximate_means_the_alert_fired(self, engine):
        starved = engine.search_time_bounded(
            product_query(), k=5, time_bound=0.01,
            clock=BudgetClock(seconds_per_tick=0.001),
        )
        assert starved.approximate
        assert starved.time_bound == 0.01
        certified = engine.search_time_bounded(
            product_query(), k=5, time_bound=30.0
        )
        assert not certified.approximate
        assert certified.time_bound == 30.0

    def test_generous_bound_is_the_sgq_answer(self, engine):
        """Theorem 4 endpoint: with enough time TBQ *is* SGQ."""
        exact = engine.search(product_query(), k=10)
        bounded = engine.search_time_bounded(product_query(), k=10, time_bound=30.0)
        assert bounded.answer_uids() == exact.answer_uids()
        assert bounded.expansions == exact.expansions

    def test_budget_clock_is_deterministic(self, engine):
        results = []
        for _run in range(2):
            clock = BudgetClock(seconds_per_tick=0.001)
            result = engine.search_time_bounded(
                product_query(), k=10, time_bound=0.05, clock=clock
            )
            results.append(result.answer_uids())
        assert results[0] == results[1]

    def test_tighter_budget_never_beats_looser(self, engine):
        """Theorem 4 monotonicity under the deterministic clock."""
        exact = set(engine.search(product_query(), k=10).answer_uids())
        overlaps = []
        for ticks in (0.02, 0.2, 5.0):
            clock = BudgetClock(seconds_per_tick=0.001)
            result = engine.search_time_bounded(
                product_query(), k=10, time_bound=ticks, clock=clock
            )
            overlaps.append(jaccard(set(result.answer_uids()), exact))
        assert overlaps == sorted(overlaps)
        assert overlaps[-1] == 1.0

    def test_time_bound_validation(self, engine):
        with pytest.raises(TimeBudgetError):
            engine.search_time_bounded(product_query(), k=3, time_bound=0.0)

    def test_coordinator_validation(self):
        with pytest.raises(TimeBudgetError):
            TimeBoundedCoordinator(0.0, SearchConfig())
        with pytest.raises(TimeBudgetError):
            TimeBoundedCoordinator(1.0, SearchConfig(), check_interval=0)
        with pytest.raises(TimeBudgetError):
            TimeBoundedCoordinator(1.0, SearchConfig()).run([], lambda: None)

    def test_wall_clock_respects_bound_roughly(self, engine):
        bound = 0.05
        # Collect first: a full collection over the heap earlier tests
        # left behind (generated graphs held by session fixtures) takes
        # ~0.1 s and, if its turn comes inside the window, is charged to
        # the query.  The search's own collections still run and count.
        gc.collect()
        result = engine.search_time_bounded(chain_query(), k=10, time_bound=bound)
        # Fig. 15(b): the response time stays within a small variation of
        # the bound; allow generous slack for CI jitter.
        assert result.elapsed_seconds < bound * 3


class TestVisitedPolicyAblation:
    def test_expand_recall_superset(self, engine):
        """EXPAND finds every answer GENERATE finds (and usually more)."""
        results = {}
        for policy in VisitedPolicy:
            config = SearchConfig(visited_policy=policy)
            eng = SemanticGraphQueryEngine(
                engine.kg, engine.space, None, config,
                view_factory=engine.view_factory,
            )
            eng.matcher = engine.matcher
            results[policy] = set(eng.search(product_query(), k=200).answer_uids())
        assert len(results[VisitedPolicy.EXPAND]) >= len(
            results[VisitedPolicy.GENERATE]
        )

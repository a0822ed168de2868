"""The hop label and the reach prune it feeds (goal-directed A*).

Four claims, each pinned here:

1. the compact view's vectorized frontier sweeps produce, byte for byte,
   the label the lazy view's breadth-first search defines, and the
   sharded view's shard-by-shard sweeps the compact view's;
2. under ``EXPAND`` the prune only *deletes* work — against a test-only
   view whose label can never fire, every sub-query's emission stream,
   harvest, TA round and access and final match is identical while
   ``expansions`` / ``states_generated`` only fall;
3. it is sound: run to exhaustion, both kernels still find what the
   exhaustive oracle finds;
4. under ``GENERATE`` nothing is pruned and every counter equals the
   value recorded from the commit before the label existed.

Kernel ``==`` oracle on ``pruned_by_reach`` itself rides on
``SEARCH_STAT_FIELDS`` in ``tests/test_search_kernel.py`` and
``tests/test_pull_exactness.py``.
"""

import pickle
import random

import pytest

from repro.bench.datasets import load_bundle
from repro.bench.equivalence import (
    SEARCH_STAT_FIELDS,
    final_matches_differ,
    path_matches_differ,
)
from repro.core.astar import brute_force_matches, build_subquery_search
from repro.core.compact_view import (
    CompactSemanticGraphView,
    CompactViewFactory,
    LazyViewFactory,
)
from repro.core.config import SearchConfig, VisitedPolicy
from repro.core.engine import SemanticGraphQueryEngine
from repro.core.results import QueryResultPayload, SearchStats
from repro.core.semantic_graph import SemanticGraphView
from repro.errors import ServeError
from repro.kg.compact import CompactGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.sharded import SHARD_STRATEGIES, ShardedGraph, ShardedViewFactory
from repro.query.builder import QueryGraphBuilder
from repro.serve.cache import SemanticGraphCache

PREDICATES = ("assembly", "country", "designer", "nationality", "engine", "product")
KERNELS = ("reference", "vectorized")


class NullLabelView(CompactSemanticGraphView):
    """The unpruned arm: one hop to φ from everywhere never exceeds a
    budget (a continuing arrival has at least one hop left)."""

    def hop_label(self, key, phi, bound):
        return bytes([1]) * self.graph.num_nodes


def null_label_factory(kg):
    graph = CompactGraph.freeze(kg)

    def build(kg, space, *, min_weight=0.0, cache=None):
        return NullLabelView(graph, space, min_weight=min_weight, cache=cache)

    return build


def _compact_engine(kg, *args, **kwargs):
    """An engine served through the frozen CSR kernel of ``kg``."""
    factory = CompactViewFactory(CompactGraph.freeze(kg))
    return SemanticGraphQueryEngine(kg, *args, view_factory=factory, **kwargs)


def random_graph(rng, num_nodes, num_edges, isolated=0):
    """A random multigraph whose last ``isolated`` nodes have no edge."""
    kg = KnowledgeGraph("random")
    for i in range(num_nodes):
        kg.add_entity(f"n{i}", "Automobile" if i % 3 else "Person")
    for _ in range(num_edges):
        source, target = rng.sample(range(num_nodes - isolated), 2)
        kg.add_edge(source, rng.choice(PREDICATES), target)
    return kg


def judged(stats):
    """Arrivals that reached the τ test (seeds never fail it here)."""
    return stats.pruned_by_tau + stats.pruned_by_visited + stats.states_generated


def both_views(kg, space):
    graph = CompactGraph.freeze(kg)
    return SemanticGraphView(graph, space), CompactViewFactory(graph)(kg, space)


class TestHopLabel:
    """Claim 1: CSR sweeps ``==`` plain-Python BFS, byte for byte."""

    @pytest.mark.parametrize("bound", [1, 2, 4])
    def test_sweeps_equal_bfs_on_random_graphs(self, fig2_space, bound):
        rng = random.Random(bound)
        for trial in range(12):
            num_nodes = rng.randint(4, 60)
            isolated = rng.randint(0, 3)
            kg = random_graph(
                rng, num_nodes, rng.randint(0, 3 * num_nodes), isolated=isolated
            )
            lazy, compact = both_views(kg, fig2_space)
            phi_sets = {
                "empty": [],
                "all": list(range(num_nodes)),
                "isolated": list(range(num_nodes - isolated, num_nodes)),
                "one": [rng.randrange(num_nodes)],
                "some": sorted(rng.sample(range(num_nodes), num_nodes // 3)),
            }
            for name, phi in phi_sets.items():
                key = (f"{trial}-{name}", None)
                expected = lazy.hop_label(key, phi, bound)
                assert compact.hop_label(key, phi, bound) == expected, key
                assert len(expected) == num_nodes
                assert set(expected) <= set(range(1, bound + 2)), key
                if not phi:
                    assert set(expected) == {bound + 1}
                for uid in range(num_nodes - isolated, num_nodes):
                    assert expected[uid] == bound + 1  # nowhere to walk

    def test_a_phi_member_walks_back_through_a_neighbour(self, fig2_space):
        """The label is the shortest walk of *at least one* hop: a φ-match
        reads the way back to the set, not 0 — a segment closes only by
        arriving at a φ-match."""
        kg = KnowledgeGraph("path")
        for name in "abcd":
            kg.add_entity(name, "Automobile")
        kg.add_edge(0, "product", 1)  # a - b - c,  d isolated
        kg.add_edge(1, "product", 2)
        for view in both_views(kg, fig2_space):
            assert view.hop_label(("a", None), [0], 4) == bytes([2, 1, 2, 5])
            assert view.hop_label(("a", None), [0], 1) == bytes([2, 1, 2, 2])
            assert view.hop_label(("ab", None), [0, 1], 4) == bytes([1, 1, 1, 5])
            assert view.hop_label(("d", None), [3], 4) == bytes([5, 5, 5, 5])

    def test_label_is_shared_across_views_through_the_row_cache(self, fig2_space):
        # Two per-query views over one kernel, as consecutive queries of
        # one engine build them, share the label through the cache.
        kg = random_graph(random.Random(9), 30, 60)
        cache = SemanticGraphCache()
        factory = CompactViewFactory(CompactGraph.freeze(kg))
        first, second = (factory(kg, fig2_space, cache=cache) for _ in range(2))
        label = first.hop_label(("Germany", "Country"), [3, 7], 4)
        assert cache.get_row("hop_label", ("Germany", "Country", 4)) is label
        hits = second.cache_hits
        assert second.hop_label(("Germany", "Country"), [3, 7], 4) is label
        assert second.cache_hits == hits + 1
        # Memoised per view: the cache is asked once.
        row_hits = cache.stats.hits
        assert second.hop_label(("Germany", "Country"), [3, 7], 4) is label
        assert cache.stats.hits == row_hits
        # The lazy oracle over the same store cannot bind the compact
        # views' cache (it would read their label back); on its own
        # cache it computes the same bytes.
        with pytest.raises(ServeError):
            SemanticGraphView(factory.graph, fig2_space, cache=cache)
        lazy = SemanticGraphView(factory.graph, fig2_space, cache=SemanticGraphCache())
        assert lazy.hop_label(("Germany", "Country"), [3, 7], 4) == label
        assert lazy.cache_hits == 0
        # The bound is part of the key.
        assert first.hop_label(("Germany", "Country"), [3, 7], 2) != label

    @pytest.mark.parametrize("compact", [False, True], ids=["lazy", "compact"])
    @pytest.mark.parametrize("library_first", [False, True])
    def test_engines_with_different_libraries_share_a_cache(self, compact, library_first):
        """A label is a function of φ, hence of the library: ``Car`` is only
        a synonym, so the library-less engine's (correct) all-saturated
        label must never reach the engine that resolves it."""
        bundle = load_bundle("dbpedia", scale=1.0, seed=3)
        query = (
            QueryGraphBuilder().target("x", "Car").specific("g", "Germany", "Country")
            .edge("e", "x", "assembly", "g").build()
        )
        cache = SemanticGraphCache()
        # One store, as one cache backs one: every engine shares the kernel.
        graph = CompactGraph.freeze(bundle.kg)
        factory = (CompactViewFactory if compact else LazyViewFactory)(graph)

        def answers(library):  # a fresh engine on the one cache
            engine = SemanticGraphQueryEngine(
                bundle.kg, bundle.space, library,
                weight_cache=cache, view_factory=factory,
            )
            return len(engine.search(query, k=10).matches)

        def labels():
            return {key for kind, key in cache._rows.entries if kind == "hop_label"}

        order = (bundle.library, None) if library_first else (None, bundle.library)
        assert {library: answers(library) for library in order} == {
            bundle.library: 10, None: 0,
        }
        # One library object, one set of labels: another engine's first
        # query reads the labels the first library engine published.
        hits, published = cache.stats.hits, labels()
        assert answers(bundle.library) == 10
        assert cache.stats.hits > hits and labels() == published
        assert bundle.library in {key[2] for key in published}

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_rows_equal_their_unsharded_twins(
        self, fig2_space, num_shards, strategy
    ):
        """The shard set's label is the compact view's byte for byte and
        its merged ``m(u)`` row the compact bounds row bit for bit, so a
        sharded search prunes and ranks exactly as an unsharded one."""
        rng = random.Random(num_shards)
        for trial in range(8):
            num_nodes = rng.randint(4, 60)
            isolated = rng.randint(0, 3)
            kg = random_graph(
                rng, num_nodes, rng.randint(0, 3 * num_nodes), isolated=isolated
            )
            compact = CompactViewFactory(CompactGraph.freeze(kg))(kg, fig2_space)
            shards = ShardedGraph.build(kg, num_shards, strategy=strategy)
            sharded = ShardedViewFactory(shards)(kg, fig2_space)
            for predicate in PREDICATES:
                assert (
                    sharded.bounds_row_array(predicate).tobytes()
                    == compact.bounds_row_array(predicate).tobytes()
                ), (trial, predicate)
            phi_sets = {
                "empty": [],
                "all": list(range(num_nodes)),
                "isolated": list(range(num_nodes - isolated, num_nodes)),
                "one": [rng.randrange(num_nodes)],
                "some": sorted(rng.sample(range(num_nodes), num_nodes // 3)),
            }
            for bound in (1, 2, 4):
                for name, phi in phi_sets.items():
                    key = (f"{trial}-{name}", None)
                    assert sharded.hop_label(key, phi, bound) == compact.hop_label(
                        key, phi, bound
                    ), (trial, name, bound)


@pytest.fixture(
    scope="module",
    params=[("dbpedia", 1.0, 11), ("freebase", 0.8, 5)],
    ids=lambda spec: f"{spec[0]}-s{spec[2]}",
)
def bundle(request):
    preset, scale, seed = request.param
    return load_bundle(preset, scale=scale, seed=seed)


class TestDeletionOnly:
    """Claim 2: with vs without the label, only the work differs."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_streams_and_harvests_identical_work_only_falls(self, bundle, kernel):
        engine = _compact_engine(bundle.kg, bundle.space, bundle.library)
        config = SearchConfig(tau=0.5)
        labelled_factory = engine.view_factory
        null_factory = null_label_factory(bundle.kg)
        pruned = saved = 0
        for item in bundle.workload:
            decomposition = engine.decompose(item.query)
            views = (
                labelled_factory(bundle.kg, bundle.space),
                null_factory(bundle.kg, bundle.space),
            )
            for index, subquery in enumerate(decomposition.subqueries):
                labelled, unpruned = (
                    build_subquery_search(
                        view, subquery, engine.matcher, config, index, kernel=kernel
                    )
                    for view in views
                )
                name = f"{item.qid}/g{index}"
                # Mid-search harvest (M̂_i: pivot, pss, path, order) after
                # the same number of emitted matches, then the full drain.
                for search in (labelled, unpruned):
                    search.run(3)
                harvests = [
                    [search.materialise(match) for match in search.harvest()]
                    for search in (labelled, unpruned)
                ]
                assert path_matches_differ(f"{name}/harvest", *harvests[::-1]) is None
                streams = [
                    [search.materialise(match) for match in search.run(10**6)]
                    for search in (labelled, unpruned)
                ]
                assert path_matches_differ(name, *streams[::-1]) is None
                a, b = labelled.stats, unpruned.stats
                assert b.pruned_by_reach == 0
                assert a.goals_emitted == b.goals_emitted
                assert a.expansions <= b.expansions, name
                assert a.states_generated <= b.states_generated, name
                assert a.stale_pops <= b.stale_pops, name
                assert a.max_queue_size <= b.max_queue_size, name
                assert a.pruned_by_tau <= b.pruned_by_tau, name
                assert a.pruned_by_visited <= b.pruned_by_visited, name
                assert a.pruned_by_bound <= b.pruned_by_bound, name
                # Every arrival is judged once: what reach drops here, the
                # unpruned search τ-prunes, visited-prunes or pushes.
                assert judged(b) >= judged(a) + a.pruned_by_reach, name
                pruned += a.pruned_by_reach
                saved += b.expansions - a.expansions
        assert pruned > 0 and saved > 0  # the suite must exercise the rule

    def test_answers_and_ta_bookkeeping_identical(self, bundle):
        labelled = _compact_engine(bundle.kg, bundle.space, bundle.library)
        unpruned = SemanticGraphQueryEngine(
            bundle.kg,
            bundle.space,
            bundle.library,
            view_factory=null_label_factory(bundle.kg),
        )
        fewer = 0
        for item in bundle.workload:
            a = labelled.search(item.query, k=10)
            b = unpruned.search(item.query, k=10)
            assert final_matches_differ(item.qid, b.matches, a.matches) is None
            assert a.ta_rounds == b.ta_rounds, item.qid
            assert a.ta_accesses == b.ta_accesses, item.qid
            assert a.expansions <= b.expansions, item.qid
            assert b.pruned_by_reach == 0
            fewer += a.expansions < b.expansions
        assert fewer > 0


class TestSoundness:
    """Claim 3: run to exhaustion, nothing the oracle finds is lost."""

    @staticmethod
    def exhaustive(kg, space, library, query, config, pivot=None, complete=False):
        """Brute-force best pss per pivot, and reach prunes taken.

        Both kernels must emit exactly the pivots and pss the unpruned
        arm emits — the soundness claim proper — each a pivot the
        exhaustive oracle reaches, over a path no better than the
        oracle's best; ``complete`` additionally demands the oracle's
        answer itself.  (With or without the prune a pivot can score
        *below* the oracle, or be missed, on the random multigraphs: the
        closed set does not know a state's ancestors, so a dominating
        state may be unable to take the simple path the dominated one
        could.  That is the unpruned search's behaviour too, which is
        the arm this compares against.)
        """
        engine = _compact_engine(kg, space, library, config)
        (subquery,) = engine.decompose(query, pivot=pivot).subqueries
        oracle = {
            match.pivot_uid: match.pss
            for match in brute_force_matches(
                SemanticGraphView(CompactGraph.freeze(kg), space),
                subquery,
                engine.matcher,
                config,
            )
        }
        unpruned_view = null_label_factory(kg)(kg, space)
        pruned = 0
        for kernel in KERNELS:
            search, unpruned = (
                build_subquery_search(
                    view, subquery, engine.matcher, config, kernel=kernel
                )
                for view in (engine._make_view(), unpruned_view)
            )
            found = {match.pivot_uid: match.pss for match in search.run(10**6)}
            assert search.exhausted
            assert found == {m.pivot_uid: m.pss for m in unpruned.run(10**6)}
            for pivot_uid, pss in found.items():
                assert pss <= oracle[pivot_uid] + 1e-9, (kernel, pivot_uid)
            if complete:  # a tree: no two paths to dominate one another
                assert found == pytest.approx(oracle)
            pruned += search.stats.pruned_by_reach
        return oracle, pruned

    @pytest.mark.parametrize("bound", [1, 2, 4])
    def test_fig2_product_query(self, fig2_kg, fig2_space, fig2_matcher, bound):
        query = (
            QueryGraphBuilder()
            .target("v1", "Automobile")
            .specific("v2", "Germany", "Country")
            .edge("e1", "v1", "product", "v2")
            .build()
        )
        oracle, pruned = self.exhaustive(
            fig2_kg, fig2_space, fig2_matcher.library, query,
            SearchConfig(tau=0.0, path_bound=bound), complete=True,
        )
        names = {fig2_kg.entity(uid).name for uid in oracle}
        assert "Audi_TT" in names
        assert ("KIA_K5" in names) == (bound >= 2)
        assert len(oracle) == min(bound, 2)
        # At n̂ = 1 no arrival continues and at n̂ = 4 every node of the
        # eight has an Automobile in reach; n̂ = 2 strands the walk
        # towards German.
        assert (pruned > 0) == (bound == 2)

    def test_random_micro_graphs_two_segments(self, fig2_space, fig2_matcher):
        query = (
            QueryGraphBuilder()
            .target("v1", "Automobile")
            .specific("v2", "Germany", "Country")
            .target("v3", "Person")
            .edge("e1", "v1", "product", "v2")
            .edge("e2", "v3", "designer", "v1")
            .build()
        )
        reached = pruned = 0
        for seed in range(8):
            rng = random.Random(seed)
            kg = random_graph(rng, 14, 22, isolated=2)
            kg.add_entity("Germany", "Country")
            for _ in range(3):
                kg.add_edge(rng.randrange(12), rng.choice(PREDICATES), 14)
            for bound in (1, 2, 3):
                oracle, dropped = self.exhaustive(
                    kg, fig2_space, fig2_matcher.library, query,
                    SearchConfig(tau=0.0, path_bound=bound), pivot="v3",
                )
                reached += len(oracle)
                pruned += dropped
        assert reached > 0 and pruned > 0


#: Sums over ``small_bundle``'s workload at k=10 under ``GENERATE`` —
#: every sub-query search's counters, the TA bookkeeping and a checksum
#: of the answers — recorded from the commit before the hop label
#: existed (267f603), where both kernels read the same values.  Both
#: arms run the reference search: the array kernel serves ``EXPAND`` only.
GENERATE_TOTALS_AT_PARENT = {
    "expansions": 1684,
    "states_generated": 2511,
    "pruned_by_tau": 2491,
    "pruned_by_visited": 2897,
    "pruned_by_bound": 3750,
    "pruned_by_reach": 0,
    "stale_pops": 0,
    "goals_emitted": 384,
    "max_queue_size": 1297,
    "ta_rounds": 227,
    "ta_accesses": 384,
    "matches": 80,
    "answer_uids": 22787,
    "scores": 84.9668396096761,
}


class TestGenerateRunsUnpruned:
    """Claim 4: Algorithm 1's literal policy is untouched — on the
    reference search, which is also what ``auto`` serves it on."""

    @pytest.mark.parametrize("kernel", ["reference", "auto"])
    def test_counters_equal_the_parents(self, small_bundle, kernel):
        engine = _compact_engine(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            SearchConfig(visited_policy=VisitedPolicy.GENERATE),
            search_kernel=kernel,
        )
        totals = dict.fromkeys(SEARCH_STAT_FIELDS, 0)
        totals.update(ta_rounds=0, ta_accesses=0, matches=0, answer_uids=0, scores=0.0)
        for item in small_bundle.workload:
            result = engine.search(item.query, k=10)
            totals["ta_rounds"] += result.ta_rounds
            totals["ta_accesses"] += result.ta_accesses
            totals["matches"] += len(result.matches)
            totals["answer_uids"] += sum(result.answer_uids())
            totals["scores"] += sum(match.score for match in result.matches)
            for stats in result.subquery_stats:
                for name in SEARCH_STAT_FIELDS:
                    totals[name] += getattr(stats, name)
        assert totals == GENERATE_TOTALS_AT_PARENT


class TestCounterPlumbing:
    def test_merge_and_pickle_carry_the_counter(self, small_bundle):
        merged = SearchStats(pruned_by_reach=3).merge(SearchStats(pruned_by_reach=4))
        assert merged.pruned_by_reach == 7
        assert pickle.loads(pickle.dumps(merged)) == merged
        engine = _compact_engine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        result = next(
            result
            for result in (engine.search(q.query, k=5) for q in small_bundle.workload)
            if result.pruned_by_reach
        )
        assert result.pruned_by_reach == result.total_stats().pruned_by_reach
        thawed = pickle.loads(pickle.dumps(QueryResultPayload.from_result(result)))
        assert thawed.to_result().pruned_by_reach == result.pruned_by_reach
        assert [s.pruned_by_reach for s in thawed.subquery_stats] == [
            s.pruned_by_reach for s in result.subquery_stats
        ]

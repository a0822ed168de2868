"""Cross-kernel conformance: array-backed A* search vs the reference.

The vectorized kernel (`repro.core.search_kernel`) must make the same
decision as the linked-state reference search at every step — so
drained match streams (pivots, bit-equal pss, emission order, paths down
to shared ``Edge`` objects) and every search counter (expansions,
reach/τ/visited/bound prunes, stale pops, queue peak) must be identical,
across randomized graphs, multi-segment sub-queries, τ sweeps and
mid-stream ``next_match`` resumption.  The kernel serves the paper's
configuration only; under an ablation (``GENERATE``, arithmetic
scoring) the parity suites hold what ``auto`` serves over the compact
view — the reference search — to the reference over the lazy oracle
view, decision for decision.  The kernel emits
path-less pending matches, so the suites build the path of *every*
emitted match (``materialised``) before comparing — not only of the
top-k the engine would return.  The identity predicates are the shared
ones (`repro.bench.equivalence`), so the conformance suites cannot drift
in what they check.
"""

import gc
import pickle
import random
import weakref
from types import SimpleNamespace

import pytest

from repro.bench.datasets import load_bundle
from repro.bench.equivalence import (
    final_matches_differ,
    path_matches_differ,
    query_results_differ,
    search_stats_differ,
)
from repro.core.astar import (
    SEARCH_KERNELS,
    SubQuerySearch,
    brute_force_matches,
    build_subquery_search,
)
from repro.core.compact_view import CompactViewFactory
from repro.core.config import PssMode, SearchConfig, VisitedPolicy
from repro.core.engine import SemanticGraphQueryEngine
from repro.core.pss import log_weight
from repro.core.results import PathMatch, PendingMatch, QueryResultPayload
from repro.core.search_kernel import (
    VectorizedSubQuerySearch,
    _SegmentTable,
    supports_vectorized_search,
)
from repro.core.semantic_graph import SemanticGraphView
from repro.errors import SearchError
from repro.kg.compact import CompactGraph
from repro.kg.graph import KnowledgeGraph
from repro.query.builder import QueryGraphBuilder
from repro.utils.timing import BudgetClock

BUNDLE_SPECS = (("dbpedia", 1.0, 11), ("dbpedia", 0.6, 3), ("freebase", 0.8, 5))
TAUS = (0.0, 0.5, 0.8, 0.95)
#: The paper's configuration (EXPAND, geometric) and one arm per ablation.
SETTINGS = (VisitedPolicy.EXPAND, VisitedPolicy.GENERATE, PssMode.ARITHMETIC)


def configured(setting, **fields):
    """A config with one of ``SETTINGS`` and the other field at its default."""
    name = "scoring" if isinstance(setting, PssMode) else "visited_policy"
    return SearchConfig(**fields, **{name: setting})


@pytest.fixture(scope="module", params=BUNDLE_SPECS, ids=lambda s: f"{s[0]}-s{s[2]}")
def rand_bundle(request):
    preset, scale, seed = request.param
    return load_bundle(preset, scale=scale, seed=seed)


def build_pair(bundle, subquery, matcher, config, view=None):
    """The oracle search and the served (``auto``) one for a sub-query.

    Under the paper's configuration ``auto`` builds the array kernel and
    the oracle is the reference over the same compact view; under an
    ablation ``auto`` builds the reference search over the compact view
    and the oracle is the reference over the lazy view of its store.
    """
    if view is None:
        view = CompactViewFactory(CompactGraph.freeze(bundle.kg))(
            bundle.kg, bundle.space, min_weight=config.min_weight
        )
    served = build_subquery_search(view, subquery, matcher, config)
    oracle_view = view
    if config.ablated_fields():
        assert type(served) is SubQuerySearch
        oracle_view = SemanticGraphView(
            view.graph, bundle.space, min_weight=config.min_weight
        )
    else:
        assert isinstance(served, VectorizedSubQuerySearch)
    reference = build_subquery_search(
        oracle_view, subquery, matcher, config, kernel="reference"
    )
    assert isinstance(reference, SubQuerySearch)
    return reference, served


def materialised(search, matches):
    """Every emitted match with its path built by the search it came from."""
    built = [search.materialise(match) for match in matches]
    assert all(type(match) is PathMatch for match in built)
    return built


def _compact_engine(kg, *args, **kwargs):
    """An engine served through the frozen CSR kernel of ``kg``."""
    factory = CompactViewFactory(CompactGraph.freeze(kg))
    return SemanticGraphQueryEngine(kg, *args, view_factory=factory, **kwargs)


class TestRandomizedConformance:
    """Drained streams and counters identical on generated graphs."""

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_full_drain_identical(self, rand_bundle, setting):
        engine = _compact_engine(rand_bundle.kg, rand_bundle.space, rand_bundle.library)
        exercised_stale = 0
        for tau in TAUS:
            config = configured(setting, tau=tau)
            for query in rand_bundle.workload:
                decomposition = engine.decompose(query.query)
                for index, subquery in enumerate(decomposition.subqueries):
                    reference, vectorized = build_pair(
                        rand_bundle, subquery, engine.matcher, config
                    )
                    ref_matches = reference.run(10**6)
                    vec_matches = vectorized.run(10**6)
                    if setting is VisitedPolicy.EXPAND:  # the array kernel
                        assert all(type(m) is PendingMatch for m in vec_matches)
                    vec_matches = materialised(vectorized, vec_matches)
                    label = f"{query.qid}/g{index}/tau={tau}"
                    problem = path_matches_differ(label, ref_matches, vec_matches)
                    assert problem is None, problem
                    problem = search_stats_differ(
                        label, reference.stats, vectorized.stats
                    )
                    assert problem is None, problem
                    assert reference.exhausted and vectorized.exhausted
                    exercised_stale += vectorized.stats.stale_pops
        if setting is VisitedPolicy.GENERATE:
            assert exercised_stale == 0  # GENERATE never re-opens
        else:
            # The suite must actually exercise the stale-pop path (lazy
            # decrease-key re-opening), not just agree on zeros.
            assert exercised_stale > 0

    def test_midstream_resumption_identical(self, rand_bundle):
        """Pull-by-pull interleaving pauses and resumes both kernels."""
        engine = _compact_engine(rand_bundle.kg, rand_bundle.space, rand_bundle.library)
        config = SearchConfig(tau=0.5)
        query = rand_bundle.workload[-1]
        decomposition = engine.decompose(query.query)
        for index, subquery in enumerate(decomposition.subqueries):
            reference, vectorized = build_pair(
                rand_bundle, subquery, engine.matcher, config
            )
            pulled = 0
            while True:
                ref_match = reference.next_match()
                vec_match = vectorized.next_match()
                if ref_match is None or vec_match is None:
                    assert ref_match is None and vec_match is None
                    break
                problem = path_matches_differ(
                    f"{query.qid}/g{index}#{pulled}",
                    [ref_match],
                    materialised(vectorized, [vec_match]),
                )
                assert problem is None, problem
                pulled += 1
                # Stats agree mid-stream, not only at exhaustion.
                problem = search_stats_differ(
                    f"{query.qid}/g{index}@{pulled}",
                    reference.stats,
                    vectorized.stats,
                )
                assert problem is None, problem
            assert reference.exhausted == vectorized.exhausted

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_tbq_harvest_identical(self, rand_bundle, setting):
        """Abandoned mid-search, both kernels hold the same M̂_i: the best
        generated goal per pivot, popped or not, in generation order."""
        engine = _compact_engine(rand_bundle.kg, rand_bundle.space, rand_bundle.library)
        config = configured(setting, tau=0.5)
        query = rand_bundle.workload[0]
        decomposition = engine.decompose(query.query)
        unpopped = 0
        for index, subquery in enumerate(decomposition.subqueries):
            for steps in (5, 40, 10**6):
                reference, vectorized = build_pair(
                    rand_bundle, subquery, engine.matcher, config
                )
                for search in (reference, vectorized):
                    for _ in range(steps):
                        if search.exhausted:
                            break
                        search.step()
                label = f"{query.qid}/g{index}/harvest@{steps}"
                ref_harvest = reference.harvest()
                problem = path_matches_differ(
                    label, ref_harvest, materialised(vectorized, vectorized.harvest())
                )
                assert problem is None, problem
                problem = search_stats_differ(
                    label, reference.stats, vectorized.stats
                )
                assert problem is None, problem
                pivots = [match.pivot_uid for match in ref_harvest]
                assert len(set(pivots)) == len(pivots)  # best per pivot
                assert all(match.pss >= config.tau for match in ref_harvest)
                unpopped += len(ref_harvest) - reference.stats.goals_emitted
        # The harvest must actually reach past what has popped.
        assert unpopped > 0


class TestBruteForceOracle:
    """Theorem 2 spot-checks: the vectorized kernel against the
    exhaustive oracle (mirrors the reference's own oracle tests)."""

    @pytest.fixture(scope="class")
    def setup(self, small_bundle):
        engine = _compact_engine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        return small_bundle, engine

    @pytest.mark.parametrize("query_index", [0, 1, 2])
    def test_matches_brute_force_per_pivot(self, setup, query_index):
        bundle, engine = setup
        config = SearchConfig(
            tau=0.8, path_bound=2, visited_policy=VisitedPolicy.EXPAND
        )
        query = bundle.workload[query_index]
        decomposition = engine.decompose(query.query)
        subquery = decomposition.subqueries[0]
        view = CompactViewFactory(CompactGraph.freeze(bundle.kg))(
            bundle.kg, bundle.space, min_weight=config.min_weight
        )
        astar = build_subquery_search(
            view, subquery, engine.matcher, config, kernel="vectorized"
        ).run(10**6)
        oracle = brute_force_matches(
            SemanticGraphView(view.graph, bundle.space),
            subquery,
            engine.matcher,
            config,
        )
        astar_by_pivot = {m.pivot_uid: m.pss for m in astar}
        for match in oracle:
            # The A* may additionally reach pivots via non-simple
            # prefixes the oracle skips, so it dominates per pivot.
            assert match.pivot_uid in astar_by_pivot
            assert astar_by_pivot[match.pivot_uid] >= match.pss - 1e-9
        if oracle:
            first = max(astar, key=lambda m: m.pss)
            assert first.pss == pytest.approx(oracle[0].pss)


class TestDispatch:
    """The kernel seam: auto resolution, forcing, and rejection."""

    def test_auto_picks_vectorized_on_compact_view(self, small_bundle):
        engine = _compact_engine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        decomposition = engine.decompose(small_bundle.workload[0].query)
        view = engine._make_view()
        assert supports_vectorized_search(view)
        search = build_subquery_search(
            view, decomposition.subqueries[0], engine.matcher, engine.config
        )
        assert isinstance(search, VectorizedSubQuerySearch)

    def test_auto_falls_back_on_lazy_view(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        decomposition = engine.decompose(small_bundle.workload[0].query)
        view = engine._make_view()
        assert not supports_vectorized_search(view)
        search = build_subquery_search(
            view, decomposition.subqueries[0], engine.matcher, engine.config
        )
        assert isinstance(search, SubQuerySearch)

    def test_vectorized_rejects_lazy_view(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        decomposition = engine.decompose(small_bundle.workload[0].query)
        with pytest.raises(SearchError):
            build_subquery_search(
                engine._make_view(),
                decomposition.subqueries[0],
                engine.matcher,
                engine.config,
                kernel="vectorized",
            )

    def test_ablations_route_to_the_reference_search(self, small_bundle):
        """The array kernel serves the paper's configuration only: ``auto``
        builds the reference search for every ablation field, a forced
        ``vectorized`` and the kernel's own constructor refuse it, naming
        the field."""
        engine = _compact_engine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        subquery = engine.decompose(small_bundle.workload[0].query).subqueries[0]
        view = engine._make_view()

        def build(config, **kwargs):
            return build_subquery_search(
                view, subquery, engine.matcher, config, **kwargs
            )

        assert SearchConfig().ablated_fields() == ()
        assert type(build(SearchConfig())) is VectorizedSubQuerySearch
        for name, value in (
            ("scoring", PssMode.ARITHMETIC),
            ("visited_policy", VisitedPolicy.GENERATE),
        ):
            config = SearchConfig(**{name: value})
            assert config.ablated_fields() == (name,)
            assert type(build(config)) is SubQuerySearch
            with pytest.raises(SearchError, match=name):
                build(config, kernel="vectorized")
            with pytest.raises(SearchError, match=name):
                VectorizedSubQuerySearch(view, subquery, engine.matcher, config)
        both = SearchConfig(
            scoring=PssMode.ARITHMETIC, visited_policy=VisitedPolicy.GENERATE
        )
        assert both.ablated_fields() == ("scoring", "visited_policy")
        assert type(build(both)) is SubQuerySearch

    def test_unknown_kernel_rejected(self, small_bundle):
        engine = _compact_engine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        decomposition = engine.decompose(small_bundle.workload[0].query)
        with pytest.raises(SearchError):
            build_subquery_search(
                engine._make_view(),
                decomposition.subqueries[0],
                engine.matcher,
                engine.config,
                kernel="numba",
            )

    def test_engine_validates_search_kernel(self, small_bundle):
        """The name check lives at the dispatch point, so a bad name
        surfaces on the first query."""
        engine = SemanticGraphQueryEngine(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            search_kernel="simd",
        )
        with pytest.raises(SearchError):
            engine.search(small_bundle.workload[0].query, k=3)
        assert "auto" in SEARCH_KERNELS

    def test_engine_rejects_vectorized_on_lazy_views(self, small_bundle):
        """The default lazy view can never feed the vectorized kernel."""
        engine = SemanticGraphQueryEngine(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            search_kernel="vectorized",
        )
        with pytest.raises(SearchError):
            engine.search(small_bundle.workload[0].query, k=3)
        # A compact view is a valid host for it.
        engine = _compact_engine(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            search_kernel="vectorized",
        )
        result = engine.search(small_bundle.workload[0].query, k=3)
        assert result.matches

    def test_drain_reads_only_rows_and_labels_off_the_view(self, small_bundle):
        """Once built, the search asks its view for rows and hop labels
        and nothing else: the pop loop calls no view method."""
        engine = _compact_engine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        drained = 0
        for item in small_bundle.workload:
            for subquery in engine.decompose(item.query).subqueries:
                sealed = _SealedView(engine._make_view())
                open_search, sealed_search = (
                    build_subquery_search(
                        view, subquery, engine.matcher, engine.config,
                        kernel="vectorized",
                    )
                    for view in (engine._make_view(), sealed)
                )
                sealed.sealed = True
                matches = sealed_search.run(10**6)
                assert sealed_search.exhausted
                assert matches == open_search.run(10**6)
                drained += sealed_search.stats.expansions
        assert drained > 0


class _SealedView:
    """Forwards to a compact view; once sealed, only the row surface."""

    ROW_SURFACE = frozenset({
        "weight_row_array",
        "log_weight_row_array",
        "bounds_row_array",
        "log_bounds_row_array",
        "hop_label",
    })

    def __init__(self, view):
        self.inner = view
        self.sealed = False

    def __getattr__(self, name):
        if self.sealed and name not in self.ROW_SURFACE:
            raise AssertionError(f"search read view.{name} after construction")
        return getattr(self.inner, name)


class TestEngineCallSites:
    """The kernels are interchangeable through every engine path."""

    @pytest.fixture(scope="class")
    def engines(self, small_bundle):
        return {
            kernel: _compact_engine(
                small_bundle.kg,
                small_bundle.space,
                small_bundle.library,
                search_kernel=kernel,
            )
            for kernel in ("reference", "vectorized")
        }

    def test_sgq_identical(self, engines, small_bundle):
        for item in small_bundle.workload:
            reference = engines["reference"].search(item.query, k=10)
            vectorized = engines["vectorized"].search(item.query, k=10)
            problem = query_results_differ(item.qid, reference, vectorized)
            assert problem is None, problem
            assert reference.expansions == vectorized.expansions, item.qid
            assert reference.stale_pops == vectorized.stale_pops, item.qid
            assert reference.max_queue_size == vectorized.max_queue_size, item.qid

    def test_view_stats_comparable_across_kernels(self, engines, small_bundle):
        """edges_weighted is the view's row count, whichever kernel reads it."""
        for item in small_bundle.workload[:3]:
            a = engines["reference"].search(item.query, k=5).total_stats()
            b = engines["vectorized"].search(item.query, k=5).total_stats()
            assert a.edges_weighted == b.edges_weighted, item.qid

    def test_query_result_counters_aggregate(self, engines, small_bundle):
        result = engines["vectorized"].search(small_bundle.workload[0].query, k=5)
        total = result.total_stats()
        assert result.expansions == total.expansions > 0
        assert result.pruned_by_tau == total.pruned_by_tau
        assert result.pruned_by_visited == total.pruned_by_visited
        assert result.stale_pops == total.stale_pops
        assert result.max_queue_size == total.max_queue_size > 0


TICK = 0.001  # BudgetClock seconds per A* expansion


class TestSectionVIContract:
    """TBQ is SGQ under Algorithm 3's budget (deterministic BudgetClock)."""

    @pytest.fixture(scope="class")
    def engines(self, rand_bundle):
        return {
            kernel: _compact_engine(
                rand_bundle.kg,
                rand_bundle.space,
                rand_bundle.library,
                SearchConfig(tau=0.5),
                search_kernel=kernel,
            )
            for kernel in ("reference", "vectorized")
        }

    @staticmethod
    def bounded(engine, query, bound, k=10, check_interval=8):
        clock = BudgetClock(seconds_per_tick=TICK)
        result = engine.search_time_bounded(
            query, k=k, time_bound=bound, clock=clock,
            check_interval=check_interval,
        )
        return result, round(clock.now() / TICK)

    @pytest.mark.parametrize("kernel", ["reference", "vectorized"])
    def test_generous_bound_certifies_the_exact_answer(
        self, engines, rand_bundle, kernel
    ):
        """(a) approximate is False and uid, pss and path equal search()'s;
        (d) at no more clock ticks than search() plus check_interval."""
        engine = engines[kernel]
        for item in rand_bundle.workload:
            exact = engine.search(item.query, k=10)
            result, ticks = self.bounded(engine, item.query, 1e6)
            assert result.approximate is False, item.qid
            problem = final_matches_differ(item.qid, exact.matches, result.matches)
            assert problem is None, problem
            assert result.ta_accesses == exact.ta_accesses, item.qid
            assert ticks == result.expansions, item.qid  # one tick each
            assert ticks <= exact.expansions + 8, item.qid

    @pytest.mark.parametrize("kernel", ["reference", "vectorized"])
    def test_alerted_answers_never_beat_exact(self, engines, rand_bundle, kernel):
        """(b) every returned component has τ ≤ pss ≤ the exact run's."""
        engine = engines[kernel]
        tau = engine.config.tau
        alerted = 0
        for item in rand_bundle.workload:
            drained = engine.search(item.query, k=10**6, exhaustive_assembly=True)
            exact = {match.pivot_uid: match for match in drained.matches}
            for bound in (0.01, 0.04, 0.16):
                result, _ticks = self.bounded(engine, item.query, bound)
                alerted += result.approximate
                for match in result.matches:
                    reference = exact[match.pivot_uid]
                    assert match.score <= reference.score + 1e-12, item.qid
                    for index, component in match.components.items():
                        assert component.pivot_uid == match.pivot_uid
                        best = reference.components[index].pss
                        assert tau <= component.pss <= best, (item.qid, bound)
        assert alerted > 0  # the bounds above must actually starve something

    def test_kernels_agree_at_every_bound(self, engines, rand_bundle):
        """(c) identical answers, flags and SearchStats, alerted or not."""
        flags = set()
        for item in rand_bundle.workload:
            for bound in (0.01, 0.04, 0.16, 1e6):
                reference, ref_ticks = self.bounded(
                    engines["reference"], item.query, bound
                )
                vectorized, vec_ticks = self.bounded(
                    engines["vectorized"], item.query, bound
                )
                label = f"{item.qid}@{bound}"
                assert reference.approximate == vectorized.approximate, label
                assert ref_ticks == vec_ticks, label
                problem = final_matches_differ(
                    label, reference.matches, vectorized.matches
                )
                assert problem is None, problem
                assert reference.ta_accesses == vectorized.ta_accesses, label
                for a, b in zip(reference.subquery_stats, vectorized.subquery_stats):
                    problem = search_stats_differ(label, a, b)
                    assert problem is None, problem
                flags.add(reference.approximate)
        assert flags == {True, False}

    @pytest.mark.parametrize("kernel", ["reference", "vectorized"])
    @pytest.mark.parametrize("bound", [0.01, 1e6], ids=["alerted", "certified"])
    def test_no_reference_cycle_keeps_pools_alive(
        self, engines, rand_bundle, monkeypatch, kernel, bound
    ):
        """The budget and the searches it counts goals for form no cycle:
        with the collector off, a finished call's searches are dead."""
        engine = engines[kernel]
        searches = capture_searches(engine, monkeypatch)
        gc.collect()
        gc.disable()
        try:
            result, _ticks = self.bounded(engine, rand_bundle.workload[0].query, bound)
            assert result.approximate is (bound < 1.0)
            refs = [weakref.ref(search) for search in searches]
            assert refs
            del searches[:]
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


def dense_graph(num_nodes=120, num_edges=3000, seed=5):
    """|E| ≫ |V| ≫ |P|: 25 edges per node over the 7 fig2 predicates."""
    rng = random.Random(seed)
    kg = KnowledgeGraph("dense")
    kg.add_entity("Germany", "Country")
    for i in range(1, num_nodes):
        kg.add_entity(f"n{i}", "Automobile" if i % 2 else "Person")
    predicates = (
        "assembly", "country", "designer", "nationality", "engine",
        "language", "product",
    )
    while kg.num_edges < num_edges:
        source, target = rng.sample(range(num_nodes), 2)
        kg.add_edge(source, rng.choice(predicates), target)
    return kg


def capture_searches(engine, monkeypatch):
    """Record every search the engine builds from here on."""
    built = []
    original = engine._build_searches

    def recording(*args, **kwargs):
        searches = original(*args, **kwargs)
        built.extend(searches)
        return searches

    monkeypatch.setattr(engine, "_build_searches", recording)
    return built


class TestFusedLoop:
    """``next_match`` is one pop → stale-check → goal-or-expand loop with
    its state bound per call; the branches that only exist because of
    that are pinned here, counter for counter against the reference."""

    @pytest.fixture()
    def two_segment(self, fig2_space, fig2_matcher):
        """Germany -product- Automobile -designer- Person over the dense
        graph at n̂ = 2: one sub-query, two segments."""
        kg = dense_graph()
        engine = _compact_engine(kg, fig2_space, fig2_matcher.library)
        query = (
            QueryGraphBuilder()
            .target("v1", "Automobile")
            .specific("v2", "Germany", "Country")
            .target("v3", "Person")
            .edge("e1", "v1", "product", "v2")
            .edge("e2", "v3", "designer", "v1")
            .build()
        )
        (subquery,) = engine.decompose(query, pivot="v3").subqueries
        assert len(subquery.predicates()) == 2

        def pair(config):
            view = engine.view_factory(
                kg, fig2_space, min_weight=config.min_weight, cache=None
            )
            bundle = SimpleNamespace(kg=kg, space=fig2_space)
            return build_pair(bundle, subquery, engine.matcher, config, view)

        return pair

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_pops_alternating_between_segments(self, two_segment, setting):
        """The segment table is re-bound inside a call whenever a pop
        changes segment."""
        config = configured(setting, tau=0.5, path_bound=2)
        reference, vectorized = two_segment(config)
        popped = []
        pop = reference._pop

        def recording():
            state = pop()
            if state is not None:
                popped.append(state.segment)
            return state

        reference._pop = recording
        ref_matches = reference.run(10**6)
        vec_matches = materialised(vectorized, vectorized.run(10**6))
        assert ref_matches
        assert path_matches_differ("alternate", ref_matches, vec_matches) is None
        assert search_stats_differ("alternate", reference.stats, vectorized.stats) is None
        if setting is VisitedPolicy.EXPAND:  # the array kernel
            assert sorted(vectorized._tables) == [0, 1]
        # Identical decisions mean identical pop order; count the segment
        # switches between expansions of one call (a goal pop ends it).
        switches, previous = 0, None
        for segment in popped:
            if segment == 2:
                previous = None
                continue
            switches += previous is not None and segment != previous
            previous = segment
        assert switches >= 3

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_exhaustion_charges_alike(self, two_segment, setting):
        """Drained match by match to an empty queue, both kernels charge
        once per iteration, the one that finds the queue empty included,
        and an exhausted search answers ``None`` without a charge."""
        config = configured(setting, tau=0.5, path_bound=2)

        class Budget:
            charges = 0

            def charge(self):
                self.charges += 1

        budgets, outcomes = [], []
        searches = two_segment(config)
        for search in searches:
            budget = Budget()
            search._charge = budget.charge
            matches = []
            while (match := search.next_match()) is not None:
                matches.append(search.materialise(match))
            assert search.exhausted
            assert search.next_match() is None
            budgets.append(budget.charges)
            outcomes.append(matches)
        reference, vectorized = searches
        assert outcomes[0]
        assert path_matches_differ("drain", *outcomes) is None
        assert search_stats_differ("drain", reference.stats, vectorized.stats) is None
        assert budgets[0] == budgets[1] == reference.stats.expansions + 1

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_budget_clock_ticks_and_alert_expansion(self, small_bundle, setting):
        """TBQ under a BudgetClock: same tick count, same expansion at
        which the alert fires, same harvest — the served (``auto``)
        compact engine against the reference one, or under an ablation
        against the reference engine over the lazy oracle view."""
        config = configured(setting, tau=0.5)
        args = (small_bundle.kg, small_bundle.space, small_bundle.library, config)
        engines = {
            "reference": (
                SemanticGraphQueryEngine(*args, search_kernel="reference")
                if config.ablated_fields()
                else _compact_engine(*args, search_kernel="reference")
            ),
            "vectorized": _compact_engine(*args),
        }
        alerted = 0
        for item in small_bundle.workload[:4]:
            for bound in (0.01, 0.04, 1e6):
                runs = {
                    kernel: TestSectionVIContract.bounded(engine, item.query, bound)
                    for kernel, engine in engines.items()
                }
                (reference, ref_ticks), (vectorized, vec_ticks) = (
                    runs["reference"], runs["vectorized"]
                )
                label = f"{item.qid}@{bound}/{setting.value}"
                assert ref_ticks == vec_ticks == vectorized.expansions, label
                assert reference.approximate == vectorized.approximate, label
                alerted += vectorized.approximate
                assert final_matches_differ(
                    label, reference.matches, vectorized.matches
                ) is None
                for a, b in zip(reference.subquery_stats, vectorized.subquery_stats):
                    assert search_stats_differ(label, a, b) is None
        assert alerted > 0

    def test_materialise_across_resumption(self, two_segment):
        config = SearchConfig(tau=0.5, path_bound=2)
        reference, vectorized = two_segment(config)
        pulled = [vectorized.next_match()]
        before = vectorized.stats.states_generated
        while vectorized.stats.states_generated == before:
            pulled.append(vectorized.next_match())  # resumes the same loop
        # Matches emitted before the pool grew still build their paths.
        problem = path_matches_differ(
            "resumed",
            [reference.next_match() for _ in pulled],
            materialised(vectorized, pulled),
        )
        assert problem is None, problem

    def test_node_sized_rows_are_read_in_place(self, small_bundle):
        """``_m_any`` copies no cached row: a one-predicate suffix reads
        the view's read-only arrays themselves, a longer one its own
        merge, element for element the reference's scalar probes."""
        engine = _compact_engine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        subquery = next(
            subquery
            for item in small_bundle.workload
            for subquery in engine.decompose(item.query).subqueries
            if len(subquery.predicates()) == 2
        )
        _, vectorized = build_pair(
            small_bundle, subquery, engine.matcher, SearchConfig(tau=0.5)
        )
        view, (first, last) = vectorized.view, subquery.predicates()
        m, log_m = vectorized._m_any(1)
        assert m.obj is view.bounds_row_array(last)
        assert log_m.obj is view.log_bounds_row_array(last)
        assert m.readonly and log_m.readonly
        m, log_m = vectorized._m_any(0)
        expected = [
            view.max_adjacent_weight_any(uid, (first, last))
            for uid in range(view.graph.num_nodes)
        ]
        # The merge takes from both rows, so neither could stand in for it.
        assert expected != view.bounds_row_array(first).tolist()
        assert expected != view.bounds_row_array(last).tolist()
        assert m.tolist() == expected
        assert log_m.tolist() == [log_weight(weight) for weight in expected]

    def test_matches_carry_their_state_after_the_search_runs_on(self, two_segment):
        """A pending match is the goal state's entry, which holds its
        ancestors: an early emission and a harvested goal that never
        popped both build the reference's path 50 pulls later."""
        config = SearchConfig(tau=0.5, path_bound=2)
        reference, vectorized = two_segment(config)
        first = vectorized.next_match()
        expected_first = reference.next_match()
        harvested = {match.pivot_uid: match for match in vectorized.harvest()}
        expected = {match.pivot_uid: match for match in reference.harvest()}
        waiting = set(harvested) - {first.pivot_uid}  # generated, not popped
        assert waiting
        for pivot in waiting:  # the match is the queued state itself
            assert any(harvested[pivot].entry is entry for entry in vectorized._heap)
        for _ in range(50):
            assert vectorized.next_match() is not None
        assert path_matches_differ(
            "early", [expected_first], materialised(vectorized, [first])
        ) is None
        pivots = sorted(waiting)
        problem = path_matches_differ(
            "harvested",
            [expected[pivot] for pivot in pivots],
            materialised(vectorized, [harvested[pivot] for pivot in pivots]),
        )
        assert problem is None, problem


class TestSetUpIndependentOfEdges:
    """Nothing a search sets up is proportional to |E|."""

    def test_no_table_column_is_slot_sized(
        self, fig2_space, fig2_matcher, monkeypatch
    ):
        kg = dense_graph()
        engine = _compact_engine(
            kg,
            fig2_space,
            fig2_matcher.library,
            SearchConfig(tau=0.5, path_bound=2),
        )
        graph = engine.view_factory.graph
        num_predicates = len(graph.predicate_names)
        assert graph.num_edges >= 20 * graph.num_nodes >= 200 * num_predicates
        query = (
            QueryGraphBuilder()
            .target("v1", "Automobile")
            .specific("v2", "Germany", "Country")
            .target("v3", "Person")
            .edge("e1", "v1", "product", "v2")
            .edge("e2", "v3", "designer", "v1")
            .build()
        )
        searches = capture_searches(engine, monkeypatch)
        mirror = graph.slot_predicate_list()
        assert len(mirror) == 2 * graph.num_edges
        for _ in range(2):
            assert engine.search(query, k=5).matches
        assert engine.search_time_bounded(query, k=5, time_bound=5.0).matches
        assert len(searches) >= 3
        limit = max(num_predicates, graph.num_nodes)
        tables = 0
        for search in searches:
            assert isinstance(search, VectorizedSubQuerySearch)
            assert search._spred_l is mirror  # one mirror per graph, not per search
            for table in search._tables.values():
                tables += 1
                for name in _SegmentTable.__slots__:
                    column = getattr(table, name)
                    assert column is None or len(column) <= limit, name
                assert len(table.w_l) == len(table.lw_l) == num_predicates
            for m_l, logm_l in search._m_memo.values():
                assert len(m_l) == len(logm_l) == graph.num_nodes
        assert tables > 0


class TestReturnedAnswersAreDetached:
    """Results carry plain values; nothing keeps a search's pool alive."""

    @pytest.fixture()
    def engine(self, small_bundle):
        return _compact_engine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )

    @pytest.mark.parametrize("mode", ["sgq", "tbq"])
    def test_searches_die_and_result_pickles(
        self, engine, small_bundle, monkeypatch, mode
    ):
        query = small_bundle.workload[0].query
        reference = _compact_engine(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            search_kernel="reference",
        )
        searches = capture_searches(engine, monkeypatch)

        def run(target):
            if mode == "sgq":
                return target.search(query, k=5)
            return target.search_time_bounded(
                query, k=5, time_bound=0.05,
                clock=BudgetClock(seconds_per_tick=0.001),
            )

        result = run(engine)
        assert result.matches and searches
        refs = [weakref.ref(search) for search in searches]
        del searches[:]
        gc.collect()
        assert all(ref() is None for ref in refs)  # result still held

        for final in result.matches:
            assert final.components
            for component in final.components.values():
                assert type(component) is PathMatch
                assert component.path.end == component.pivot_uid
        payload = QueryResultPayload.from_result(result)
        blob = pickle.dumps(payload)
        assert final_matches_differ(
            mode, result.matches, pickle.loads(blob).to_result().matches
        ) is None
        # The boundary ships exactly what the eager kernel's result does.
        expected = pickle.dumps(QueryResultPayload.from_result(run(reference)))
        assert len(blob) == len(expected)

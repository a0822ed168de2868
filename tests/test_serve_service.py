"""Tests for the batched QueryService (repro.serve.service)."""

import dataclasses
import inspect
import multiprocessing
import threading
from contextlib import ExitStack

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.engine import EngineSpec, SemanticGraphQueryEngine, build_engine
from repro.core.time_bounded import TimeBoundedCoordinator
from repro.embedding.predicate_space import PredicateSpace
from repro.errors import ReproError, SearchError, ServeError
from repro.kg.compact import CompactGraph
from repro.kg.sharded import ShardedGraph
from repro.kg.shm import leaked_segments
from repro.scenarios import WorkloadBuilder
from repro.serve.answer_cache import AnswerCache
from repro.serve.backends import EXECUTION_BACKENDS
from repro.serve.cache import SemanticGraphCache
from repro.serve.resilience import BackoffPolicy, CircuitBreaker
from repro.serve.service import QueryRequest, QueryService, ServiceStats
from repro.query.builder import QueryGraphBuilder
from repro.utils.lru import CacheStats


def _results_equal(left, right):
    assert [m.pivot_uid for m in left.matches] == [m.pivot_uid for m in right.matches]
    for a, b in zip(left.matches, right.matches):
        assert a.score == pytest.approx(b.score, abs=1e-12)


def _product_query():
    return (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "Germany", "Country")
        .edge("e1", "v1", "product", "v2")
        .build()
    )


@pytest.fixture()
def service(small_bundle):
    svc = QueryService.build(small_bundle.kg, small_bundle.space, small_bundle.library)
    yield svc
    svc.close()


def test_configuration_surface_snapshot():
    """What can be set, spelled out: a PR that adds (or re-adds) a
    selector has to edit these lists in the open."""
    from repro.embedding.trainer import TrainingConfig
    from repro.kg.generator import GeneratorConfig
    from repro.kg.graph import GraphReader
    from repro.serve.workload import _build_parser

    assert sorted(
        name for name in {**vars(GraphReader), **GraphReader.__annotations__}
        if not name.startswith("_")
    ) == [
        "entities", "entities_of_type", "entity", "name", "num_edges",
        "num_entities", "types",
    ]
    assert list(inspect.signature(QueryService.__init__).parameters) == [
        "self", "spec", "backend", "workers", "start_method", "supervised",
        "fault_plan", "retry_policy", "hard_timeout", "max_pending",
        "answer_cache",
    ]
    assert list(inspect.signature(QueryService.build).parameters) == [
        "kg", "space", "library", "config",
        "backend", "workers",
        "shards", "shard_strategy",
        # ROADMAP 1A(f): the frozen ledger's spellings, accepted only as
        # it spells them (compact=True, shared_graph=True on process).
        "compact", "shared_graph",
        "kwargs",
    ]
    # Two backends; the default is the caller's own thread (ROADMAP
    # item 7's table).
    assert EXECUTION_BACKENDS == ("inline", "process")
    for signature in (QueryService.__init__, QueryService.build):
        assert inspect.signature(signature).parameters["backend"].default == "inline"
    assert _build_parser().get_default("backend") == "inline"
    assert [f.name for f in dataclasses.fields(EngineSpec)] == [
        "store", "space", "library", "config", "fault_plan",
    ]
    # The search knobs: τ, n̂, the weight floor, Eq. 3's aggregation, the
    # visited policy and Algorithm 3's two constants; no expansion cap.
    assert [f.name for f in dataclasses.fields(SearchConfig)] == [
        "tau", "path_bound", "min_weight", "scoring", "visited_policy",
        "assembly_seconds_per_match", "alert_ratio",
    ]
    assert list(inspect.signature(SemanticGraphCache.__init__).parameters) == [
        "self", "max_rows",
    ]
    # One stats shape for the row cache and the space's similarity rows.
    space = PredicateSpace({"a": np.array([1.0])})
    assert type(space.stats()) is type(SemanticGraphCache().stats) is CacheStats
    assert [f.name for f in dataclasses.fields(CacheStats)] == [
        "hits", "misses", "evictions", "entries", "capacity",
    ]
    # One stats type for a whole service, each part from its owner.
    assert [f.name for f in dataclasses.fields(ServiceStats)] == [
        "backend", "scope", "submitted", "completed", "failed",
        "time_bounded", "workers", "answers", "resilience", "shards",
    ]
    options = {
        option
        for action in _build_parser()._actions
        for option in action.option_strings
    }
    assert sorted(options - {"-h", "--help"}) == [
        "--answer-cache", "--arrival", "--backend",
        "--breakdown", "--deadline", "--fault-plan", "--hard-timeout", "--k",
        "--max-pending", "--popularity", "--preset", "--rate", "--repeats",
        "--retries", "--scale", "--scenario", "--seed", "--shard-strategy",
        "--shards", "--supervised", "--tbq-fraction",
        "--workers",
    ]
    # The dataset and embedding knobs: one negative-sampling strategy
    # and fully typed graphs, so neither has a selector.
    assert [f.name for f in dataclasses.fields(GeneratorConfig)] == [
        "seed", "scale", "density", "hub_bias", "coherence",
    ]
    assert [f.name for f in dataclasses.fields(TrainingConfig)] == [
        "dim", "epochs", "batch_size", "learning_rate", "margin", "seed",
    ]


class TestEquivalence:
    @pytest.mark.parametrize("max_rows", [1024, 2], ids=["roomy", "tight"])
    def test_equivalence_under_tight_lru(self, small_bundle, max_rows):
        """Cache-backed search equals plain search, cold and warm; eviction
        churn never changes results, only recompute cost."""
        cached = build_engine(
            EngineSpec(
                CompactGraph.freeze(small_bundle.kg), small_bundle.space,
                small_bundle.library,
            ),
            weight_cache=SemanticGraphCache(max_rows=max_rows),
        )
        plain = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        queries = [q.query for q in small_bundle.workload]
        baseline = [plain.search(q, k=8) for q in queries]
        for _ in range(2):  # pass 1 populates the cache, pass 2 reads it
            for query, expected in zip(queries, baseline):
                _results_equal(expected, cached.search(query, k=8))
        assert (cached.weight_cache.stats.evictions > 0) == (max_rows == 2)


class TestCacheSharing:
    def test_cross_query_hits_accumulate(self, service):
        query = _product_query()
        service.submit(query, k=5).result()
        cold = service.cache.stats
        assert cold.hits == 0 and cold.misses > 0
        service.submit(query, k=5).result()
        warm = service.cache.stats
        # The repeat pass alone: every lookup lands in the shared cache.
        pass_hits = warm.hits - cold.hits
        pass_misses = warm.misses - cold.misses
        assert pass_hits > 0
        assert pass_misses == 0
        assert warm.hit_rate > cold.hit_rate


    @pytest.mark.parametrize("shards", [0, 2], ids=["compact", "sharded"])
    def test_each_inline_service_owns_its_weight_cache(self, small_bundle, shards):
        """No weight cache outlives its service: a second service built
        from the same inputs starts cold and counts what the first did."""
        caches, counts = [], []
        for _ in range(2):
            with QueryService.build(
                small_bundle.kg, small_bundle.space, small_bundle.library,
                shards=shards,
            ) as service:
                assert service.engine.weight_cache is service.cache
                service.submit(_product_query(), k=3).result()
                caches.append(service.cache)
                counts.append((service.cache.stats.hits, service.cache.stats.misses))
        assert caches[0] is not caches[1]
        assert counts[0] == counts[1]
        assert counts[0][1] > 0


class TestSubmission:
    def test_search_many_preserves_order(self, service, small_bundle):
        # Requests and bare query graphs, interleaved: every result comes
        # back in its item's submission slot.
        queries = [q.query for q in small_bundle.workload[:4]]
        items = [
            QueryRequest(query=query, k=4) if i % 2 == 0 else query
            for i, query in enumerate(queries)
        ]
        results = service.search_many(items, k=4)
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            _results_equal(engine.search(query, k=4), result)

    def test_search_many_of_nothing_is_empty(self, service):
        assert service.search_many([]) == []
        assert service.stats_snapshot().submitted == 0

    def test_search_many_applies_k_to_bare_queries_only(self, service, small_bundle):
        query = _product_query()
        bare, request = service.search_many(
            [query, QueryRequest(query=query, k=2)], k=5
        )
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        _results_equal(engine.search(query, k=5), bare)
        _results_equal(engine.search(query, k=2), request)
        assert len(request.matches) < len(bare.matches)

    def test_deadline_maps_to_time_bounded_search(self, service):
        result = service.submit(_product_query(), k=5, deadline=0.5).result()
        # Half a second certifies this millisecond query: the budgeted
        # search stops on TA termination, so nothing was approximated.
        assert result.approximate is False
        # Queue wait counts against the deadline: the search gets only the
        # remaining budget, never more than asked for.
        assert 0 < result.time_bound <= 0.5
        assert service.stats_snapshot().time_bounded == 1

    def test_mixed_batch_requests_keep_own_parameters(self, service):
        plain = _product_query()
        results = service.search_many(
            [plain, QueryRequest(query=plain, k=2, deadline=0.5)], k=5
        )
        assert results[0].time_bound is None
        assert 0 < results[1].time_bound <= 0.5
        assert len(results[1].matches) <= 2

    def test_failure_is_counted_and_raised(self, service):
        future = service.submit(_product_query(), k=0)
        with pytest.raises(SearchError):
            future.result()
        stats = service.stats_snapshot()
        assert stats.failed == 1
        assert stats.completed + stats.failed == stats.submitted

    def test_stats_track_completion(self, service, small_bundle):
        service.search_many([q.query for q in small_bundle.workload[:3]], k=3)
        stats = service.stats_snapshot()
        assert (stats.submitted, stats.completed, stats.failed) == (3, 3, 0)


def _submit_with_deadline(bundle, deadline):
    with QueryService.build(bundle.kg, bundle.space, bundle.library) as service:
        try:
            service.submit(_product_query(), k=5, deadline=deadline)
        finally:  # refused before it was counted
            assert service.stats_snapshot().submitted == 0


def _builder():
    return WorkloadBuilder("non-finite", seed=1).intents(star=2)


#: ``nan`` fails every comparison, so a bare ``x <= 0`` guard let it (and
#: ``inf``) through each of these seams; each must refuse both.
NON_FINITE_SEAMS = {
    "deadline": _submit_with_deadline,
    "hard_timeout": lambda bundle, x: QueryService.build(
        bundle.kg, bundle.space, bundle.library, hard_timeout=x
    ),
    "base_seconds": lambda bundle, x: BackoffPolicy(base_seconds=x),
    "cap_seconds": lambda bundle, x: BackoffPolicy(cap_seconds=x),
    "cooldown_seconds": lambda bundle, x: CircuitBreaker(cooldown_seconds=x),
    "time_bound": lambda bundle, x: TimeBoundedCoordinator(x, SearchConfig()),
    "assembly_seconds_per_match": lambda bundle, x: SearchConfig(
        assembly_seconds_per_match=x
    ),
    # A workload artifact freezes these numbers, so its builder refuses them.
    "workload_scale": lambda bundle, x: _builder().domain("dbpedia", scale=x),
    "workload_rate": lambda bundle, x: _builder().arrivals("poisson", rate=x),
    "workload_deadline": lambda bundle, x: _builder().deadlines(0.5, x),
    "workload_latency_budget": lambda bundle, x: _builder().latency_budget(x),
    "workload_intent_budget": lambda bundle, x: _builder().latency_budget(star=x),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("seam", sorted(NON_FINITE_SEAMS))
def test_non_finite_numbers_are_refused_at_every_seam(small_bundle, seam, value):
    with pytest.raises(ReproError, match="must be"):
        NON_FINITE_SEAMS[seam](small_bundle, value)


class TestLifecycle:
    def test_submit_after_close_raises(self, small_bundle):
        svc = QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
        )
        svc.close()
        assert svc.closed
        with pytest.raises(ServeError):
            svc.submit(_product_query(), k=3)

    def test_context_manager_closes(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
        ) as svc:
            svc.submit(_product_query(), k=3).result()
        assert svc.closed

    def test_invalid_construction(self, small_bundle):
        bundle = (small_bundle.kg, small_bundle.space, small_bundle.library)
        with pytest.raises(ServeError):
            QueryService.build(*bundle, workers=0)
        # 'thread' is refused like any unknown backend name.
        with pytest.raises(ServeError, match="unknown execution backend 'thread'"):
            QueryService.build(*bundle, backend="thread")
        # The breaker a supervised service builds runs at its defaults;
        # the breaker itself still validates what it is given.
        with pytest.raises(ServeError, match="must be"):
            CircuitBreaker(threshold=0)

    @pytest.mark.parametrize(
        "refused, match",
        [
            ({"hard_timeout": float("nan")}, "must be"),
            ({"max_pending": 0}, "must be"),
            ({"compact": False}, "frozen store"),
            ({"shared_graph": False}, "shared memory"),
            ({"answer_cache": AnswerCache(8)}, "capacity int"),
            ({"answer_cache": True}, "capacity int"),
            ("handle spec", "holds by value"),
            ({"shards": 2}, "served inline only"),
            ({"shards": 4, "shard_strategy": "balanced-degree"}, "served inline only"),
            ("sharded spec", "served inline only"),
        ],
        ids=[
            "hard_timeout", "max_pending", "compact=False",
            "shared_graph=False", "answer_cache=AnswerCache",
            "answer_cache=True", "handle spec", "shards=2",
            "shards=4-balanced", "sharded spec",
        ],
    )
    def test_refused_process_build_starts_nothing(self, small_bundle, refused, match):
        with ExitStack() as stack:
            if refused == "handle spec":
                lease = stack.enter_context(
                    CompactGraph.freeze(small_bundle.kg).to_shared()
                )
            children = set(multiprocessing.active_children())
            threads = set(threading.enumerate())
            segments = set(leaked_segments())
            with pytest.raises(ServeError, match=match):
                if refused == "handle spec":
                    spec = EngineSpec(
                        lease.handle, small_bundle.space, small_bundle.library
                    )
                    QueryService(spec, backend="process", workers=1)
                elif refused == "sharded spec":
                    # A by-value spec the caller partitioned, not built.
                    spec = EngineSpec(
                        ShardedGraph.build(small_bundle.kg, 2),
                        small_bundle.space, small_bundle.library,
                    )
                    QueryService(spec, backend="process", workers=1)
                else:
                    QueryService.build(
                        small_bundle.kg, small_bundle.space, small_bundle.library,
                        backend="process", workers=1, **refused,
                    )
            assert set(multiprocessing.active_children()) - children == set()
            assert set(threading.enumerate()) - threads == set()
            assert set(leaked_segments()) - segments == set()

    @pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
    @pytest.mark.parametrize(
        "given", ["lazy engine", "compact engine", "sharded engine", "compact-handle"]
    )
    def test_only_a_by_value_spec_is_served(self, small_bundle, given, backend):
        """An engine (the lazy oracle or one over a frozen store) is no
        way into a service, and neither is a spec whose store is a
        caller's shared-memory handle."""
        kg, space, library = small_bundle.kg, small_bundle.space, small_bundle.library
        with ExitStack() as stack:
            if given == "lazy engine":
                refused = SemanticGraphQueryEngine(kg, space, library)
            elif given == "compact engine":
                refused = build_engine(
                    EngineSpec(CompactGraph.freeze(kg), space, library)
                )
            elif given == "sharded engine":
                refused = build_engine(
                    EngineSpec(ShardedGraph.build(kg, 2), space, library)
                )
            else:
                lease = stack.enter_context(CompactGraph.freeze(kg).to_shared())
                refused = EngineSpec(lease.handle, space, library)
            children = set(multiprocessing.active_children())
            with pytest.raises(ServeError, match="holds by value"):
                QueryService(refused, backend=backend, workers=1)
            assert set(multiprocessing.active_children()) - children == set()
        assert leaked_segments() == []

    @pytest.mark.parametrize("supervised", [False, True], ids=["plain", "supervised"])
    def test_breaker_runs_at_its_defaults(self, small_bundle, monkeypatch, supervised):
        made = []

        def recording_breaker(*args, **kwargs):
            made.append(CircuitBreaker(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr("repro.serve.service.CircuitBreaker", recording_breaker)
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            supervised=supervised,
        ) as service:
            service.submit(_product_query(), k=3).result()
        expected = [(3, 5.0)] if supervised else []
        assert [(b.threshold, b.cooldown_seconds) for b in made] == expected

    @pytest.mark.parametrize(
        "backend, spelling",
        [("inline", {}), ("process", {}), ("process", {"shared_graph": True})],
        ids=["inline", "process", "process-shared_graph"],
    )
    def test_ledger_spellings_serve_as_the_default_build(
        self, small_bundle, backend, spelling
    ):
        """The perf ledger's leftover keywords (ROADMAP 1A(f)) are accepted
        and change nothing: a process pool still reads the frozen store
        from shared memory, and the answers are the oracle's."""
        oracle = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        ).search(_product_query(), k=3)
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend=backend, workers=1, compact=True, **spelling,
        ) as service:
            assert (service.graph_lease is not None) == (backend == "process")
            result = service.submit(_product_query(), k=3).result()
        assert result.answer_uids() == oracle.answer_uids()
        assert leaked_segments() == []

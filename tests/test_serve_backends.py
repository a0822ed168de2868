"""Cross-backend conformance suite for the execution-backend seam.

The seam's contract (`repro.serve.backends`): exact (SGQ) results are
bit-identical on the inline and process backends — same final
matches, bit-equal scores, same components, same TA bookkeeping and the
same per-sub-query decision counters — and the same as the lazy-view
oracle's.  Cache
materialisation counters (``nodes_touched`` / ``edges_weighted``) are
excluded: they measure cache warmth, which per-worker caches change by
design (same exclusion the view-kernel conformance suite makes).
"""

import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from multiprocessing import active_children

import pytest

from repro.bench.equivalence import final_matches_differ, search_stats_differ
from repro.core.engine import EngineSpec, SemanticGraphQueryEngine
from repro.errors import PoolBrokenError, ServeError
from repro.kg.compact import CompactGraph, CompactGraphHandle, SharedCompactGraph
from repro.kg.sharded import ShardedGraph
from repro.kg.shm import leaked_segments
from repro.query.builder import QueryGraphBuilder
from repro.scenarios.replay import answer_digest
from repro.serve.backends import EXECUTION_BACKENDS, ProcessBackend, WorkerSnapshot
from repro.serve.faults import FaultPlan
from repro.serve.service import QueryRequest, QueryService, ServiceStats
from repro.utils.lru import CacheStats

K = 5

#: Every served (store, backend) pair: a sharded store is served inline
#: only.
STORE_ARMS = pytest.mark.parametrize(
    "shards, backend",
    [(0, "inline"), (0, "process"), (2, "inline"), (4, "inline")],
    ids=["compact-inline", "compact-process", "sharded-inline", "sharded4-inline"],
)


def _product_query():
    return (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "Germany", "Country")
        .edge("e1", "v1", "product", "v2")
        .build()
    )


def _assert_identical(label, expected, actual):
    problem = final_matches_differ(label, expected.matches, actual.matches)
    assert problem is None, problem
    assert expected.ta_accesses == actual.ta_accesses, label
    assert expected.ta_rounds == actual.ta_rounds, label
    assert expected.approximate == actual.approximate, label
    assert len(expected.subquery_stats) == len(actual.subquery_stats), label
    for index, (sa, sb) in enumerate(
        zip(expected.subquery_stats, actual.subquery_stats)
    ):
        problem = search_stats_differ(f"{label}/g{index}", sa, sb)
        assert problem is None, problem


@pytest.fixture(scope="module")
def reference_results(small_bundle):
    """Sequential results of the lazy-view oracle per qid — the ground truth."""
    engine = SemanticGraphQueryEngine(
        small_bundle.kg, small_bundle.space, small_bundle.library
    )
    return {q.qid: engine.search(q.query, k=K) for q in small_bundle.workload}


def _exact_digest(kg, items, results):
    return answer_digest(
        {
            item.qid: sorted(kg.entity(uid).name for uid in result.answer_uids())
            for item, result in zip(items, results)
        }
    )


class TestStoreForms:
    """A service freezes (or partitions) its graph once and serves that
    store: by value in this process, and through shared-memory segments
    it publishes itself on a process pool.  Every form serves the
    reference kernels' answers."""

    @pytest.fixture(scope="class")
    def oracle_digest(self, small_bundle):
        kg, items = small_bundle.kg, small_bundle.workload
        oracle = SemanticGraphQueryEngine(
            kg, small_bundle.space, small_bundle.library,
            assembly_kernel="reference", search_kernel="reference",
        )
        return _exact_digest(
            kg, items, [oracle.search(item.query, k=K) for item in items]
        )

    @STORE_ARMS
    def test_every_store_form_returns_the_same_digest(
        self, small_bundle, oracle_digest, shards, backend
    ):
        kg, items = small_bundle.kg, small_bundle.workload
        store_type = ShardedGraph if shards else CompactGraph
        with QueryService.build(
            kg, small_bundle.space, small_bundle.library,
            backend=backend, workers=1, shards=shards,
        ) as service:
            lease = service.graph_lease
            if backend == "process":
                # Published by the service: workers get its handle.
                assert service.spec.store is lease.handle
            else:
                assert lease is None
                assert type(service.spec.store) is store_type
            served = service.search_many([item.query for item in items], k=K)
        assert _exact_digest(kg, items, served) == oracle_digest
        assert leaked_segments() == []


class TestCrossBackendConformance:
    @STORE_ARMS
    def test_backend_matches_sequential_engine(
        self, small_bundle, reference_results, backend, shards
    ):
        queries = small_bundle.workload
        with QueryService.build(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            backend=backend,
            workers=2,
            shards=shards,
        ) as service:
            # Two passes: warm caches must not change results.
            for run in (1, 2):
                results = service.search_many([q.query for q in queries], k=K)
                for q, result in zip(queries, results):
                    _assert_identical(
                        f"{backend}/shards{shards}/pass{run}/{q.qid}",
                        reference_results[q.qid],
                        result,
                    )


class TestProcessBackend:
    def test_pool_publishes_one_compact_graph_segment(self, small_bundle):
        """A process pool has one store form and one lease: the frozen
        graph in one shared-memory segment, released on close."""
        before = set(leaked_segments())
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2,
        ) as service:
            lease = service.graph_lease
            assert isinstance(lease, SharedCompactGraph)
            assert isinstance(service.spec.store, CompactGraphHandle)
            assert set(leaked_segments()) - before == {lease.name}
            service.search_many([_product_query()], k=K)
        assert lease.closed
        assert set(leaked_segments()) == before

    def test_deadline_requests_run_time_bounded(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2,
        ) as service:
            result = service.submit(_product_query(), k=K, deadline=0.5).result()
            assert result.approximate is False  # certified inside the bound
            assert 0 < result.time_bound <= 0.5
            assert service.stats_snapshot().time_bounded == 1

    def test_failures_cross_the_pool_and_are_counted(self, small_bundle):
        from repro.errors import SearchError

        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=1,
        ) as service:
            future = service.submit(_product_query(), k=0)
            with pytest.raises(SearchError):
                future.result()
            stats = service.stats_snapshot()
            assert (stats.failed, stats.completed) == (1, 0)

    def test_warmup_reports_ready_workers(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2,
        ) as service:
            warmed = service.warmup()
            assert 1 <= warmed <= 2
            # Warm workers serve without rebuilding the engine.
            result = service.submit(_product_query(), k=K).result()
            assert result.matches

    def test_stats_are_labelled_per_worker_sum(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2,
        ) as service:
            service.search_many([_product_query()] * 4, k=K)
            report = service.stats_snapshot()
        assert report.backend == "process"
        assert report.scope == "per-worker-sum"
        assert 1 <= report.workers_reporting <= 2
        assert report.queries == 4
        assert report.cache.lookups > 0
        assert "per-worker sum" in report.describe()

    def test_a_phase_is_a_snapshot_diff(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=1,
        ) as service:
            service.search_many([_product_query()] * 2, k=K)
            before = service.stats_snapshot()
            assert before.queries == 2
            assert before.since(before).queries == 0
            service.search_many([_product_query()], k=K)
            after = service.stats_snapshot().since(before)
            assert after.queries == 1
            # The repeat runs fully warm in its worker: no new misses.
            assert after.cache.misses == 0
            assert after.cache.hits > 0

    def test_unknown_backend_rejected(self, small_bundle):
        with pytest.raises(ServeError):
            QueryService.build(
                small_bundle.kg, small_bundle.space, small_bundle.library,
                backend="greenlet",
            )


def _report_worker_freeze(spec_pickle, conn):
    """Fork-started child: run the worker body over local queues (its
    call queue already holds the stop sentinel) and send back the order
    of its heap freezes and engine build, and the collector's freeze
    count once it serves."""
    import gc
    import queue

    from repro.serve import backends

    events = []
    freeze, build = gc.freeze, backends._process_worker_init

    def recording_freeze():
        events.append("freeze")
        freeze()

    def recording_build(spec):
        events.append("build")
        return build(spec)

    gc.freeze = recording_freeze  # this process's own module object
    backends._process_worker_init = recording_build
    calls, replies = queue.SimpleQueue(), queue.SimpleQueue()
    calls.put(None)
    backends._process_worker_main(spec_pickle, calls, replies)
    announced = replies.get_nowait() == (None, True, str(os.getpid()))
    conn.send((events, gc.get_freeze_count(), announced))
    conn.close()


class TestWorkerHeapFreeze:
    """A process worker owns its process and freezes its heap."""

    def test_worker_freezes_after_fork_and_after_build(self, small_bundle):
        import gc
        import multiprocessing
        import pickle

        spec = EngineSpec(
            CompactGraph.freeze(small_bundle.kg), small_bundle.space,
            small_bundle.library,
        )
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        parent_count = gc.get_freeze_count()
        child = context.Process(
            target=_report_worker_freeze, args=(pickle.dumps(spec), send)
        )
        child.start()
        send.close()
        try:
            assert receive.poll(60), "the worker child sent nothing"
            events, child_count, announced = receive.recv()
        finally:
            child.join(30)
        assert child.exitcode == 0
        assert announced
        # Frozen before the build, so what it inherited is out of its
        # collections, and again after it, so is its engine.
        assert events == ["freeze", "build", "freeze"]
        assert child_count > parent_count
        assert gc.get_freeze_count() == parent_count

    def test_inline_service_leaves_the_callers_heap_unfrozen(self, small_bundle):
        import gc

        before = gc.get_freeze_count()
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library
        ) as service:
            assert service.search_many([_product_query()], k=K)
        assert gc.get_freeze_count() == before


@contextmanager
def _bare_pool(bundle, workers, fault_plan, outcomes):
    """A :class:`ProcessBackend` with no service or supervisor around it,
    over a shared-memory graph; on exit the pool must have closed within a
    bounded wait, left no child of this process and no segment behind."""
    before = set(active_children())
    with CompactGraph.freeze(bundle.kg).to_shared() as lease:
        spec = EngineSpec(
            lease.handle, bundle.space, bundle.library, fault_plan=fault_plan
        )
        backend = ProcessBackend(spec, workers, on_complete=outcomes.append)
        try:
            yield backend
        finally:
            started = time.monotonic()
            backend.close()
            assert time.monotonic() - started < 30
    assert set(active_children()) - before == set()
    assert leaked_segments() == []


class TestProcessSeam:
    """The backend's own contract, which the supervisor builds on."""

    #: Each worker sleeps 0.5-1.5 x this before its first request, so the
    #: requests behind it are pending for as long as a test needs.
    SLOW_FIRST = FaultPlan(latency_at=(1,), latency_seconds=1.0)

    def test_a_worker_death_breaks_the_whole_pool(self, small_bundle):
        request, outcomes, counted_at_resolution = QueryRequest(_product_query(), k=K), [], []
        before = set(active_children())
        with _bare_pool(small_bundle, 2, self.SLOW_FIRST, outcomes) as backend:
            assert backend.warmup(timeout=60) == 2
            victim = (set(active_children()) - before).pop()
            futures = [backend.submit(request, time.time()) for _ in range(6)]
            for future in futures:
                future.add_done_callback(
                    lambda _: counted_at_resolution.append(len(outcomes))
                )
            os.kill(victim.pid, signal.SIGKILL)
            for future in futures:
                with pytest.raises(PoolBrokenError):
                    future.result(timeout=30)
            # Exactly once per request, each before its future resolved.
            assert outcomes == [False] * 6
            assert counted_at_resolution == [1, 2, 3, 4, 5, 6]
            with pytest.raises(PoolBrokenError):
                backend.submit(request, time.time())
            assert outcomes == [False] * 6  # a refused submit is the caller's

    def test_a_failing_bootstrap_breaks_the_pool(self, small_bundle):
        plan = FaultPlan(fail_shm_attach=True)
        with _bare_pool(small_bundle, 2, plan, []) as backend:
            with pytest.raises(
                ServeError, match="failed to warm up: the worker pool is broken"
            ):
                backend.warmup(timeout=60)
            with pytest.raises(PoolBrokenError):
                backend.submit(QueryRequest(_product_query(), k=K), time.time())

    def test_submit_never_blocks_and_order_is_kept(self, small_bundle):
        request, outcomes, order = QueryRequest(_product_query(), k=K), [], []
        with _bare_pool(small_bundle, 1, self.SLOW_FIRST, outcomes) as backend:
            futures = [backend.submit(request, time.time()) for _ in range(400)]
            # 400 accepted while the worker still sleeps on the first:
            # nothing waited for room on a pipe that holds workers + 1.
            assert not futures[0].done()
            for index, future in enumerate(futures):
                future.add_done_callback(lambda _, index=index: order.append(index))
            assert futures[300].cancel()  # still in the parent's FIFO
            backend.close(wait=False)  # accepted work is still served
            served = [f.result(timeout=60) for f in futures if not f.cancelled()]
            assert len(served) == 399 and all(result.matches for result in served)
            assert order == [300] + [i for i in range(400) if i != 300]
            assert sorted(outcomes) == [False] + [True] * 399
            # The cancelled request never reached the worker.
            assert [row.queries for row in backend.snapshots()] == [399]
            with pytest.raises(RuntimeError, match="after shutdown"):
                backend.submit(request, time.time())

    def test_concurrent_submitters_lose_no_request(self, small_bundle):
        """Four submitting threads and the reader thread share the FIFO
        and the in-flight count; a lost update would strand a future."""
        request, outcomes, futures = QueryRequest(_product_query(), k=K), [], []

        def client():
            futures.extend(backend.submit(request, time.time()) for _ in range(50))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _bare_pool(small_bundle, 3, None, outcomes) as backend:
                clients = [threading.Thread(target=client) for _ in range(4)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert all(f.result(timeout=60).matches for f in futures)
                assert outcomes == [True] * 200
                assert sum(row.queries for row in backend.snapshots()) == 200
        finally:
            sys.setswitchinterval(interval)


class TestSharedBackends:
    def test_inline_shares_the_service_cache_and_counts(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline",
        ) as service:
            service.search_many([_product_query()] * 3, k=K)
            report = service.stats_snapshot()
            assert (report.scope, report.backend) == ("shared", "inline")
            assert service.cache is not None
            assert report.cache == service.cache.stats
            assert (report.submitted, report.completed, report.failed) == (3, 3, 0)

    def test_client_threads_phase_diff_of_shared_counters(self, small_bundle):
        """Client threads over one inline service share its caches and
        counters: a phase they run together diffs like a serial one."""
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
        ) as service:
            service.search_many([_product_query()], k=K)
            before = service.stats_snapshot()
            assert before.since(before).cache.misses == 0
            with ThreadPoolExecutor(4) as clients:  # four client threads
                for _ in range(4):
                    clients.submit(service.search_many, [_product_query()] * 3, K)
            after = service.stats_snapshot().since(before)
            assert after.cache.misses == 0  # fully warm repeat
            assert after.cache.hits > 0
            assert (after.submitted, after.completed, after.queries) == (12, 12, 12)


def test_stats_since_matches_workers_by_id():
    """A phase diff subtracts counters per worker id: a worker that
    appears counts from zero, one that vanished drops out, and the
    gauges (``entries``, ``capacity``, RSS) are kept."""

    def row(worker, base):  # twelve distinct numbers from ``base``
        n = list(range(base, base + 12))
        return WorkerSnapshot(worker, n[0], CacheStats(*n[1:6]), CacheStats(*n[6:11]), n[11])

    before = ServiceStats(
        "process", "per-worker-sum", 10, 8, 1, 2,
        workers=(row("1", 100), row("2", 200)),
    )
    after = ServiceStats(
        "process", "per-worker-sum", 30, 27, 2, 5,
        workers=(row("1", 1000), row("3", 3000)),  # 2 died, 3 was rebuilt
    )
    phase = after.since(before)
    assert (phase.submitted, phase.completed, phase.failed) == (20, 19, 1)
    assert phase.time_bounded == 3
    assert phase.workers == (
        WorkerSnapshot(
            "1", 900, CacheStats(900, 900, 900, 1004, 1005),
            CacheStats(900, 900, 900, 1009, 1010), 1011,
        ),
        row("3", 3000),
    )
    assert (phase.queries, phase.workers_reporting) == (3900, 2)
    assert phase.cache == CacheStats(3901, 3902, 3903, 4008, 4010)
    assert phase.space.entries == 1009 + 3009
    assert min(phase.queries, phase.cache.hits, phase.space.misses) >= 0
    assert "per-worker sum, 2 workers reporting" in phase.describe()
    assert after.since(after).queries == 0


class TestSeededReplayDeterminism:
    """Seeded replay schedules and deadline mixes are backend-invariant.

    The scenario subsystem freezes ``(arrival, seed)`` and a deadline mix
    into replayable artifacts, so the primitives underneath must be
    strictly deterministic: the same seed always yields the same Poisson
    schedule and stamps the same items time-bounded, and a seeded replay
    returns payload-identical results on every execution backend.
    """

    def test_poisson_schedule_is_seed_deterministic(self):
        from repro.serve.workload import _arrival_schedule

        first = _arrival_schedule(20, 200.0, "poisson", seed=7)
        second = _arrival_schedule(20, 200.0, "poisson", seed=7)
        assert first == second  # bit-equal floats, not approximate
        assert len(first) == 20
        assert all(b > a for a, b in zip(first, second[1:]))
        other = _arrival_schedule(20, 200.0, "poisson", seed=8)
        assert other != first

    def test_mix_deadlines_selection_is_seed_deterministic(self, small_bundle):
        from repro.serve.workload import WorkloadItem, mix_deadlines

        items = [
            WorkloadItem(query=q.query, k=K, qid=q.qid)
            for q in small_bundle.workload[:8]
        ]
        first = mix_deadlines(items, 0.25, 5.0, seed=3)
        second = mix_deadlines(items, 0.25, 5.0, seed=3)
        assert [i.deadline for i in first] == [i.deadline for i in second]
        assert sum(1 for i in first if i.deadline is not None) == 2
        # A different seed is allowed to pick a different slice; the
        # stamped count stays fixed either way.
        other = mix_deadlines(items, 0.25, 5.0, seed=4)
        assert sum(1 for i in other if i.deadline is not None) == 2

    def test_seeded_replay_payloads_identical_across_backends(
        self, small_bundle
    ):
        """poisson arrivals + seeded TBQ mix -> identical payloads."""
        from repro.core.results import QueryResultPayload
        from repro.serve.workload import WorkloadItem, mix_deadlines, replay

        items = [
            WorkloadItem(query=q.query, k=K, qid=q.qid)
            for q in small_bundle.workload[:4]
        ]
        # A deliberately generous deadline: the TBQ slice runs through the
        # time-bounded coordinator but always certifies these millisecond
        # queries before the alert, so its answers are the exact ones on
        # every backend.
        items = mix_deadlines(items, 0.25, 5.0, seed=3)

        def run(backend):
            payloads = {}

            def _collect(index, request, result):
                payloads[index] = QueryResultPayload.from_result(result)

            with QueryService.build(
                small_bundle.kg,
                small_bundle.space,
                small_bundle.library,
                backend=backend,
                workers=2,
            ) as service:
                report = replay(
                    service,
                    items,
                    rate=200.0,
                    arrival="poisson",
                    seed=7,
                    on_result=_collect,
                )
            assert report.failed == 0
            assert report.deadline_requests == 1
            return payloads

        reference = run("inline")
        assert len(reference) == len(items)
        payloads = run("process")
        assert payloads.keys() == reference.keys()
        for index in reference:
            expected, actual = reference[index], payloads[index]
            # Payload-level identity on everything except wall time.
            assert actual.approximate == expected.approximate
            _assert_identical(
                f"process/item{index}", expected.to_result(), actual.to_result()
            )


class TestAnswerCacheConformance:
    """The answer cache must be invisible to results: cache on vs off,
    cold vs warm, every backend — bit-identical exact answers."""

    @pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
    def test_cache_on_off_bit_identical_cold_and_warm(
        self, small_bundle, reference_results, backend
    ):
        queries = small_bundle.workload[:4]
        with QueryService.build(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            backend=backend,
            workers=2,
            answer_cache=32,
        ) as service:
            # Pass 1 is all cold misses; pass 2 is all warm hits.  Both
            # must reproduce the sequential engine bit for bit.
            for run in (1, 2):
                results = service.search_many([q.query for q in queries], k=K)
                for q, result in zip(queries, results):
                    _assert_identical(
                        f"{backend}/cache/pass{run}/{q.qid}",
                        reference_results[q.qid],
                        result,
                    )
            snap = service.stats_snapshot()
            # The one counter of hits and misses is the cache itself.
            assert snap.answers == service.answer_cache.stats()
        # The warm pass was served without a single extra engine run.
        assert snap.answer_misses == len(queries)
        assert snap.answer_hits + snap.singleflight_collapsed == len(queries)
        assert snap.completed == 2 * len(queries)

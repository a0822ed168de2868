"""The execution-backend seam: the process pool's own contract.

What a backend answers is judged in ``tests/test_conformance.py``, one
column per backend.  This module holds what the seam promises besides
answers: one shared-memory segment per pool, deadlines and failures
that cross it, per-worker statistics and their phase diffs, the
worker's heap freeze, and a pool that breaks, never blocks a submitter
and loses no request.
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

from repro.core.engine import EngineSpec
from repro.errors import PoolBrokenError, ServeError
from repro.kg.compact import CompactGraph, CompactGraphHandle, SharedCompactGraph
from repro.kg.shm import leaked_segments
from repro.query.builder import QueryGraphBuilder
from repro.serve.backends import ProcessBackend, WorkerSnapshot
from repro.serve.faults import FaultPlan
from repro.serve.service import QueryRequest, QueryService, ServiceStats
from repro.utils.lru import CacheStats

K = 5


def _product_query():
    return (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "Germany", "Country")
        .edge("e1", "v1", "product", "v2")
        .build()
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

"""Pluggable execution backends for :class:`~repro.serve.service.QueryService`.

The serving layer used to be welded to one ``ThreadPoolExecutor``.  Under
CPython's GIL that pool serialises CPU-bound SGQ searches — an 8-core box
serves one query's worth of compute no matter how many workers it has.
This module is the seam that breaks the weld.  Three backends share one
contract (:class:`ExecutionBackend`):

- ``inline`` — no pool at all; ``submit`` runs the query on the calling
  thread and returns an already-resolved future.  The zero-concurrency
  reference every other backend must match bit-for-bit, and the cheapest
  option for single-tenant batch jobs;
- ``thread`` — the historical ``ThreadPoolExecutor``.  Request-level
  concurrency (deadline isolation, interleaved batches) and shared-cache
  warmth, but no CPU parallelism under the GIL;
- ``process`` — a ``ProcessPoolExecutor`` whose workers each bootstrap a
  **private engine once** from a pickled
  :class:`~repro.core.engine.EngineSpec` (pool initializer + per-worker
  global, never a per-task rebuild) and reuse it, with its own
  :class:`~repro.serve.cache.SemanticGraphCache` and predicate-space
  row cache, across every request the worker serves.
  True multi-core parallelism; requests and results cross the process
  boundary as picklable :class:`~repro.serve.service.QueryRequest` /
  :class:`~repro.core.results.QueryResultPayload` values.

Results are bit-identical across backends for exact (SGQ) requests: the
engine is deterministic, caches only change cost, and a worker's engine
is built from a pickle-faithful copy of the same graph/space/library.
TBQ requests (``deadline=``) are time-dependent by design and only
promise the paper's anytime semantics, on every backend.

Statistics flow *back* through the same seam: every backend reports
:class:`WorkerSnapshot` rows (weight-cache and space row-cache counters
per worker).  The shared-memory backends report one live row;
the process backend piggybacks a snapshot on each task result and keeps
the latest row per worker pid, so aggregation never needs a control
round-trip into the pool.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import multiprocessing

from repro.core.engine import EngineSpec, SemanticGraphQueryEngine, build_engine
from repro.core.results import QueryResult, QueryResultPayload
from repro.embedding.predicate_space import SpaceCacheStats
from repro.errors import ServeError
from repro.serve.cache import CacheStats, SemanticGraphCache

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None

EXECUTION_BACKENDS = ("inline", "thread", "process")


def _max_rss_kb() -> int:
    """Peak RSS of the calling process in KiB (0 where unsupported).

    ``ru_maxrss`` is KiB on Linux; per-worker rows make the shared-graph
    memory win measurable (N private graph copies vs one mapped segment).
    """
    if _resource is None:
        return 0
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)

# A deadline that has already elapsed in the queue still gets a sliver of
# search budget: the TBQ coordinator needs a positive bound, and a
# harvest-what-you-can answer beats an error for an overloaded service.
MIN_TIME_BOUND = 1e-3


@dataclass(frozen=True)
class WorkerSnapshot:
    """One worker's cumulative serving-side statistics.

    ``worker_id`` is ``"shared"`` for the shared-memory backends (one
    row for the whole pool) and the worker pid for process workers.
    Counters are monotonic over the worker's lifetime; consumers diff
    against a baseline to report per-phase rates.  ``max_rss_kb`` is a
    gauge — the reporting process's peak RSS when the snapshot was taken
    — so memory can be compared per worker across backends.
    """

    worker_id: str
    queries: int
    cache: CacheStats
    space: SpaceCacheStats
    max_rss_kb: int = 0


def execute_request(
    engine: SemanticGraphQueryEngine,
    request,  # QueryRequest; untyped to avoid a service<->backends cycle
    submitted_wall: float,
) -> QueryResult:
    """Run one request against an engine, honouring its deadline budget.

    A deadline is a promise about *latency*, not service time: the wait
    between submission and execution already spent part of the budget, so
    only the remainder goes to the TBQ search.  Queue wait is measured on
    the wall clock (``time.time``) because submission and execution may
    happen in different processes, where ``perf_counter`` epochs are not
    comparable.
    """
    if request.deadline is not None:
        queue_wait = time.time() - submitted_wall
        budget = max(request.deadline - queue_wait, MIN_TIME_BOUND)
        return engine.search_time_bounded(
            request.query,
            request.k,
            time_bound=budget,
            pivot=request.pivot,
            strategy=request.strategy,
        )
    return engine.search(
        request.query,
        request.k,
        pivot=request.pivot,
        strategy=request.strategy,
    )


class _EngineRunner:
    """Engine + fault hook + stats: the per-worker execution core.

    Shared by the inline and thread backends directly (one runner, many
    threads) and instantiated once per process-pool worker.
    """

    def __init__(
        self,
        engine: SemanticGraphQueryEngine,
        *,
        faults=None,  # Optional[repro.serve.faults.FaultInjector]
    ):
        self.engine = engine
        self._lock = threading.Lock()
        self._faults = faults
        self._queries = 0

    def execute(self, request, submitted_wall: float) -> QueryResult:
        if self._faults is not None:
            # Before any real work, so an injected crash models a worker
            # dying mid-request (the request is lost, not half-served).
            self._faults.on_request()
        result = execute_request(self.engine, request, submitted_wall)
        with self._lock:
            self._queries += 1
        return result

    def snapshot(self, worker_id: str = "shared") -> WorkerSnapshot:
        cache = self.engine.weight_cache
        cache_stats = (
            cache.stats if isinstance(cache, SemanticGraphCache) else CacheStats()
        )
        with self._lock:
            queries = self._queries
        return WorkerSnapshot(
            worker_id=worker_id,
            queries=queries,
            cache=cache_stats,
            space=self.engine.space.stats(),
            max_rss_kb=_max_rss_kb(),
        )


class ExecutionBackend:
    """The contract a :class:`~repro.serve.service.QueryService` runs on.

    ``submit`` takes a request plus its wall-clock submission instant and
    returns a future resolving to a :class:`QueryResult`; ``snapshots``
    reports per-worker statistics; ``warmup`` makes the first real
    request pay no construction latency; ``close`` releases resources
    (called exactly once by the owning service).

    ``on_complete(success)`` — when given — is invoked on the execution
    path strictly *before* the returned future resolves, so a caller that
    just observed ``future.result()`` is guaranteed to see the service's
    completion counters already updated (a plain done-callback races with
    the waiter).
    """

    name: str = "abstract"
    #: How ``snapshots`` rows relate to the truth: ``"shared"`` rows read
    #: live shared structures; ``"per-worker"`` rows are summed copies.
    stats_scope: str = "shared"

    def submit(self, request, submitted_wall: float) -> "Future[QueryResult]":
        raise NotImplementedError

    def snapshots(self) -> List[WorkerSnapshot]:
        raise NotImplementedError

    def warmup(self, timeout: Optional[float] = None) -> int:
        """Ensure workers are ready; returns the number warmed."""
        return 0

    def close(self, wait: bool = True) -> None:
        raise NotImplementedError


def _notify(on_complete: Optional[Callable[[bool], None]], success: bool) -> None:
    if on_complete is not None:
        on_complete(success)


class InlineBackend(ExecutionBackend):
    """Synchronous execution on the caller's thread.

    The reference backend: zero scheduling, zero queueing, results by
    construction identical to calling ``engine.search`` in a loop.
    """

    name = "inline"
    stats_scope = "shared"

    def __init__(
        self,
        runner: _EngineRunner,
        on_complete: Optional[Callable[[bool], None]] = None,
    ):
        self._runner = runner
        self._on_complete = on_complete

    def submit(self, request, submitted_wall: float) -> "Future[QueryResult]":
        future: "Future[QueryResult]" = Future()
        future.set_running_or_notify_cancel()
        try:
            result = self._runner.execute(request, submitted_wall)
        except BaseException as exc:  # mirror executor behaviour
            _notify(self._on_complete, False)
            future.set_exception(exc)
        else:
            _notify(self._on_complete, True)
            future.set_result(result)
        return future

    def snapshots(self) -> List[WorkerSnapshot]:
        return [self._runner.snapshot()]

    def warmup(self, timeout: Optional[float] = None) -> int:
        return 1

    def close(self, wait: bool = True) -> None:
        pass


class ThreadBackend(ExecutionBackend):
    """The historical worker pool: shared engine, shared cache, GIL-bound."""

    name = "thread"
    stats_scope = "shared"

    def __init__(
        self,
        runner: _EngineRunner,
        workers: int,
        on_complete: Optional[Callable[[bool], None]] = None,
    ):
        if workers < 1:
            raise ServeError(f"workers must be at least 1, got {workers}")
        self._runner = runner
        self._on_complete = on_complete
        self.workers = workers
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )

    def _run(self, request, submitted_wall: float) -> QueryResult:
        try:
            result = self._runner.execute(request, submitted_wall)
        except BaseException:
            _notify(self._on_complete, False)
            raise
        _notify(self._on_complete, True)
        return result

    def submit(self, request, submitted_wall: float) -> "Future[QueryResult]":
        return self._executor.submit(self._run, request, submitted_wall)

    def snapshots(self) -> List[WorkerSnapshot]:
        return [self._runner.snapshot()]

    def warmup(self, timeout: Optional[float] = None) -> int:
        return self.workers

    def close(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)


# ----------------------------------------------------------------------
# process backend: worker-side bootstrap
# ----------------------------------------------------------------------

# The per-worker engine, built exactly once by the pool initializer.  A
# module-level global is the documented ProcessPoolExecutor idiom for
# worker-lifetime state: the initializer runs before any task, and every
# task the worker executes sees the same runner.
_WORKER_RUNNER: Optional[_EngineRunner] = None


def _process_worker_init(spec_pickle: bytes) -> None:
    """Pool initializer: unpickle the spec, build the engine, attach caches.

    The spec arrives pre-pickled (not as a live initarg) so the engine
    description crosses the boundary through one explicit, testable
    ``pickle.loads`` on *every* start method — fork included, where raw
    initargs would be silently inherited by memory instead.
    """
    global _WORKER_RUNNER
    spec: EngineSpec = pickle.loads(spec_pickle)
    faults = None
    plan = getattr(spec, "fault_plan", None)
    if plan is not None:
        # allow_kill: in a real worker process an injected crash is a
        # real SIGKILL — the pool must observe an actual worker death,
        # not a polite exception.
        faults = plan.activate(allow_kill=True)
        faults.on_worker_init()  # may raise (simulated shm-attach loss)
    engine = build_engine(spec, weight_cache=SemanticGraphCache())
    _WORKER_RUNNER = _EngineRunner(engine, faults=faults)


def _process_execute(
    request, submitted_wall: float
) -> Tuple[QueryResultPayload, WorkerSnapshot]:
    """Task body: run one request, return its payload + a stats snapshot.

    Piggybacking the snapshot on every result keeps the parent's view of
    per-worker statistics fresh without control messages; a snapshot is a
    few dozen integers, noise next to the payload it rides on.
    """
    runner = _WORKER_RUNNER
    if runner is None:  # pragma: no cover - initializer contract
        raise ServeError("process worker executed before initialization")
    result = runner.execute(request, submitted_wall)
    payload = QueryResultPayload.from_result(result)
    return payload, runner.snapshot(worker_id=str(os.getpid()))


def _process_warmup(hold_seconds: float) -> str:
    """Warm-up task: the initializer already built the engine; report pid.

    ``hold_seconds`` keeps the worker briefly busy so concurrently
    submitted warm-up tasks fan out across distinct workers instead of
    being drained by the first one to come up.
    """
    time.sleep(hold_seconds)
    return str(os.getpid())


class ProcessBackend(ExecutionBackend):
    """True-parallel serving over a ``ProcessPoolExecutor``.

    Each worker bootstraps a private engine once from the pickled
    :class:`~repro.core.engine.EngineSpec` (initializer + per-worker
    global) and reuses it — with its own weight cache and space row
    cache — across all requests it serves.  Request and
    response objects cross the pool as pickles; the parent re-inflates
    each :class:`QueryResultPayload` into a :class:`QueryResult` so
    callers see one result type on every backend.

    Args:
        spec: the engine description to ship.
        workers: pool size.
        start_method: multiprocessing start method (``None`` = platform
            default: ``fork`` on Linux — fast, shares the parent's page
            cache; ``spawn`` re-imports everything and exercises the full
            pickle path, at ~seconds of startup per worker).
    """

    name = "process"
    stats_scope = "per-worker"

    def __init__(
        self,
        spec: EngineSpec,
        workers: int,
        *,
        start_method: Optional[str] = None,
        on_complete: Optional[Callable[[bool], None]] = None,
    ):
        self._on_complete = on_complete
        if workers < 1:
            raise ServeError(f"workers must be at least 1, got {workers}")
        self.workers = workers
        self.spec = spec
        # Pickle eagerly: an unpicklable spec must fail in the parent with
        # a clear error, not inside a worker's initializer where the pool
        # just reports BrokenProcessPool.
        try:
            spec_pickle = pickle.dumps(spec)
        except Exception as exc:
            raise ServeError(
                f"EngineSpec is not picklable ({exc}); the process backend "
                "needs a picklable engine description"
            ) from exc
        context = (
            multiprocessing.get_context(start_method)
            if start_method is not None
            else multiprocessing.get_context()
        )
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_process_worker_init,
            initargs=(spec_pickle,),
        )
        self._lock = threading.Lock()
        self._snapshots: Dict[str, WorkerSnapshot] = {}

    def submit(self, request, submitted_wall: float) -> "Future[QueryResult]":
        inner = self._executor.submit(_process_execute, request, submitted_wall)
        outer: "Future[QueryResult]" = Future()

        def _relay(done: "Future[Tuple[QueryResultPayload, WorkerSnapshot]]"):
            exc = done.exception()
            payload = None
            if exc is None:
                # Record the worker snapshot even if the caller cancelled
                # the outer future: the work happened and the stats are
                # real either way.
                payload, snapshot = done.result()
                with self._lock:
                    self._snapshots[snapshot.worker_id] = snapshot
            if not outer.set_running_or_notify_cancel():
                # Caller cancelled: the result is dropped, so the request
                # completes as a failure for accounting purposes.
                _notify(self._on_complete, False)
                return
            if exc is not None:
                _notify(self._on_complete, False)
                outer.set_exception(exc)
                return
            _notify(self._on_complete, True)
            outer.set_result(payload.to_result())

        inner.add_done_callback(_relay)
        return outer

    def snapshots(self) -> List[WorkerSnapshot]:
        """Latest per-worker rows (from completed requests).

        In-flight requests are not reflected until they finish; counters
        within one row are internally consistent (taken atomically by the
        worker after a request).
        """
        with self._lock:
            return list(self._snapshots.values())

    def warmup(self, timeout: Optional[float] = None) -> int:
        """Spin up (up to) all workers and their engines before traffic.

        Submits one briefly-held task per worker so the pool spawns its
        full complement; each worker's initializer builds the engine.
        ``timeout`` bounds the *total* wait.  Returns the number of
        *distinct* workers that answered in time — on a loaded machine
        that may be fewer than ``workers``; stragglers finish
        bootstrapping on their first real request.  A timeout that
        expires before *any* worker answered, or a pool that breaks
        while warming, raises a :class:`~repro.errors.ServeError` naming
        the backend — never a bare futures ``TimeoutError``.
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        try:
            futures = [
                self._executor.submit(_process_warmup, 0.05)
                for _ in range(self.workers)
            ]
        except BrokenExecutor as exc:
            raise ServeError(
                f"{self.name!r} backend failed to warm up: the worker pool "
                f"is broken ({exc})"
            ) from exc
        pids = set()
        for future in futures:
            remaining = None
            if deadline is not None:
                remaining = max(deadline - time.monotonic(), 0.0)
            try:
                pids.add(future.result(timeout=remaining))
            except FuturesTimeoutError as exc:
                # (On 3.9/3.10 the futures TimeoutError is not the
                # builtin.)  Partial warmth is fine — stragglers boot on
                # their first request — but zero workers inside the
                # caller's budget deserves a clear, typed error.
                if not pids:
                    raise ServeError(
                        f"{self.name!r} backend warmup timed out after "
                        f"{timeout:g}s with no worker ready "
                        f"(workers={self.workers}); raise the timeout or "
                        "let workers boot lazily with warmup(timeout=None)"
                    ) from exc
                break
            except BrokenExecutor as exc:
                raise ServeError(
                    f"{self.name!r} backend failed to warm up: the worker "
                    f"pool broke while booting ({exc})"
                ) from exc
        return len(pids)

    def close(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)


def aggregate_snapshots(
    snapshots: List[WorkerSnapshot],
) -> Optional[WorkerSnapshot]:
    """Sum per-worker rows into one aggregate row (``None`` when empty).

    Counters add; the ``entries``/``capacity`` gauges add too (they
    answer "how much memory do the pool's caches hold overall").
    """
    if not snapshots:
        return None
    total = snapshots[0]
    for row in snapshots[1:]:
        cache = CacheStats(
            **{
                name: getattr(total.cache, name) + getattr(row.cache, name)
                for name in CacheStats.__dataclass_fields__
            }
        )
        space = SpaceCacheStats(
            **{
                name: getattr(total.space, name) + getattr(row.space, name)
                for name in SpaceCacheStats.__dataclass_fields__
            }
        )
        total = WorkerSnapshot(
            worker_id="sum",
            queries=total.queries + row.queries,
            cache=cache,
            space=space,
            # Summed like the cache gauges: "how much memory does the
            # pool hold overall" is the question the aggregate answers.
            max_rss_kb=total.max_rss_kb + row.max_rss_kb,
        )
    if len(snapshots) == 1:
        total = replace(total, worker_id=snapshots[0].worker_id)
    return total


def diff_snapshots(
    current: Optional[WorkerSnapshot], baseline: Optional[WorkerSnapshot]
) -> Optional[WorkerSnapshot]:
    """``current - baseline`` on every counter (entry gauges kept as-is).

    The backend-neutral way to report per-phase statistics: take an
    aggregate before the phase, another after, and diff.  Gauges
    (``*_entries``, ``capacity``) describe *now* and are not subtracted.
    """
    if current is None:
        return None
    if baseline is None:
        return current
    gauges = ("weight_entries", "adjacency_entries", "row_entries")
    cache = CacheStats(
        **{
            name: getattr(current.cache, name)
            - (0 if name in gauges else getattr(baseline.cache, name))
            for name in CacheStats.__dataclass_fields__
        }
    )
    space_gauges = ("entries", "capacity")
    space = SpaceCacheStats(
        **{
            name: getattr(current.space, name)
            - (0 if name in space_gauges else getattr(baseline.space, name))
            for name in SpaceCacheStats.__dataclass_fields__
        }
    )
    return WorkerSnapshot(
        worker_id=current.worker_id,
        queries=current.queries - baseline.queries,
        cache=cache,
        space=space,
        max_rss_kb=current.max_rss_kb,  # gauge: describes now
    )

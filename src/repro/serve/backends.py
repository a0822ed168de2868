"""Pluggable execution backends for :class:`~repro.serve.service.QueryService`.

Two backends share one contract (:class:`ExecutionBackend`):

- ``inline`` — no pool at all; ``submit`` runs the query on the calling
  thread and returns an already-resolved future.  The zero-concurrency
  reference the process backend must match bit-for-bit, and the default:
  under CPython's GIL a thread pool adds queueing and no compute
  (ROADMAP item 7 measured it), so concurrent clients call one inline
  service from their own threads instead;
- ``process`` — long-lived worker processes on one shared call pipe and
  one shared reply pipe, each bootstrapping a **private engine once**
  from a pickled :class:`~repro.core.engine.EngineSpec` and reusing it,
  with its own :class:`~repro.serve.cache.SemanticGraphCache` and
  predicate-space row cache, across every request it serves.  True
  multi-core parallelism; requests and results cross the boundary as
  :class:`~repro.serve.service.QueryRequest` /
  :class:`~repro.core.results.QueryResultPayload` values, each of which
  (like the :class:`WorkerSnapshot` riding on a reply) pickles as
  builtins plus one module-level rebuild function.

Results are bit-identical across backends for exact (SGQ) requests: the
engine is deterministic, caches only change cost, and a worker's engine
reads the same frozen store (a service hands its pool a shared-memory
handle) and a pickle-faithful copy of the same space/library.
TBQ requests (``deadline=``) are time-dependent by design and only
promise the paper's anytime semantics, on every backend.

Statistics flow *back* through the same seam: every backend reports
:class:`WorkerSnapshot` rows (weight-cache and space row-cache counters
per worker).  The inline backend reports one live row; the process
backend piggybacks a snapshot on each task result and keeps the latest
row per worker pid, so aggregation never needs a control round-trip
into the pool.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, fields, replace
from itertools import count
from multiprocessing.connection import wait
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Set

import multiprocessing

from repro.core.engine import EngineSpec, SemanticGraphQueryEngine, build_engine
from repro.core.results import QueryResult, QueryResultPayload
from repro.errors import PoolBrokenError, ServeError
from repro.serve.cache import SemanticGraphCache
from repro.utils.lru import CacheStats

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None

EXECUTION_BACKENDS = ("inline", "process")


def _max_rss_kb() -> int:
    """Peak RSS of the calling process in KiB (0 where unsupported).

    ``ru_maxrss`` is KiB on Linux; per-worker rows show what each worker
    holds beside the one mapped graph segment.
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

    ``worker_id`` is ``"shared"`` for the inline backend (one row for
    the service) and the worker pid for process workers.
    Counters are monotonic over the worker's lifetime; :meth:`since`
    takes a phase's.  ``max_rss_kb`` is a gauge — the reporting
    process's peak RSS when the snapshot was taken — so memory can be
    compared per worker across backends.
    """

    worker_id: str
    queries: int
    cache: CacheStats
    space: CacheStats
    max_rss_kb: int = 0

    def since(self, baseline: "WorkerSnapshot") -> "WorkerSnapshot":
        """The counters after ``baseline``; the gauges are kept."""
        return replace(
            self,
            queries=self.queries - baseline.queries,
            cache=self.cache.since(baseline.cache),
            space=self.space.since(baseline.space),
        )

    def __reduce__(self):
        """Pickle as builtins: a process worker sends one per reply."""
        return _snapshot_from_wire, (
            self.worker_id,
            self.queries,
            _cache_row(self.cache),
            _cache_row(self.space),
            self.max_rss_kb,
        )


#: CacheStats fields in declaration order: a snapshot's wire row.
_cache_row = attrgetter(*(f.name for f in fields(CacheStats)))


def _snapshot_from_wire(
    worker_id, queries, cache, space, max_rss_kb
) -> WorkerSnapshot:
    """Rebuild a :class:`WorkerSnapshot` from its pickled form."""
    return WorkerSnapshot(
        worker_id, queries, CacheStats(*cache), CacheStats(*space), max_rss_kb
    )


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

    Shared by every client thread of an inline service (one runner) and
    instantiated once per process-pool worker.
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
        engine = self.engine
        cache = engine.weight_cache
        cache_stats = (
            cache.stats if isinstance(cache, SemanticGraphCache) else CacheStats()
        )
        with self._lock:
            queries = self._queries
        return WorkerSnapshot(
            worker_id=worker_id,
            queries=queries,
            cache=cache_stats,
            space=engine.space.stats(),
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


class ThreadBackend(InlineBackend):
    """Nothing constructs this: the frozen perf ledger still names
    ``ThreadBackend.submit`` (ROADMAP 1A(g) deletes both together).  A
    subclass, not an alias, so its tracer never wraps
    ``InlineBackend.submit`` twice."""


# ----------------------------------------------------------------------
# process backend: worker side
# ----------------------------------------------------------------------

_POOL_BROKEN = "a worker process ended abruptly; the pool is not usable any more"


def _process_worker_init(spec_pickle: bytes) -> _EngineRunner:
    """Worker bootstrap: unpickle the spec, build the engine, attach caches.

    The spec arrives pre-pickled (not as a live argument) so the engine
    description crosses the boundary through one explicit, testable
    ``pickle.loads`` on *every* start method — fork included, where a raw
    argument would be silently inherited by memory instead.
    """
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
    return _EngineRunner(engine, faults=faults)


def _process_worker_main(spec_pickle: bytes, calls, replies) -> None:
    """Worker body: build the engine once, announce the pid, serve calls.

    Replies are ``(ticket, ok, body)``: ``(None, True, pid)`` announces a
    ready worker, ``(ticket, True, (payload, snapshot))`` answers a
    request — the piggybacked snapshot keeps the parent's per-worker
    statistics fresh without control messages — and ``(ticket, False,
    (exception, traceback text))`` fails one.  A bootstrap that raises
    ends the process unannounced: to the parent, a worker death.
    """
    runner = _process_worker_init(spec_pickle)
    pid = str(os.getpid())
    replies.put((None, True, pid))
    for ticket, request, submitted_wall in iter(calls.get, None):
        try:
            result = runner.execute(request, submitted_wall)
            payload = QueryResultPayload.from_result(result)
            reply = (ticket, True, (payload, runner.snapshot(worker_id=pid)))
        except Exception as exc:
            reply = (ticket, False, (exc, traceback.format_exc()))
        replies.put(reply)


class ProcessBackend(ExecutionBackend):
    """True-parallel serving over ``workers`` long-lived processes.

    Each worker bootstraps a private engine once from the pickled
    :class:`~repro.core.engine.EngineSpec` and reuses it — with its own
    weight cache and space row cache — across all requests it serves.
    Two shared pipes join the workers to the parent: ``submit`` writes
    ``(ticket, request, submitted_wall)`` on the calling thread, whichever
    worker is idle reads it, and one reader thread re-inflates each
    replied :class:`QueryResultPayload` into a :class:`QueryResult` and
    resolves the ticket's future — no thread hop in, one out.

    A worker that dies (or whose bootstrap raises) breaks the whole pool:
    every accepted and every later request fails with
    :class:`~repro.errors.PoolBrokenError` and the other workers are
    terminated — one killed inside ``calls.get()`` holds the pipe's read
    lock for ever.

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
        # a clear error, not inside a worker's bootstrap where the pool
        # just reports a broken pool.
        try:
            spec_pickle = pickle.dumps(spec)
        except Exception as exc:
            raise ServeError(
                f"EngineSpec is not picklable ({exc}); the process backend "
                "needs a picklable engine description"
            ) from exc
        context = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)  # an announcement, a break
        self._pids: Set[str] = set()
        self._snapshots: Dict[str, WorkerSnapshot] = {}
        self._tickets = count()
        self._futures: Dict[int, "Future[QueryResult]"] = {}  # accepted, unresolved
        self._backlog: deque = deque()  # accepted calls not yet on the pipe
        self._unanswered = 0  # calls on the pipe or in a worker
        self._closing = False
        self._broken = False
        self._calls = context.SimpleQueue()
        self._replies = context.SimpleQueue()
        self._processes = [
            context.Process(
                target=_process_worker_main,
                args=(spec_pickle, self._calls, self._replies),
                daemon=True,  # an interpreter exit without close() ends them
            )
            for _ in range(workers)
        ]
        for process in self._processes:
            process.start()
        self._reader = threading.Thread(
            target=self._read_replies, name="repro-serve-replies", daemon=True
        )
        self._reader.start()

    def _feed(self) -> None:
        """Write backlog calls while the pipe has room (lock held).

        At most ``workers + 1`` requests are unanswered — one per worker
        plus one a finishing worker finds without waiting for the parent —
        so the pipe stays far from full and ``submit`` never blocks on it.
        """
        while self._backlog and not self._broken:
            call = self._backlog[0]
            if call is not None:
                if self._unanswered > self.workers:
                    break
                if not self._futures[call[0]].set_running_or_notify_cancel():
                    # Cancelled while it waited here: never sent, and the
                    # request completes as a failure for accounting.
                    del self._futures[self._backlog.popleft()[0]]
                    _notify(self._on_complete, False)
                    continue
                self._unanswered += 1
            self._calls.put(self._backlog.popleft())

    def submit(self, request, submitted_wall: float) -> "Future[QueryResult]":
        future: "Future[QueryResult]" = Future()
        with self._lock:
            if self._broken:
                raise PoolBrokenError(_POOL_BROKEN)
            if self._closing:
                raise RuntimeError("cannot schedule new futures after shutdown")
            ticket = next(self._tickets)
            self._futures[ticket] = future
            self._backlog.append((ticket, request, submitted_wall))
            self._feed()
        return future

    def _read_replies(self) -> None:
        """Reader thread: resolve futures until every worker has exited."""
        # SimpleQueue offers no public handle to wait on; the standard
        # library's own pool waits on this attribute of its result queue.
        pipe = self._replies._reader
        sentinels = {process.sentinel: process for process in self._processes}
        try:
            while sentinels:
                ready = wait([pipe, *sentinels])
                if pipe in ready:
                    # Before any death: an exited worker's last reply is here.
                    self._complete(*self._replies.get())
                    continue
                for process in map(sentinels.pop, ready):
                    process.join()
                    if process.exitcode != 0 or not self._closing:
                        self._break()
        except BaseException:
            self._break()  # nobody is left to resolve them
            raise
        finally:
            self._calls.close()
            self._replies.close()

    def _complete(self, ticket: Optional[int], ok: bool, body) -> None:
        with self._ready:
            if ticket is None:
                self._pids.add(body)
                self._ready.notify_all()
                return
            future = self._futures.pop(ticket, None)
            if future is None:
                return  # written before the pool broke, read after
            self._unanswered -= 1
            if ok:
                self._snapshots[body[1].worker_id] = body[1]
            self._feed()
        _notify(self._on_complete, ok)
        if ok:
            future.set_result(body[0].to_result())
        else:
            error, remote_traceback = body
            error.__cause__ = RuntimeError(f"in a process worker:\n{remote_traceback}")
            future.set_exception(error)

    def _break(self) -> None:
        """Fail every accepted request, refuse later ones, end the workers."""
        with self._ready:
            if self._broken:
                return
            self._broken = True
            futures = list(self._futures.values())  # in submission order
            self._futures.clear()
            self._backlog.clear()
            self._ready.notify_all()
        for process in self._processes:
            process.terminate()
        error = PoolBrokenError(_POOL_BROKEN)
        for future in futures:
            _notify(self._on_complete, False)
            if future.running() or future.set_running_or_notify_cancel():
                future.set_exception(error)

    def snapshots(self) -> List[WorkerSnapshot]:
        """Latest per-worker rows (from completed requests).

        In-flight requests are not reflected until they finish; counters
        within one row are internally consistent (taken atomically by the
        worker after a request).
        """
        with self._lock:
            return list(self._snapshots.values())

    def warmup(self, timeout: Optional[float] = None) -> int:
        """Wait (at most ``timeout``) for every worker to announce its engine.

        Returns the number ready in time — on a loaded machine maybe
        fewer than ``workers``; stragglers finish booting before their
        first request.  No worker ready in time, or a pool that broke
        while booting, raises a :class:`~repro.errors.ServeError`.
        """
        with self._ready:
            self._ready.wait_for(
                lambda: self._broken or len(self._pids) == self.workers, timeout
            )
            if self._broken:
                raise ServeError(
                    f"{self.name!r} backend failed to warm up: the worker pool "
                    f"is broken ({_POOL_BROKEN})"
                )
            if not self._pids:
                raise ServeError(
                    f"{self.name!r} backend warmup timed out after "
                    f"{timeout:g}s with no worker ready "
                    f"(workers={self.workers}); raise the timeout or "
                    "let workers boot lazily with warmup(timeout=None)"
                )
            return len(self._pids)

    def close(self, wait: bool = True) -> None:
        """Drain accepted work in order, then end each worker with a ``None``."""
        with self._lock:
            if not self._closing:
                self._closing = True
                self._backlog.extend([None] * self.workers)
            self._feed()
        # The supervisor closes a broken pool from a future's callback,
        # which runs on the reader thread itself.
        if wait and threading.current_thread() is not self._reader:
            self._reader.join()

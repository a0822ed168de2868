"""Batched query serving on top of the SGQ/TBQ engine.

The engine answers one query at a time; a production deployment sees a
*workload* — many queries, often repeated, often with per-query latency
budgets.  :class:`QueryService` is the serving seam between the two:

- a pluggable **execution backend** (:mod:`repro.serve.backends`) runs
  the searches: ``inline`` (caller's thread — the reference; concurrent
  clients call it from their own threads) or ``process`` (true
  multi-core parallelism; the service publishes its one
  :class:`~repro.kg.compact.CompactGraph` into one shared-memory
  segment, and each worker attaches it, bootstraps a private engine once
  from a pickled :class:`~repro.core.engine.EngineSpec` and reuses it
  across requests — a sharded store is served inline only);
- a shared :class:`~repro.serve.cache.SemanticGraphCache` backs every
  query's semantic-graph view on the inline backend, so the
  workload amortises whole-graph weight, ``m(u)`` and hop-label rows
  across queries; process workers each own a private cache with the
  same role;
- an optional **result-level answer cache**
  (:mod:`repro.serve.answer_cache`): exact answers memoized under a
  key of the request as declared (label/alias-insensitive, order-keeping)
  with singleflight dedup, owned by the one service whose immutable store
  it answers for, front-of-process so hits skip the execution backend
  entirely;
- **per-query deadlines** map onto the existing
  :class:`~repro.core.time_bounded.TimeBoundedCoordinator` — a request
  with ``deadline=T`` runs the paper's TBQ (Algorithms 2-3) with the time
  already spent waiting in the worker queue subtracted from ``T`` (a
  deadline bounds latency, not service time), while requests without a
  deadline get exact SGQ semantics.

``submit`` returns a future; ``search_many`` is the batch convenience.
Exact (SGQ) results are bit-identical to calling ``engine.search``
sequentially on **every** backend: caches store pure
functions of the graph/space, decompositions are deterministic, worker
scheduling never reorders per-query state, and a process worker's
engine reads the same frozen store, space and library.  The
conformance matrix (``tests/test_conformance.py``) pins this: every
backend, cache state and shard layout against one oracle, and the
held-out scenario against its golden answers.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import SearchConfig
from repro.core.engine import EngineSpec, SemanticGraphQueryEngine, build_engine
from repro.core.results import QueryResult, QueryResultPayload
from repro.embedding.predicate_space import PredicateSpace
from repro.errors import ServeError
from repro.kg.compact import CompactGraph, SharedCompactGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.sharded import SHARD_STRATEGIES, ShardedGraph
from repro.kg.shm import leaked_segments
from repro.query.model import QueryEdge, QueryGraph, QueryNode
from repro.query.transform import TransformationLibrary
from repro.serve.answer_cache import (
    AnswerCache,
    AnswerCacheStats,
    EngineFingerprint,
    canonicalize,
)
from repro.serve.backends import (
    EXECUTION_BACKENDS,
    MIN_TIME_BOUND,
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    WorkerSnapshot,
    _EngineRunner,
)
from repro.serve.cache import SemanticGraphCache
from repro.serve.faults import FaultPlan
from repro.serve.resilience import (
    BackoffPolicy,
    CircuitBreaker,
    ResilienceStats,
    SupervisedBackend,
    check_supervision_limits,
)
from repro.utils.lru import CacheStats
from repro.utils.stats import finite_positive

__all__ = [
    "QueryRequest",
    "QueryService",
    "ServiceStats",
    "MIN_TIME_BOUND",
]

#: The service's own request counters, in :class:`ServiceStats` order.
_REQUEST_COUNTERS = ("submitted", "completed", "failed", "time_bounded")


class _RequestCounts:
    """A service's request counters, :data:`_REQUEST_COUNTERS` by name.

    Its own object so that a backend's ``on_complete`` is
    :meth:`record`, not a method of the service: a backend holding the
    service would make the pair a reference cycle, and a closed service
    would keep its engine and store until the next full collection.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(_REQUEST_COUNTERS, 0)

    def submitted(self, time_bounded: bool) -> None:
        with self._lock:
            self._counts["submitted"] += 1
            if time_bounded:
                self._counts["time_bounded"] += 1

    def record(self, success: bool) -> None:
        # Runs on the execution path, strictly before the request's
        # future resolves (see ExecutionBackend.on_complete).  Under
        # supervision it fires exactly once per request (final outcome),
        # never once per attempt.
        with self._lock:
            self._counts["completed" if success else "failed"] += 1

    def read(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


@dataclass(frozen=True)
class QueryRequest:
    """One unit of serving work.

    ``deadline`` (seconds) switches the request to the time-bounded TBQ
    path; ``None`` means exact SGQ.  ``pivot``/``strategy`` pass through to
    decomposition; ``tag`` is an opaque caller label echoed in errors.

    Requests are picklable, so one request value serves every execution
    backend unchanged.  A request pickles as builtins only (see
    :meth:`__reduce__`): it crosses the process seam once per call.
    """

    query: QueryGraph
    k: int = 10
    deadline: Optional[float] = None
    pivot: Optional[str] = None
    strategy: str = "min_cost"
    tag: Optional[str] = None

    def __reduce__(self):
        """The query graph as node and edge field tuples, then the options.

        The graph is rebuilt through its constructor, which declares the
        nodes and edges in the order they were declared here.
        """
        query = self.query
        return _request_from_wire, (
            tuple((node.label, node.etype, node.name) for node in query.nodes()),
            tuple(
                (edge.label, edge.source, edge.predicate, edge.target)
                for edge in query.edges()
            ),
            self.k,
            self.deadline,
            self.pivot,
            self.strategy,
            self.tag,
        )


def _request_from_wire(
    nodes, edges, k, deadline, pivot, strategy, tag
) -> QueryRequest:
    """Rebuild a :class:`QueryRequest` from its pickled form."""
    query = QueryGraph(
        [QueryNode(*node) for node in nodes], [QueryEdge(*edge) for edge in edges]
    )
    return QueryRequest(query, k, deadline, pivot, strategy, tag)


@dataclass(frozen=True)
class ServiceStats:
    """One read of a service's statistics, each part from its one counter.

    - ``submitted`` / ``completed`` / ``failed`` / ``time_bounded``: the
      service's own request counts.  A cache hit or collapsed follower
      is still submitted and completed (it just never reached the
      backend); a shed or timed-out request is also ``failed``; a
      retried request is ``completed`` or ``failed`` once, by its final
      outcome.
    - ``workers``: the backend's :class:`WorkerSnapshot` rows;
      ``queries``, ``cache`` and ``space`` sum them.  ``scope`` is
      ``"shared"`` when the rows read live shared structures
      (inline: one row, one weight cache, one space) and
      ``"per-worker-sum"`` when they are per-worker copies (process) — a
      summed hit rate describes the pool, not any one cache, and misses
      repeated once per worker are expected there.  A sharded service
      reports what an unsharded one does (one weight cache, one space).
    - ``answers``: :meth:`AnswerCache.stats
      <repro.serve.answer_cache.AnswerCache.stats>`, zeros without a
      cache.  The cache is one front-side instance whatever the backend,
      so this row is always shared; it belongs to this service alone.
    - ``resilience``: :meth:`SupervisedBackend.resilience_stats
      <repro.serve.resilience.SupervisedBackend.resilience_stats>`,
      zeros on an unsupervised service.

    Counters are monotonic over their owners' lifetimes; a phase's are
    ``after.since(before)``.
    """

    backend: str = "inline"
    scope: str = "shared"
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    time_bounded: int = 0
    workers: Tuple[WorkerSnapshot, ...] = ()
    answers: AnswerCacheStats = AnswerCacheStats()
    resilience: ResilienceStats = ResilienceStats()
    shards: Tuple = ()  # always empty: kept while the perf ledger reads it

    @property
    def workers_reporting(self) -> int:
        return len(self.workers)

    @property
    def queries(self) -> int:
        return sum(row.queries for row in self.workers)

    @property
    def cache(self) -> CacheStats:
        return sum((row.cache for row in self.workers), CacheStats())

    @property
    def space(self) -> CacheStats:
        return sum((row.space for row in self.workers), CacheStats())

    # The names the perf ledger reads, over the answer cache's own row.
    answer_hits = property(lambda self: self.answers.hits)
    answer_misses = property(lambda self: self.answers.misses)
    answer_evictions = property(lambda self: self.answers.evictions)
    singleflight_collapsed = property(
        lambda self: self.answers.singleflight_collapsed
    )

    def since(self, baseline: "ServiceStats") -> "ServiceStats":
        """The counters after ``baseline``; every gauge is kept.

        Worker rows are matched by worker id: a worker the baseline
        never saw (a rebuilt pool's) counts from zero, and one that has
        gone since drops out, taking its counts with it.
        """
        before = {row.worker_id: row for row in baseline.workers}
        return replace(
            self,
            workers=tuple(
                row.since(before[row.worker_id])
                if row.worker_id in before
                else row
                for row in self.workers
            ),
            answers=self.answers.since(baseline.answers),
            resilience=self.resilience.since(baseline.resilience),
            **{
                name: getattr(self, name) - getattr(baseline, name)
                for name in _REQUEST_COUNTERS
            },
        )

    def scope_label(self) -> str:
        if self.scope == "per-worker-sum":
            count = self.workers_reporting
            return (
                f"per-worker sum, {count} worker"
                f"{'s' if count != 1 else ''} reporting"
            )
        return "shared"

    def describe(self) -> str:
        lines = [
            f"weight cache ({self.scope_label()}): {self.cache.describe()}",
            f"space row cache: {self.space.describe()}",
        ]
        if self.answers.lookups:
            lines.append(f"answer cache (shared): {self.answers.describe()}")
        if self.resilience.events:
            lines.append(f"resilience: {self.resilience.describe()}")
        return "\n".join(lines)


class QueryService:
    """Concurrent, cache-backed front-end over one query engine.

    Built by :meth:`build`, which freezes the graph and hands the
    constructor the :class:`~repro.core.engine.EngineSpec` it made.

    Args:
        spec: the engine to serve, its store held by value (a
            ``CompactGraph`` or ``ShardedGraph``; a shared-memory handle
            is refused).  The inline backend builds its engine from it
            with a private :class:`SemanticGraphCache`; the process
            backend publishes the ``CompactGraph`` into one
            shared-memory segment and ships workers its handle
            (O(metadata) warmup, one physical graph copy pool-wide,
            bit-identical results) and refuses a ``ShardedGraph``.  The
            service owns that segment and unlinks it on :meth:`close`
            (after the pool is down) or by a finalizer if the owner
            crashes.
        backend: ``"inline"`` (default) or ``"process"``.
        workers: process-pool size (ignored by ``inline``).
        start_method: multiprocessing start method for the process
            backend (``None`` = platform default).
        supervised: wrap the backend in a
            :class:`~repro.serve.resilience.SupervisedBackend` — retries
            for retryable failures, in-place pool rebuild on
            :class:`~repro.errors.PoolBrokenError` (releasing and
            re-acquiring the shared graph lease), circuit-breaker
            fallback to an inline engine, optional hard timeout and load
            shedding.  Implied by any of
            ``fault_plan`` / ``retry_policy`` / ``hard_timeout`` /
            ``max_pending``.
        fault_plan: a :class:`~repro.serve.faults.FaultPlan` injected
            into the serving path (process workers receive it through
            the spec; the inline backend activates it in-process) for
            deterministic chaos runs.
        retry_policy: a :class:`~repro.serve.resilience.BackoffPolicy`
            overriding the default retry budget and backoff shape.
        hard_timeout: per-request wall-clock bound (seconds) on future
            resolution; fires :class:`~repro.errors.RequestTimeoutError`.
            Distinct from a TBQ ``deadline``, which budgets the search.
        max_pending: bounded admission — submissions beyond this many
            unresolved requests raise
            :class:`~repro.errors.OverloadError` instead of queueing.
        answer_cache: the capacity of this service's own result-level
            answer cache (:mod:`repro.serve.answer_cache`);
            ``None``/``0`` (default) disables it.  The cache sits
            *front-of-process*: hits and collapsed singleflight
            followers never reach the execution backend — a hit skips
            IPC on the process backend and, under supervision, consumes
            no retry budget and never counts toward ``max_pending``
            admission.  Only exact (SGQ) requests participate;
            time-bounded requests always execute.

    Use as a context manager or call :meth:`close` to release the pool.
    """

    def __init__(
        self,
        spec: EngineSpec,
        *,
        backend: str = "inline",
        workers: int = 4,
        start_method: Optional[str] = None,
        supervised: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[BackoffPolicy] = None,
        hard_timeout: Optional[float] = None,
        max_pending: Optional[int] = None,
        answer_cache: Optional[int] = None,
    ):
        # Every refusal comes before any worker, reply-reader thread or
        # shared-memory segment exists to be stranded by the raise.
        if backend not in EXECUTION_BACKENDS:
            raise ServeError(
                f"unknown execution backend {backend!r} "
                f"(expected one of {EXECUTION_BACKENDS})"
            )
        if workers < 1:
            raise ServeError(f"workers must be at least 1, got {workers}")
        if not isinstance(spec, EngineSpec) or not isinstance(
            spec.store, (CompactGraph, ShardedGraph)
        ):
            raise ServeError(
                "a service serves an EngineSpec whose store it holds by "
                "value and publishes itself; build it with QueryService.build"
            )
        if backend == "process" and isinstance(spec.store, ShardedGraph):
            raise ServeError(
                "a sharded store is served inline only: a process pool "
                "publishes and attaches one unsharded CompactGraph"
            )
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise ServeError(
                f"fault_plan must be a FaultPlan, got {type(fault_plan).__name__}"
            )
        if answer_cache is not None and (
            not isinstance(answer_cache, int) or isinstance(answer_cache, bool)
        ):
            raise ServeError(
                "answer_cache must be None or a capacity int, got "
                f"{type(answer_cache).__name__}"
            )
        self._answer_cache: Optional[AnswerCache] = (
            AnswerCache(answer_cache) if answer_cache else None
        )
        supervised = bool(
            supervised
            or fault_plan is not None
            or retry_policy is not None
            or hard_timeout is not None
            or max_pending is not None
        )
        if supervised:
            check_supervision_limits(hard_timeout, max_pending)

        self.backend_name = backend
        self.workers = workers if backend != "inline" else 1
        self._counts = _RequestCounts()
        self._lock = threading.Lock()
        self._closed = False
        self._graph_lease: Optional[SharedCompactGraph] = None
        self._supervised = supervised
        self._fault_plan = fault_plan
        self._retry_policy = (
            retry_policy if retry_policy is not None else BackoffPolicy()
        )
        self._hard_timeout = hard_timeout
        self._max_pending = max_pending
        self._breaker = CircuitBreaker() if supervised else None
        self.spec = spec

        if backend == "process":
            self.engine: Optional[SemanticGraphQueryEngine] = None
            self.cache: Optional[SemanticGraphCache] = None
            # The by-value spec is what a pool *rebuild* republishes the
            # shared segments from, and what the circuit-breaker fallback
            # builds its inline engine from; self.spec is the
            # handle-carrying variant of the current pool generation.
            self._base_spec = spec
            self._start_method = start_method
            self._fingerprint = EngineFingerprint.from_spec(spec)
            inner: ExecutionBackend = self._build_pool()
            self._backend: ExecutionBackend = (
                self._supervise(inner, rebuildable=True) if supervised else inner
            )
            return

        self.cache = SemanticGraphCache()
        self.engine = build_engine(spec, weight_cache=self.cache)
        faults = None
        if fault_plan is not None and fault_plan.active:
            # In-process injection: crashes surface as WorkerCrashError
            # (killing the only process would defeat the point).
            faults = fault_plan.activate(allow_kill=False)
        self._fingerprint = EngineFingerprint.from_engine(self.engine)
        inner = InlineBackend(
            _EngineRunner(self.engine, faults=faults),
            on_complete=None if supervised else self._counts.record,
        )
        self._backend = (
            self._supervise(inner, rebuildable=False) if supervised else inner
        )

    def _supervise(
        self, inner: ExecutionBackend, *, rebuildable: bool
    ) -> SupervisedBackend:
        return SupervisedBackend(
            inner,
            policy=self._retry_policy,
            hard_timeout=self._hard_timeout,
            max_pending=self._max_pending,
            breaker=self._breaker,
            rebuild=self._rebuild_pool if rebuildable else None,
            fallback_factory=self._build_fallback if rebuildable else None,
            on_complete=self._counts.record,
        )

    def _build_pool(self) -> ProcessBackend:
        """Construct a process pool generation from the base spec.

        Stamps the current fault plan into the worker-bound spec (so
        chaos rides the same vehicle as the engine description) and
        publishes the store into one fresh shared-memory segment,
        shipping workers its handle instead, so the pickle is
        O(metadata).  On construction failure the just-acquired lease is
        released with a stranded-segment probe — the pool never came up,
        so nobody else will.
        """
        spec = self._base_spec
        plan = self._fault_plan
        if plan is not None and plan.active:
            spec = replace(spec, fault_plan=plan)
        lease = spec.store.to_shared()
        spec = replace(spec, store=lease.handle)
        try:
            backend = ProcessBackend(
                spec,
                self.workers,
                start_method=self._start_method,
                on_complete=None if self._supervised else self._counts.record,
            )
        except BaseException:
            self._release_lease(lease)
            raise
        self._graph_lease = lease
        self.spec = spec
        return backend

    def _rebuild_pool(self) -> ProcessBackend:
        """Replace a broken pool in place (supervisor callback).

        Runs under the supervisor's pool lock, strictly after the broken
        pool's shutdown was initiated: release the old shared-memory
        lease (probing that its segment really left ``/dev/shm``),
        advance the fault plan one epoch so a chaos plan does not crash
        the replacement pool forever, and re-acquire exactly one fresh
        lease via :meth:`_build_pool`.
        """
        lease, self._graph_lease = self._graph_lease, None
        if lease is not None:
            self._release_lease(lease)
        if self._fault_plan is not None:
            self._fault_plan = self._fault_plan.next_epoch()
        return self._build_pool()

    @staticmethod
    def _release_lease(lease: SharedCompactGraph) -> None:
        """Release an owned shm lease, asserting its segment vanished."""
        lease.close()
        if lease.name in leaked_segments():
            raise ServeError(
                f"shared-memory segment {lease.name!r} still present in "
                "/dev/shm after its lease was released — refusing to "
                "continue with a leak"
            )

    def _build_fallback(self) -> ExecutionBackend:
        """Degraded-mode backend: an inline engine in this process.

        Built from the pre-share base spec with the fault plan stripped
        (the fallback exists to survive chaos, not to re-inject it).
        """
        spec = replace(self._base_spec, fault_plan=None)
        engine = build_engine(spec, weight_cache=SemanticGraphCache())
        return InlineBackend(_EngineRunner(engine), on_complete=None)

    # ------------------------------------------------------------------
    # construction conveniences
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        kg: KnowledgeGraph,
        space: PredicateSpace,
        library: Optional[TransformationLibrary] = None,
        config: Optional[SearchConfig] = None,
        *,
        backend: str = "inline",
        workers: int = 4,
        shards: int = 0,
        shard_strategy: str = "hash",
        compact: bool = True,
        shared_graph: Optional[bool] = None,
        **kwargs,
    ) -> "QueryService":
        """Freeze ``kg`` once and serve it, in one call.

        Every query is served off the frozen CSR kernel
        (:mod:`repro.core.compact_view`); ``backend``/``workers`` pick
        the execution backend and pool size, and a process pool reads
        the store from shared memory.  ``shards=N`` partitions the frozen
        kernel into N entity-owned shards (:mod:`repro.kg.sharded`)
        served through the rank-merged view — one row source for the
        shard set in the engine's cache — on the inline backend only (a
        process pool is refused with a :class:`~repro.errors.ServeError`);
        ``shard_strategy`` picks the partitioner.  Exact results are
        identical under every combination.  The
        paper's lazy view and the reference kernels are test oracles,
        built as a :class:`SemanticGraphQueryEngine` and never served.

        ``compact`` and ``shared_graph`` say nothing: they are accepted
        only as the frozen perf ledger spells them (``compact=True``, and
        ``shared_graph=True`` on the process backend).
        """
        # Kept only until ROADMAP 1A(f) stops the frozen ledger spelling them.
        if compact is not True or shared_graph not in (None, True) or (
            shared_graph and backend != "process"
        ):
            raise ServeError(
                "a service always serves a frozen store, and the process "
                "backend always reads it from shared memory; drop compact= "
                "and shared_graph="
            )
        if shards < 0:
            raise ServeError(f"shards must be non-negative, got {shards}")
        if shards and shard_strategy not in SHARD_STRATEGIES:
            raise ServeError(
                f"unknown shard strategy {shard_strategy!r} "
                f"(expected one of {SHARD_STRATEGIES})"
            )
        # Freeze / partition once in the parent: every backend (and every
        # process worker, via the shm handle) serves the same store
        # instead of redoing the O(V+E) work, and reads nothing else —
        # growing ``kg`` afterwards changes no answer.
        store = (
            ShardedGraph.build(kg, shards, strategy=shard_strategy)
            if shards
            else CompactGraph.freeze(kg)
        )
        spec = EngineSpec(store, space, library, config)
        return cls(spec, backend=backend, workers=workers, **kwargs)

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(
        self,
        query: QueryGraph,
        k: int = 10,
        *,
        deadline: Optional[float] = None,
        pivot: Optional[str] = None,
        strategy: str = "min_cost",
        tag: Optional[str] = None,
    ) -> "Future[QueryResult]":
        """Enqueue one query; returns a future resolving to its result."""
        return self.submit_request(
            QueryRequest(
                query=query,
                k=k,
                deadline=deadline,
                pivot=pivot,
                strategy=strategy,
                tag=tag,
            )
        )

    def submit_request(self, request: QueryRequest) -> "Future[QueryResult]":
        if request.deadline is not None and not finite_positive(request.deadline):
            raise ServeError(f"deadline must be positive, got {request.deadline}")
        # The backend submit happens under the same lock close() takes
        # before shutting the backend down, so a closed-check that passes
        # can never race into a shut-down pool.
        with self._lock:
            if self._closed:
                raise ServeError("QueryService is closed")
            # Count before executing: the inline backend completes the
            # request inside submit, and `submitted` must already cover it
            # when its completion is recorded.
            self._counts.submitted(request.deadline is not None)
            # TBQ results are clock-dependent (anytime semantics): they
            # bypass the answer cache unconditionally.
            if self._answer_cache is not None and request.deadline is None:
                return self._submit_cached(request)
            try:
                return self._backend.submit(request, time.time())
            except BaseException:
                # The request never entered the pool (e.g. a broken
                # process pool): no on_complete will ever fire, so settle
                # the accounting here or ``submitted`` never balances.
                self._counts.record(False)
                raise

    def _submit_cached(self, request: QueryRequest) -> "Future[QueryResult]":
        """Front-side answer-cache path for one exact request.

        Runs under ``self._lock``.  Hits and singleflight followers are
        served without touching the execution backend at all — so on
        the process backend a hit skips IPC, and under supervision a
        hit can never be shed by ``max_pending`` admission or spend
        retry budget (it never becomes an attempt).
        """
        cache = self._answer_cache
        assert cache is not None
        try:
            key = canonicalize(request, self._fingerprint)
        except Exception as exc:
            # A request no key can be built for (an undeclared pivot)
            # fails the way the backend would fail it: counted, and on
            # its future, so the counts balance and the error type matches
            # an uncached service's.
            self._counts.record(False)
            failed: "Future[QueryResult]" = Future()
            failed.set_exception(exc)
            return failed
        state, value = cache.acquire(key)  # counts the hit, miss or follower
        if state == "hit":
            self._counts.record(True)
            future: "Future[QueryResult]" = Future()
            future.set_result(value.to_result())
            return future
        if state == "follow":
            # Outcome is recorded when the leader settles the flight.
            return value
        flight = value
        try:
            inner = self._backend.submit(request, time.time())
        except BaseException as exc:
            self._counts.record(False)
            followers, _payload, _error = cache.complete(flight, error=exc)
            for follower in followers:
                self._counts.record(False)
                follower.set_exception(exc)
            raise
        inner.add_done_callback(lambda fut: self._settle_flight(flight, fut))
        return inner

    def _settle_flight(self, flight, fut: "Future[QueryResult]") -> None:
        """Leader completion: cache the payload, resolve the followers.

        Runs as a done-callback on the leader's backend future — i.e.
        after the leader's own outcome was recorded by the backend (or
        synchronously inside ``submit`` on the inline backend).  Each
        follower is a distinct submitted request, so it gets its own
        completion recorded before its future resolves, preserving the
        completion-before-resolution ordering every backend guarantees.
        """
        cache = self._answer_cache
        assert cache is not None
        try:
            error = fut.exception()
        except BaseException as exc:  # pragma: no cover - cancelled leader
            error = exc
        if error is None:
            payload = QueryResultPayload.from_result(fut.result())
            followers, payload, _ = cache.complete(flight, payload=payload)
            for follower in followers:
                self._counts.record(True)
                follower.set_result(payload.to_result())
        else:
            followers, _, _ = cache.complete(flight, error=error)
            for follower in followers:
                self._counts.record(False)
                follower.set_exception(error)

    def search_many(
        self,
        queries: Sequence[Union[QueryRequest, QueryGraph]],
        k: int = 10,
        *,
        deadline: Optional[float] = None,
    ) -> List[QueryResult]:
        """Run a batch to completion; results in submission order.

        Bare :class:`QueryGraph` items pick up ``k``/``deadline``;
        :class:`QueryRequest` items keep their own parameters.
        """
        futures = [
            self.submit_request(self._coerce(item, k=k, deadline=deadline))
            for item in queries
        ]
        return [future.result() for future in futures]

    @staticmethod
    def _coerce(
        item: Union[QueryRequest, QueryGraph], k: int, deadline: Optional[float]
    ) -> QueryRequest:
        if isinstance(item, QueryRequest):
            return item
        return QueryRequest(query=item, k=k, deadline=deadline)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> ServiceStats:
        """Every counter now, each read from its owner (see
        :class:`ServiceStats`); diff two with :meth:`ServiceStats.since`."""
        backend = self._backend
        counts = self._counts.read()
        per_worker = backend.stats_scope == "per-worker"
        return ServiceStats(
            backend=self.backend_name,
            scope="per-worker-sum" if per_worker else "shared",
            workers=tuple(backend.snapshots()),
            answers=(
                self._answer_cache.stats()
                if self._answer_cache is not None
                else AnswerCacheStats()
            ),
            resilience=(
                backend.resilience_stats()
                if isinstance(backend, SupervisedBackend)
                else ResilienceStats()
            ),
            **counts,
        )

    serving_stats = stats_snapshot  # the name the perf ledger reads

    def warmup(self, timeout: Optional[float] = None) -> int:
        """Make the first real request pay no construction latency.

        For the process backend this spins up (up to) all workers and
        builds their engines; the inline backend is warm by
        construction.  Returns the number of workers confirmed ready.
        """
        return self._backend.warmup(timeout=timeout)

    def worker_snapshots(self) -> List[WorkerSnapshot]:
        """Per-worker statistics rows straight from the backend."""
        return self._backend.snapshots()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Reject new work and (optionally) wait for in-flight queries."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # Outside the lock (a draining close must not block submitters
        # into a lock wait; they observe `_closed` and get a clean
        # ServeError), but strictly after `_closed` is set: any submit
        # that already passed its closed check finished its
        # backend.submit while it held the lock, so the backend never
        # sees a submit after shutdown.
        self._backend.close(wait=wait)
        # Strictly after the pool is down: unlinking first would strand a
        # worker that had not attached yet (a worker attaches while it
        # boots).  Workers that are already attached only hold
        # mappings, which die with their processes.  Released through the
        # leak probe, which asserts the segment left /dev/shm.
        lease, self._graph_lease = self._graph_lease, None
        if lease is not None:
            self._release_lease(lease)

    @property
    def graph_lease(self) -> Optional[SharedCompactGraph]:
        """The shared-memory graph lease (``None`` off the process
        backend).

        Under supervision the lease changes identity across pool
        rebuilds (release old, publish fresh); read it anew rather than
        caching the object.
        """
        return self._graph_lease

    @property
    def answer_cache(self) -> Optional[AnswerCache]:
        """The front-side answer cache (``None`` when disabled)."""
        return self._answer_cache

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

"""Supervision for execution backends: retries, rebuilds, shedding.

A healthy pool keeps the TBQ latency promise; this module keeps the
*service* alive when the pool is not healthy.  :class:`SupervisedBackend`
wraps any :class:`~repro.serve.backends.ExecutionBackend` and layers on,
in order of escalation:

1. **Retries** — failures classified retryable by the taxonomy in
   :mod:`repro.errors` (queries are read-only, hence idempotent) are
   re-submitted with capped exponential backoff whose jitter comes from
   a seeded stream (:class:`BackoffPolicy`), so a chaos run's retry
   timing is bit-reproducible.
2. **Pool rebuild** — a :class:`~repro.errors.PoolBrokenError` from the
   process backend means a worker died and took the whole pool with it;
   the supervisor rebuilds the pool in place through a caller-supplied
   ``rebuild`` callable (the service's, which also releases and
   re-acquires the shared-memory graph lease so ``/dev/shm`` stays
   leak-free) and replays the victims onto the new pool.
3. **Circuit breaker + fallback** — when the pool breaks repeatedly
   (``threshold`` consecutive breaks), the breaker *opens* and requests
   ride a caller-supplied inline ``fallback_factory`` backend instead of
   thrashing rebuilds; after ``cooldown_seconds`` the breaker goes
   *half-open* and the next pool-bound request probes with a fresh
   rebuild — success closes the circuit.
4. **Hard timeout** — a per-request wall-clock bound on future
   resolution, distinct from a TBQ deadline (which budgets the *search*
   and still returns an anytime answer): the hard timeout is the
   backstop against a hung worker, and fires
   :class:`~repro.errors.RequestTimeoutError`.
5. **Load shedding** — a bounded admission count; submissions beyond
   ``max_pending`` unresolved requests fail fast with
   :class:`~repro.errors.OverloadError` instead of growing the queue
   without bound.

The wrapper honours the :class:`ExecutionBackend` contract, including
the ``on_complete``-before-resolution accounting ordering — and fires it
exactly once per request regardless of how many attempts ran, so the
wrapped inner backends are constructed with ``on_complete=None``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.errors import (
    OverloadError,
    PoolBrokenError,
    RequestTimeoutError,
    RetryableServeError,
    RetryExhaustedError,
    ServeError,
    WorkerCrashError,
)
from repro.serve.backends import ExecutionBackend, WorkerSnapshot, _notify
from repro.utils.rng import derive_rng
from repro.utils.stats import finite_positive

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "ResilienceStats",
    "SupervisedBackend",
]


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with seeded jitter.

    ``schedule(token)`` returns the full delay sequence for one request
    up front: attempt ``i`` retries after
    ``min(base * multiplier**i, cap) * (1 - jitter * u_i)`` seconds,
    where ``u_i`` is drawn from ``derive_rng(seed, "backoff:" + token)``.
    Same (policy, token) → bit-identical delays, which is what makes
    chaos replays reproducible; distinct tokens de-synchronise retry
    storms the way jitter is supposed to.
    """

    retries: int = 2
    base_seconds: float = 0.01
    cap_seconds: float = 0.25
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ServeError(f"retries must be >= 0, got {self.retries}")
        if not finite_positive(self.base_seconds, allow_zero=True):
            raise ServeError(f"base_seconds must be >= 0, got {self.base_seconds}")
        if not (
            finite_positive(self.cap_seconds, allow_zero=True)
            and self.cap_seconds >= self.base_seconds
        ):
            raise ServeError(
                f"cap_seconds ({self.cap_seconds}) must be >= base_seconds "
                f"({self.base_seconds})"
            )
        if self.multiplier < 1.0:
            raise ServeError(f"multiplier must be >= 1, got {self.multiplier}")
        if not (0.0 <= self.jitter <= 1.0):
            raise ServeError(f"jitter must be in [0, 1], got {self.jitter}")

    def schedule(self, token: str = "") -> Tuple[float, ...]:
        """Deterministic backoff delays (seconds) for each retry attempt."""
        if self.retries == 0:
            return ()
        rng = derive_rng(self.seed, f"backoff:{token}")
        draws = rng.random(self.retries)
        delays = []
        for attempt in range(self.retries):
            raw = min(self.base_seconds * self.multiplier**attempt, self.cap_seconds)
            delays.append(raw * (1.0 - self.jitter * float(draws[attempt])))
        return tuple(delays)


class CircuitBreaker:
    """Consecutive-break counter with open/half-open/closed states.

    - ``closed``: pool-bound traffic flows; every break increments the
      consecutive-break count, every pool success zeroes it.
    - ``open``: entered after ``threshold`` consecutive breaks; pool
      traffic is refused (``allow_pool() == False``) so requests ride
      the fallback instead of thrashing rebuilds.
    - ``half-open``: entered when ``allow_pool()`` is consulted after
      ``cooldown_seconds`` in ``open``; pool traffic is allowed again as
      a probe.  A success closes the circuit, another break re-opens it
      with a fresh cooldown.
    """

    def __init__(self, threshold: int = 3, cooldown_seconds: float = 5.0):
        if threshold < 1:
            raise ServeError(f"breaker threshold must be >= 1, got {threshold}")
        if not finite_positive(cooldown_seconds, allow_zero=True):
            raise ServeError(
                f"breaker cooldown must be >= 0, got {cooldown_seconds}"
            )
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self._lock = threading.Lock()
        self._breaks = 0
        self._state = "closed"
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def record_break(self) -> None:
        with self._lock:
            self._breaks += 1
            if self._breaks >= self.threshold:
                self._state = "open"
                self._opened_at = time.monotonic()

    def record_pool_success(self) -> None:
        with self._lock:
            self._breaks = 0
            self._state = "closed"

    def allow_pool(self) -> bool:
        with self._lock:
            if self._state == "closed":
                return True
            if time.monotonic() - self._opened_at >= self.cooldown_seconds:
                self._state = "half-open"
                return True
            return False


_EVENT_FIELDS = {
    "retry": "retries",
    "pool_rebuild": "pool_rebuilds",
    "shed": "shed",
    "crash": "crashes",
    "timeout": "timeouts",
    "fallback": "fallbacks",
}


@dataclass(frozen=True)
class ResilienceStats:
    """Supervision counters (monotonic over the supervisor's lifetime).

    ``rebuild_seconds`` records each pool rebuild's wall-clock cost (the
    recovery latency).
    ``breaker_state`` is a gauge sampled when the snapshot was taken.
    """

    retries: int = 0
    pool_rebuilds: int = 0
    shed: int = 0
    crashes: int = 0
    timeouts: int = 0
    fallbacks: int = 0
    rebuild_seconds: Tuple[float, ...] = ()
    breaker_state: str = "closed"

    @property
    def events(self) -> int:
        """Every supervision event counted, of any kind."""
        return sum(getattr(self, name) for name in _EVENT_FIELDS.values())

    def since(self, baseline: "ResilienceStats") -> "ResilienceStats":
        """The events after ``baseline``; the breaker state is kept."""
        return replace(
            self,
            rebuild_seconds=self.rebuild_seconds[len(baseline.rebuild_seconds):],
            **{
                name: getattr(self, name) - getattr(baseline, name)
                for name in _EVENT_FIELDS.values()
            },
        )

    def describe(self) -> str:
        return (
            f"{self.retries} retries, {self.pool_rebuilds} pool rebuilds, "
            f"{self.crashes} crashes, {self.shed} shed, "
            f"{self.timeouts} timeouts, {self.fallbacks} fallback queries"
        )


def check_supervision_limits(
    hard_timeout: Optional[float], max_pending: Optional[int]
) -> None:
    """Refuse a ``hard_timeout`` / ``max_pending`` no supervisor can honour."""
    if hard_timeout is not None and not finite_positive(hard_timeout):
        raise ServeError(f"hard_timeout must be > 0, got {hard_timeout}")
    if max_pending is not None and max_pending < 1:
        raise ServeError(f"max_pending must be >= 1, got {max_pending}")


class SupervisedBackend(ExecutionBackend):
    """Retry/rebuild/shed supervision over any execution backend.

    Args:
        inner: the backend to supervise.  Must have been constructed
            with ``on_complete=None`` — the supervisor owns accounting
            and fires its own ``on_complete`` exactly once per request.
        policy: retry/backoff policy (default :class:`BackoffPolicy`).
        hard_timeout: per-request wall-clock bound (seconds) on future
            resolution; ``None`` disables it.
        max_pending: bounded admission — submissions beyond this many
            unresolved requests raise :class:`~repro.errors.OverloadError`;
            ``None`` disables shedding.
        breaker: circuit breaker governing pool-vs-fallback routing
            (only consulted when ``fallback_factory`` is given).
        rebuild: zero-arg callable returning a fresh inner backend,
            invoked (serialised under the pool lock) when the current
            one breaks; ``None`` means the inner backend cannot break
            structurally (inline).
        fallback_factory: zero-arg callable building the degraded-mode
            backend (typically inline in the parent process), built
            lazily the first time the circuit opens.  :meth:`close`
            drops it and ``rebuild``.
        on_complete: the service's accounting hook; invoked exactly once
            per request, strictly before the returned future resolves.

    The supervisor is the one counter of its events (retries, rebuilds,
    shed, crashes, timeouts, fallbacks): :meth:`resilience_stats` is
    where a service snapshot reads them.
    """

    stats_scope = "shared"  # overridden per-instance from the inner backend

    def __init__(
        self,
        inner: ExecutionBackend,
        *,
        policy: Optional[BackoffPolicy] = None,
        hard_timeout: Optional[float] = None,
        max_pending: Optional[int] = None,
        breaker: Optional[CircuitBreaker] = None,
        rebuild: Optional[Callable[[], ExecutionBackend]] = None,
        fallback_factory: Optional[Callable[[], ExecutionBackend]] = None,
        on_complete: Optional[Callable[[bool], None]] = None,
    ):
        check_supervision_limits(hard_timeout, max_pending)
        self._inner = inner
        self._policy = policy if policy is not None else BackoffPolicy()
        self._hard_timeout = hard_timeout
        self._max_pending = max_pending
        self._breaker = breaker if breaker is not None else CircuitBreaker()
        self._rebuild = rebuild
        self._fallback_factory = fallback_factory
        self._fallback: Optional[ExecutionBackend] = None
        self._on_complete = on_complete
        self.name = f"supervised[{inner.name}]"
        self.stats_scope = inner.stats_scope
        self.workers = getattr(inner, "workers", 1)
        # One lock serialises everything structural: which inner backend
        # is current, whether it is broken, and rebuilds.  Submits take
        # it briefly; a rebuild holds it so concurrent retries queue up
        # behind the recovery instead of racing into a dead pool.
        self._pool_lock = threading.RLock()
        self._generation = 0
        self._broken = False
        self._closed = False
        self._admission_lock = threading.Lock()
        self._pending = 0
        self._seq = 0
        self._stats = ResilienceStats()
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # events + stats
    # ------------------------------------------------------------------
    def _event(self, kind: str) -> None:
        name = _EVENT_FIELDS[kind]
        with self._stats_lock:
            self._stats = replace(
                self._stats, **{name: getattr(self._stats, name) + 1}
            )

    def resilience_stats(self) -> ResilienceStats:
        """The supervision counters now, with the breaker state sampled."""
        with self._stats_lock:
            stats = self._stats
        return replace(stats, breaker_state=self._breaker.state)

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _submit_to_pool(self, request, submitted_wall: float):
        """Submit to the current pool; returns (future, generation).

        Runs under the pool lock so a submit can never race a rebuild
        into a half-dead executor.  A known-broken pool is rebuilt first
        (this is the half-open probe path when the circuit re-allows
        pool traffic); rebuild failures surface as retryable
        :class:`~repro.errors.WorkerCrashError` so the request can fall
        back or exhaust its budget cleanly.
        """
        with self._pool_lock:
            if self._closed:
                raise ServeError("supervised backend is closed")
            if self._broken:
                try:
                    self._rebuild_locked()
                except BaseException as exc:
                    self._breaker.record_break()
                    err = WorkerCrashError(f"pool rebuild failed: {exc}")
                    err.__cause__ = exc
                    raise err
            generation = self._generation
            try:
                future = self._inner.submit(request, submitted_wall)
            except BaseException as exc:
                if isinstance(exc, PoolBrokenError):
                    self._note_broken(generation)
                raise
        return future, generation

    def _note_broken(self, generation: int) -> None:
        """Record a pool break observed on ``generation`` (idempotent).

        Only the first report of a given break counts: later failures
        from the same dead pool arrive with a stale generation (or find
        ``_broken`` already set) and are ignored, so one worker death is
        one crash, one breaker strike and at most one rebuild.
        """
        with self._pool_lock:
            if self._closed:
                return
            if self._broken or generation != self._generation:
                return
            self._event("crash")
            self._breaker.record_break()
            self._broken = True
            if self._rebuild is None:
                return
            if self._fallback_factory is not None and not self._breaker.allow_pool():
                # Circuit open: requests ride the fallback; the rebuild
                # is deferred to the half-open probe in _submit_to_pool.
                return
            try:
                self._rebuild_locked()
            except Exception:
                # Rebuild failed; _broken stays set and the next
                # pool-bound submit retries the recovery.
                self._breaker.record_break()

    def _rebuild_locked(self) -> None:
        if self._rebuild is None:
            self._broken = False
            return
        start = time.monotonic()
        try:
            self._inner.close(wait=False)
        except Exception:
            pass  # a broken executor may refuse a clean shutdown
        self._inner = self._rebuild()  # raises → _broken stays set
        self._generation += 1
        self._broken = False
        elapsed = time.monotonic() - start
        with self._stats_lock:
            self._stats = replace(
                self._stats, rebuild_seconds=self._stats.rebuild_seconds + (elapsed,)
            )
        self._event("pool_rebuild")

    def _ensure_fallback(self) -> ExecutionBackend:
        with self._pool_lock:
            if self._closed:
                raise ServeError("supervised backend is closed")
            if self._fallback is None:
                assert self._fallback_factory is not None
                self._fallback = self._fallback_factory()
            return self._fallback

    def _request_finished(self, success: bool) -> None:
        with self._admission_lock:
            self._pending -= 1
        _notify(self._on_complete, success)

    # ------------------------------------------------------------------
    # ExecutionBackend contract
    # ------------------------------------------------------------------
    def submit(self, request, submitted_wall: float) -> "Future":
        with self._admission_lock:
            if self._max_pending is not None and self._pending >= self._max_pending:
                pending = self._pending
                shed = True
            else:
                self._pending += 1
                self._seq += 1
                seq = self._seq
                shed = False
        if shed:
            self._event("shed")
            raise OverloadError(
                f"admission queue full on backend {self._inner.name!r} "
                f"({pending} requests in flight >= max_pending="
                f"{self._max_pending}); request shed"
            )
        outer: "Future" = Future()
        token = f"{request.tag or 'q'}#{seq}"
        _SupervisedRequest(self, request, submitted_wall, outer, token).begin()
        return outer

    def snapshots(self) -> List[WorkerSnapshot]:
        with self._pool_lock:
            inner = self._inner
            fallback = self._fallback
        rows = list(inner.snapshots())
        if fallback is not None:
            rows.extend(
                replace(row, worker_id="fallback") for row in fallback.snapshots()
            )
        return rows

    def warmup(self, timeout: Optional[float] = None) -> int:
        with self._pool_lock:
            inner = self._inner
        return inner.warmup(timeout=timeout)

    def close(self, wait: bool = True) -> None:
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            inner = self._inner
            fallback = self._fallback
            # A closed supervisor never rebuilds or falls back, and these
            # are the owner's methods: holding them would keep the owner
            # alive through a cycle after it closed.
            self._rebuild = self._fallback_factory = None
        inner.close(wait=wait)
        if fallback is not None:
            fallback.close(wait=wait)


class _SupervisedRequest:
    """Per-request supervision state machine.

    Driven entirely by done-callbacks and daemon timers: ``_launch``
    picks a target (pool, or fallback when the circuit is open) and
    submits an attempt; ``_resolve_failure`` classifies, maybe notes a
    pool break, and either schedules a retry or finishes; the hard
    timeout races all of it and wins at most once — ``_finish`` is
    guarded so exactly one outcome reaches the outer future and the
    accounting hook.
    """

    def __init__(
        self,
        backend: SupervisedBackend,
        request,
        submitted_wall: float,
        outer: "Future",
        token: str,
    ):
        self._b = backend
        self.request = request
        self.submitted_wall = submitted_wall
        self.outer = outer
        self._schedule = backend._policy.schedule(token)
        self._attempt = 0
        self._flock = threading.Lock()
        self._finished = False
        self._timer: Optional[threading.Timer] = None

    def begin(self) -> None:
        b = self._b
        if b._hard_timeout is not None:
            timer = threading.Timer(b._hard_timeout, self._on_timeout)
            timer.daemon = True
            with self._flock:
                self._timer = timer
            timer.start()
        self._launch()

    def _launch(self) -> None:
        with self._flock:
            if self._finished:
                return
        b = self._b
        use_pool = b._fallback_factory is None or b._breaker.allow_pool()
        if use_pool:
            try:
                future, generation = b._submit_to_pool(
                    self.request, self.submitted_wall
                )
            except BaseException as exc:
                # _submit_to_pool already noted any pool break.
                self._resolve_failure(exc, generation=-1, note_break=False)
                return
            future.add_done_callback(
                lambda f: self._on_done(f, generation, used_pool=True)
            )
            return
        try:
            fallback = b._ensure_fallback()
        except BaseException as exc:
            self._finish(False, error=exc)
            return
        b._event("fallback")
        future = fallback.submit(self.request, self.submitted_wall)
        future.add_done_callback(lambda f: self._on_done(f, -1, used_pool=False))

    def _on_done(self, future: "Future", generation: int, used_pool: bool) -> None:
        exc = future.exception()
        if exc is None:
            if used_pool:
                self._b._breaker.record_pool_success()
            self._finish(True, result=future.result())
            return
        self._resolve_failure(exc, generation=generation, note_break=used_pool)

    def _resolve_failure(
        self, exc: BaseException, *, generation: int, note_break: bool
    ) -> None:
        b = self._b
        with self._flock:
            if self._finished:
                return
        if note_break and isinstance(exc, PoolBrokenError):
            b._note_broken(generation)
        elif isinstance(exc, WorkerCrashError) and exc.__cause__ is None:
            # An injected crash on the inline backend: count the
            # "worker death" even though no pool broke.  (Rebuild-failure
            # wrappers carry a __cause__ and were already counted.)
            b._event("crash")
        if isinstance(exc, RetryableServeError):
            if self._attempt < len(self._schedule):
                delay = self._schedule[self._attempt]
                self._attempt += 1
                b._event("retry")
                if delay > 0:
                    timer = threading.Timer(delay, self._launch)
                    timer.daemon = True
                    timer.start()
                else:
                    self._launch()
                return
            tag = f" {self.request.tag!r}" if self.request.tag else ""
            wrapped = RetryExhaustedError(
                f"request{tag} still failing after {len(self._schedule) + 1} "
                f"attempts: {exc}"
            )
            wrapped.__cause__ = exc
            exc = wrapped
        self._finish(False, error=exc)

    def _on_timeout(self) -> None:
        tag = f" {self.request.tag!r}" if self.request.tag else ""
        self._finish(
            False,
            error=RequestTimeoutError(
                f"request{tag} exceeded the serving hard timeout "
                f"({self._b._hard_timeout:g}s) on backend "
                f"{self._b._inner.name!r}; this bounds future resolution "
                "and is distinct from a TBQ deadline"
            ),
            pre_resolve=lambda: self._b._event("timeout"),
        )

    def _finish(self, success: bool, *, result=None, error=None, pre_resolve=None) -> bool:
        """Settle the request exactly once; returns whether this call won."""
        with self._flock:
            if self._finished:
                return False
            self._finished = True
            timer, self._timer = self._timer, None
        if timer is not None:
            timer.cancel()
        if pre_resolve is not None:
            pre_resolve()
        cancelled = not self.outer.set_running_or_notify_cancel()
        # Accounting strictly before the outer future resolves; a
        # caller-cancelled request completes as a failure (the result,
        # if any, is dropped) — as ProcessBackend counts a cancelled one.
        self._b._request_finished(success and not cancelled)
        if cancelled:
            return True
        if success:
            self.outer.set_result(result)
        else:
            self.outer.set_exception(error)
        return True

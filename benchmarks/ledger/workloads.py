"""The six workloads, the load loops that drive them, and the end-to-end
metrics computed from what came back.

Load comes from this one process with at most two client threads (the
sizing box has two cores).  Closed loops send a client's next request when
the previous one returned; the open loop sends on a seeded Poisson schedule
whether or not anything returned, and times each request from when it was
*due*.  All times are read on the reference-speed clock (:mod:`clock`).
"""

from __future__ import annotations

import resource
import threading
import time
from concurrent.futures import wait as wait_futures
from contextlib import nullcontext
from itertools import chain, islice
from dataclasses import dataclass
from types import SimpleNamespace
from typing import (
    Callable, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from . import inputs
from .clock import VirtualClock

#: Set-up is timed this many times per run; the median is reported.
SETUP_CYCLES = 21


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload.  ``limit_ms`` is the fixed latency limit behind
    ``within_limit_share``: the calibrated p95 rounded up to two figures,
    or 1.1 x the deadline where the request carries one."""

    name: str
    why: str
    loop: str
    clients: int
    service: Dict[str, object]
    limit_ms: float
    deadline_ms: Optional[float] = None
    zipf_s: Optional[float] = None
    zipf_unit: int = 1000
    rate: Optional[float] = None

    @property
    def exact(self) -> bool:
        return self.deadline_ms is None

    @property
    def process_backend(self) -> bool:
        return self.service.get("backend") == "process"


_INLINE = {"backend": "inline", "compact": True}
_PROCESS_SHM = {
    "backend": "process", "workers": 2, "compact": True, "shared_graph": True,
}

WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="exact-inline",
        why="closed loop, 1 client, inline backend: core (rows, vectorized "
            "A*, TA) does nearly all the work, so a kernel change must show here",
        loop="closed", clients=1, service=dict(_INLINE), limit_ms=38.0,
    ),
    WorkloadSpec(
        name="exact-process-shm",
        why="same queries, 2 clients over 2 process workers on a shared-memory "
            "graph: adds pickling, pool dispatch and shm attach; the gap to "
            "exact-inline prices serve.backends and kg.shm",
        loop="closed", clients=2, service=dict(_PROCESS_SHM), limit_ms=42.0,
    ),
    WorkloadSpec(
        name="exact-sharded4",
        why="inline over 4 hash shards: the per-call rank merge and the "
            "reference A* it forces do the work, the vectorized kernel none; "
            "a kernel change predicts no change here",
        loop="closed", clients=1,
        service=dict(_INLINE, shards=4, shard_strategy="hash"),
        limit_ms=84.0,
    ),
    WorkloadSpec(
        name="zipf-cached",
        why="Zipf(1.1) draws over the pool through a 64-entry answer cache "
            "smaller than the working set: p50 is the hit path, p95 and qps "
            "the miss path, evictions occur",
        loop="closed", clients=1, service=dict(_INLINE, answer_cache=64),
        limit_ms=15.0, zipf_s=1.1,
    ),
    WorkloadSpec(
        name="tbq-bounded",
        why="every request carries a 20 ms bound: harvest-on-generate, time "
            "checks and bounded TA; answer_recall is the quality paid for the "
            "bounded wait",
        loop="closed", clients=1, service=dict(_INLINE), limit_ms=22.0,
        deadline_ms=20.0,
    ),
    WorkloadSpec(
        name="open-poisson",
        why="open loop, Poisson 80/s (half of closed-loop capacity) over 2 "
            "process workers, timed from the scheduled arrival: the only "
            "workload with queueing, so a stall taxes later requests",
        loop="open", clients=1, service=dict(_PROCESS_SHM), limit_ms=52.0,
        rate=80.0,
    ),
)

BY_NAME: Dict[str, WorkloadSpec] = {spec.name: spec for spec in WORKLOADS}


# ----------------------------------------------------------------------
# request sequences
# ----------------------------------------------------------------------

def zipf_rank_order(pool: inputs.Pool) -> List[int]:
    """Pool index at each popularity rank; fixed per pool."""
    rng = np.random.default_rng([pool.pool_seed, 0x5A1F])
    return [int(i) for i in rng.permutation(len(pool))]


def request_units(
    spec: WorkloadSpec, pool: inputs.Pool, seed: int
) -> Iterator[List[int]]:
    """Endless units of pool indexes.  A unit is what a closed loop always
    finishes once begun, so every run measures whole units of one mix.

    The open loop's order comes from the pool seed like its schedule: which
    heavy queries arrive together decides its p95 (about twenty samples lie
    beyond it), so another order is another workload, a fifth away.
    """
    rng = inputs.sequence_rng(
        pool.pool_seed if spec.loop == "open" else seed, spec.name
    )
    if spec.zipf_s is None:
        return inputs.shuffled_units(rng, list(range(len(pool))))
    order = zipf_rank_order(pool)
    # At smoke size a full-size unit would be most of the run.
    unit = min(spec.zipf_unit, 5 * len(pool))
    counts = inputs.zipf_arrival_counts(len(pool), spec.zipf_s, unit)
    multiset = [order[rank] for rank, count in enumerate(counts) for _ in range(count)]
    return inputs.shuffled_units(rng, multiset)


def request_maker(
    api: SimpleNamespace, spec: WorkloadSpec, pool: inputs.Pool, clock: VirtualClock
) -> Callable[[int], object]:
    """Pool index -> the request to submit now.

    A deadline is 20 ms *on the reference machine*: it is stretched by the
    host's current speed so the bound always buys the same amount of search.
    """
    if spec.exact:
        return pool.requests.__getitem__
    bound = spec.deadline_ms / 1000.0

    def make(index: int):
        base = pool.requests[index]
        return api.QueryRequest(
            query=base.query, k=base.k, tag=base.tag,
            deadline=bound / clock.speed(),
        )

    return make


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def build_service(api: SimpleNamespace, pool: inputs.Pool, service: Dict[str, object]):
    res = pool.resources
    built = api.QueryService.build(
        res.kg, res.space, res.library, res.config, **service
    )
    try:
        built.warmup()
    except BaseException:
        built.close()
        raise
    return built


def timed_setups(
    api: SimpleNamespace,
    pool: inputs.Pool,
    spec: WorkloadSpec,
    clock: VirtualClock,
    cycles: int,
):
    """Build and warm the service ``cycles`` times on the generated inputs;
    the last one is kept to serve.  Returns ``(service, seconds each)``."""
    spans: List[Tuple[float, float]] = []
    service = None
    for cycle in range(cycles):
        if service is not None:
            service.close()
        clock.probe()
        started = time.perf_counter()
        service = build_service(api, pool, spec.service)
        spans.append((started, time.perf_counter()))
        clock.probe()
    edges = clock.virtual([t for span in spans for t in span])
    return service, [float(b - a) for a, b in zip(edges[::2], edges[1::2])]


# ----------------------------------------------------------------------
# load loops
# ----------------------------------------------------------------------

@dataclass
class Sample:
    """One request as the client saw it."""

    index: int
    start: float          # closed: submit instant; open: scheduled arrival
    end: float
    uids: Optional[List[int]]
    error: Optional[str]
    submitted: float = 0.0
    result: object = None


@dataclass
class LoadResult:
    samples: List[Sample]
    started: float
    ended: float
    units: int = 0
    backlog_at_last_arrival: int = 0


class _Feed:
    """Hands pool indexes to the client threads, unit after unit, and
    begins another unit only while half of it still fits the budget."""

    def __init__(self, units: Iterator[List[int]], seconds: float, max_units: Optional[int]):
        self._units = units
        self._seconds = seconds
        self._max_units = max_units
        self._lock = threading.Lock()
        self._current: List[int] = []
        self._position = 0
        self.started = time.perf_counter()
        self.units = 0

    def next(self) -> Optional[int]:
        with self._lock:
            if self._position == len(self._current):
                if self.units:
                    if self._max_units is not None and self.units >= self._max_units:
                        return None
                    elapsed = time.perf_counter() - self.started
                    if elapsed + 0.5 * elapsed / self.units >= self._seconds:
                        return None
                self._current = next(self._units)
                self._position = 0
                self.units += 1
            index = self._current[self._position]
            self._position += 1
            return index


def call(service, request, index: int, keep_result: bool = False) -> Sample:
    """Submit one request and wait for it; a failure is a sample too."""
    start = time.perf_counter()
    try:
        result = service.submit_request(request).result()
        uids: Optional[List[int]] = [int(u) for u in result.answer_uids()]
        error = None
    except Exception as exc:  # the load loop must outlive one bad request
        result, uids, error = None, None, f"{type(exc).__name__}: {exc}"
    return Sample(
        index, start, time.perf_counter(), uids, error,
        result=result if keep_result else None,
    )


def run_closed(
    service,
    units: Iterator[List[int]],
    make_request: Callable[[int], object],
    clock: VirtualClock,
    *,
    clients: int,
    seconds: float,
    max_units: Optional[int] = None,
    keep_results: bool = False,
    bracket: Optional[Callable[[int], ContextManager]] = None,
) -> LoadResult:
    """Whole units until ``seconds`` are used up (or ``max_units``).
    ``bracket(n)`` is entered around the n-th request: the traced replay's
    root span."""
    clock.probe()
    feed = _Feed(units, seconds, max_units)
    samples: List[Sample] = []

    def client() -> None:
        while True:
            index = feed.next()
            if index is None:
                return
            clock.maybe_probe()
            request = make_request(index)
            with bracket(len(samples)) if bracket else nullcontext():
                samples.append(call(service, request, index, keep_results))

    if clients == 1:
        client()
    else:
        threads = [
            threading.Thread(target=client, name=f"ledger-client-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    ended = time.perf_counter()
    clock.probe()
    return LoadResult(samples, feed.started, ended, units=feed.units)


def run_open(
    service,
    units: Iterator[List[int]],
    make_request: Callable[[int], object],
    clock: VirtualClock,
    *,
    rate: float,
    seconds: float,
    schedule_seed: int,
) -> LoadResult:
    """Poisson arrivals at ``rate`` per reference second for ``seconds``
    reference seconds (a little longer on the wall: every run sends the
    same arrivals).

    The schedule is drawn up front in reference time and stretched by the
    host's speed as it goes, so the offered load stays the same share of
    what the machine can do.  Nothing waits for a completion.  The gaps
    come from ``schedule_seed`` (the pool's), not from ``--seed``: how many
    arrivals fall in the window is Poisson noise of its own (a twentieth
    at this length) that no run of the program could change.
    """
    gaps = inputs.poisson_gaps(schedule_seed, rate, int(rate * seconds * 2) + 16)
    gaps = gaps[np.cumsum(gaps) < seconds]
    order = islice(chain.from_iterable(units), len(gaps))
    pending = []
    samples: List[Sample] = []
    clock.probe()
    started = time.perf_counter()
    due = started
    for gap, index in zip(gaps, order):
        due += float(gap) / clock.speed()
        while True:
            slack = due - time.perf_counter()
            if slack <= 0:
                break
            if slack > 0.003:
                clock.maybe_probe()
                slack = due - time.perf_counter()
            if slack > 0:
                time.sleep(slack)
        sample = Sample(index, due, 0.0, None, None)
        sample.submitted = time.perf_counter()
        try:
            future = service.submit_request(make_request(index))
        except Exception as exc:  # refused at the door: a miss, not a crash
            sample.end = time.perf_counter()
            sample.error = f"{type(exc).__name__}: {exc}"
            samples.append(sample)
            continue
        future.add_done_callback(
            lambda _f, s=sample: setattr(s, "end", time.perf_counter())
        )
        pending.append((sample, future))
        samples.append(sample)
    wait_futures([future for _s, future in pending], timeout=120.0)
    ended = time.perf_counter()
    clock.probe()
    for sample, future in pending:
        if not future.done():
            sample.end, sample.error = ended, "TimeoutError: never completed"
            continue
        try:
            sample.uids = [int(u) for u in future.result().answer_uids()]
        except Exception as exc:
            sample.error = f"{type(exc).__name__}: {exc}"
        if not sample.end:  # result read before the callback stamped it
            sample.end = ended
    last = samples[-1].submitted if samples else started
    return LoadResult(
        samples, started, ended,
        backlog_at_last_arrival=sum(1 for s in samples[:-1] if s.end > last),
    )


def cold_pass(service, pool: inputs.Pool) -> float:
    """One untimed-for-metrics pass over every distinct query, so caches
    fill and lazy set-up finishes before the measured phase.  Exact
    requests even on the deadline workload: the warm state is the same
    and it is not cut short."""
    started = time.perf_counter()
    for index, request in enumerate(pool.requests):
        call(service, request, index)
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "qps": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p95_ms": ("ms", "lower"),
    "within_limit_share": ("share", "higher"),
    "answer_recall": ("share", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb(service, spec: WorkloadSpec) -> float:
    """This process's peak plus, on the process backend, each worker's."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec.process_backend:
        total_kb += sum(row.max_rss_kb for row in service.worker_snapshots())
    return total_kb / 1024.0


@dataclass
class Verdict:
    """What the measured phase amounted to."""

    attempted: int
    failed: int
    errors: int
    wrong: int
    latencies_s: np.ndarray      # reference seconds, every attempted request
    raw_latencies_s: np.ndarray  # wall seconds
    recalls: List[float]
    within_limit: int
    wall_s: float                # reference seconds of the measured phase
    raw_wall_s: float
    examples: List[str]


def judge(
    spec: WorkloadSpec,
    pool: inputs.Pool,
    golden: Dict[str, List[int]],
    load: LoadResult,
    clock: VirtualClock,
) -> Verdict:
    samples = load.samples
    starts = np.array([s.start for s in samples])
    ends = np.array([s.end for s in samples])
    latencies = clock.virtual(ends) - clock.virtual(starts)
    phase = clock.virtual([load.started, load.ended])
    errors = wrong = within = 0
    recalls: List[float] = []
    examples: List[str] = []
    limit_s = spec.limit_ms / 1000.0
    for sample, latency in zip(samples, latencies):
        qid = pool.qids[sample.index]
        if sample.error is not None:
            errors += 1
            recalls.append(0.0)
            if len(examples) < 5:
                examples.append(f"{qid}: {sample.error}")
            continue
        expected = golden[qid]
        recalls.append(inputs.recall(sample.uids, expected))
        correct = True
        if spec.exact and sample.uids != expected:
            wrong += 1
            correct = False
            if len(examples) < 5:
                examples.append(f"{qid}: got {sample.uids}, golden {expected}")
        if correct and latency <= limit_s:
            within += 1
    return Verdict(
        attempted=len(samples),
        failed=errors + wrong,
        errors=errors,
        wrong=wrong,
        latencies_s=latencies,
        raw_latencies_s=ends - starts,
        recalls=recalls,
        within_limit=within,
        wall_s=float(phase[1] - phase[0]),
        raw_wall_s=load.ended - load.started,
        examples=examples,
    )


def end_to_end(
    verdict: Verdict, setup_seconds: Sequence[float], rss_mb: float
) -> Dict[str, Tuple[float, str, int]]:
    """``name -> (value, unit, samples behind it)``."""
    n = verdict.attempted
    values = {
        "qps": ((n - verdict.failed) / verdict.wall_s, n),
        "latency_p50_ms": (percentile(verdict.latencies_s, 50) * 1e3, n),
        "latency_p95_ms": (percentile(verdict.latencies_s, 95) * 1e3, n),
        "within_limit_share": (verdict.within_limit / n, n),
        "answer_recall": (float(np.mean(verdict.recalls)), n),
        "setup_s": (float(np.median(setup_seconds)), len(setup_seconds)),
        "peak_rss_mb": (rss_mb, 1),
    }
    return {
        name: (value, END_TO_END[name][0], count)
        for name, (value, count) in values.items()
    }

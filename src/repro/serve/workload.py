"""Workload replay driver: arrival processes + latency reporting.

Replays a query mix against a :class:`~repro.serve.service.QueryService`
the way a load generator would hit a deployed system:

- **open loop** — arrivals are scheduled regardless of completions, so
  queueing delay shows up in the latencies exactly as a user would feel
  it.  Two arrival processes: ``uniform`` (fixed ``1/rate`` spacing, the
  deterministic replay) and ``poisson`` (seeded exponential inter-arrival
  gaps at mean rate ``rate`` — the memoryless process real traffic
  approximates, which exercises burst behaviour a uniform replay never
  shows); ``rate=None`` submits the whole workload at once (a pure
  throughput probe);
- **mixed SGQ/TBQ traffic** — :func:`mix_deadlines` stamps a seeded
  fraction of the items with a TBQ deadline, so a replay can model the
  realistic blend of exact and time-bounded requests instead of
  all-or-nothing;
- per-query **latency** is measured from scheduled submission to future
  completion and summarised as nearest-rank percentiles
  (:func:`repro.utils.stats.percentile`), and additionally bucketed by
  the workload's **complexity class** (simple / medium / complex, Table
  VI) when items carry one — a replay report then shows which class the
  tail belongs to;
- the report carries the pass's :class:`~repro.serve.service.ServiceStats`
  (the service's snapshot after the pass ``since`` the one before it) —
  *shared* cache counters on the inline backend, *summed per-worker*
  counters on the process backend (each worker warms its own caches, so
  pool-wide misses scale with the worker count by design; the scope
  label keeps the two from being read as the same thing);
- ``breakdown=True`` (CLI: ``--breakdown``) additionally keeps each
  query's ``(qid, QueryResult)``, whose instrumentation splits search
  from assembly time and carries the A*-side counters (expansions,
  τ/visited prunes, peak queue size), so assembly-bound queries (the D12
  class) can be told apart from search-bound ones; TA round-cap
  truncations are counted on every run.

The module doubles as the ``repro-serve-workload`` console entrypoint
(see ``setup.py``).  Every run is one frozen
:class:`~repro.scenarios.suite.Workload` — a ``--scenario`` artifact, or
a preset bundle's queries frozen with the run's flags — replayed for N
passes through :func:`repro.scenarios.replay.replay_pass`, one report
and one exact-match digest per pass: pass 1 is the cold run, later
passes show the cache steady state, and a pass whose digest disagrees
with pass 1's ends the run with exit status 1.  ``--backend
{inline,process} --workers N`` picks the execution backend.
"""

from __future__ import annotations

import argparse
import gc
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.results import QueryResult, SearchStats
from repro.errors import OverloadError, ScenarioError, SearchError, ServeError
from repro.kg.sharded import SHARD_STRATEGIES
from repro.query.model import QueryGraph
from repro.serve.backends import EXECUTION_BACKENDS
from repro.serve.faults import FaultPlan
from repro.serve.resilience import BackoffPolicy
from repro.serve.service import QueryRequest, QueryService, ServiceStats
from repro.utils.rng import derive_rng
from repro.utils.stats import finite_positive, percentile
from repro.utils.timing import Stopwatch

ARRIVAL_PROCESSES = ("uniform", "poisson")


@dataclass(frozen=True)
class WorkloadItem:
    """One replayable query with its serving parameters.

    ``complexity`` is the query's Table VI class (``"simple"`` /
    ``"medium"`` / ``"complex"``); when set, the replay report buckets
    latency percentiles by it.  Empty means unclassified.
    """

    query: QueryGraph
    k: int = 10
    deadline: Optional[float] = None
    qid: str = ""
    complexity: str = ""

    def to_request(self) -> QueryRequest:
        return QueryRequest(
            query=self.query, k=self.k, deadline=self.deadline, tag=self.qid
        )


@dataclass
class ReplayReport:
    """Throughput and latency summary of one replay pass.

    ``class_latencies`` buckets the per-query latencies by the workload
    items' complexity class (sorted ascending per bucket); empty when no
    item carried a class.  ``arrival`` names the arrival process
    (``"uniform"`` / ``"poisson"``; meaningless when ``rate`` is
    ``None``), ``deadline_requests`` counts the TBQ share of the mix —
    of those that completed, ``deadline_certified`` were certified exact
    inside their bound and ``deadline_bounded`` stopped on the time alert
    (``QueryResult.approximate``) — and ``stats`` is what *this pass*
    did to the service's counters: its snapshot after the pass
    :meth:`~repro.serve.service.ServiceStats.since` the one before.  Its
    ``resilience`` row is all zero on an unsupervised or fault-free run
    (shed requests are also in ``failed``), its ``answers`` row without
    an answer cache.  ``breakdown`` (``replay(breakdown=True)``) holds
    each completed query's ``(qid, QueryResult)``.
    """

    completed: int
    failed: int
    elapsed_seconds: float
    latencies: List[float]
    rate: Optional[float]
    breakdown: Optional[List[Tuple[str, QueryResult]]] = None
    class_latencies: Dict[str, List[float]] = field(default_factory=dict)
    arrival: str = "uniform"
    deadline_requests: int = 0
    deadline_certified: int = 0
    deadline_bounded: int = 0
    stats: Optional[ServiceStats] = None

    @property
    def throughput_qps(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.completed / self.elapsed_seconds

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies, q)

    @property
    def p50(self) -> float:
        return self.latency_percentile(50)

    @property
    def p90(self) -> float:
        return self.latency_percentile(90)

    @property
    def p99(self) -> float:
        return self.latency_percentile(99)

    def describe(self) -> str:
        pacing = (
            f"{self.rate:.1f} qps {self.arrival} open-loop"
            if self.rate
            else "unpaced"
        )
        lines = [
            f"replay: {self.completed} completed, {self.failed} failed "
            f"in {self.elapsed_seconds * 1000:.1f} ms ({pacing})",
            f"throughput: {self.throughput_qps:.1f} qps",
        ]
        if self.deadline_requests:
            total = self.completed + self.failed
            lines.append(
                f"mix: {total - self.deadline_requests} sgq + "
                f"{self.deadline_requests} tbq requests "
                f"({self.deadline_certified} certified exact, "
                f"{self.deadline_bounded} stopped on the bound)"
            )
        if self.latencies:
            lines.append(
                "latency ms: "
                f"p50={self.p50 * 1000:.2f} "
                f"p90={self.p90 * 1000:.2f} "
                f"p99={self.p99 * 1000:.2f} "
                f"max={max(self.latencies) * 1000:.2f}"
            )
        if self.class_latencies:
            lines.append("latency by complexity class:")
            # Canonical order first, anything else alphabetically after.
            canon = ("simple", "medium", "complex")
            ordered_classes = [c for c in canon if c in self.class_latencies]
            ordered_classes += sorted(set(self.class_latencies) - set(canon))
            for cls in ordered_classes:
                values = self.class_latencies[cls]
                lines.append(
                    f"  {cls} (n={len(values)}): "
                    f"p50={percentile(values, 50) * 1000:.2f} "
                    f"p90={percentile(values, 90) * 1000:.2f} "
                    f"p99={percentile(values, 99) * 1000:.2f} ms"
                )
        if self.stats is not None:
            lines.append(self.stats.describe())
        if self.breakdown:
            results = [result for _qid, result in self.breakdown]
            total = sum(result.elapsed_seconds for result in results)
            assembly = sum(result.assembly_seconds for result in results)
            share = assembly / total if total > 0 else 0.0
            search = reduce(
                SearchStats.merge,
                (stats for result in results for stats in result.subquery_stats),
                SearchStats(),
            )
            pruned = (
                search.pruned_by_tau + search.pruned_by_visited
                + search.pruned_by_reach
            )
            lines.append(
                f"assembly share: {share * 100.0:.1f}% of "
                f"{total * 1000:.1f} ms total query time"
            )
            lines.append(
                f"search totals: {search.expansions} expansions, {pruned} "
                f"pruned, {search.stale_pops} stale pops"
            )
            lines.append("search vs assembly per query (slowest assembly first):")
            for qid, row in sorted(
                self.breakdown, key=lambda pair: -pair[1].assembly_seconds
            ):
                row_share = (
                    row.assembly_seconds / row.elapsed_seconds
                    if row.elapsed_seconds > 0
                    else 0.0
                )
                lines.append(
                    f"  {qid or '?'}: total {row.elapsed_seconds * 1000:.1f} ms"
                    f" = search {row.search_seconds * 1000:.1f}"
                    f" + assembly {row.assembly_seconds * 1000:.1f}"
                    f" ({row_share * 100.0:.1f}% assembly,"
                    f" {row.ta_rounds} rounds; {row.expansions} exp,"
                    f" {row.pruned_by_tau}+{row.pruned_by_visited}"
                    f"+{row.pruned_by_reach} pruned,"
                    f" q<={row.max_queue_size})"
                )
        return "\n".join(lines)


def mix_deadlines(
    items: Sequence[WorkloadItem],
    fraction: float,
    deadline: float,
    *,
    seed: int = 0,
) -> List[WorkloadItem]:
    """Stamp a seeded ``fraction`` of the items with a TBQ ``deadline``.

    Models a realistic mixed workload: most traffic exact (SGQ), a slice
    latency-bounded (TBQ).  Selection is a seeded permutation, so the
    same (items, fraction, seed) triple always marks the same queries —
    replay passes stay comparable.  The remaining items keep their own
    deadlines (usually ``None``).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ServeError(f"tbq fraction must be in [0, 1], got {fraction}")
    if not finite_positive(deadline):
        raise ServeError(f"deadline must be positive, got {deadline}")
    count = round(fraction * len(items))
    rng = derive_rng(seed, "workload:tbq-mix")
    chosen = set(rng.permutation(len(items))[:count].tolist())
    return [
        replace(item, deadline=deadline) if index in chosen else item
        for index, item in enumerate(items)
    ]


POPULARITY_KINDS = ("uniform", "zipf")


@dataclass(frozen=True)
class PopularitySpec:
    """How often each workload query repeats in a replay.

    ``uniform`` (the default) replays every item exactly once — the
    historical behaviour, so existing artifacts replay unchanged.
    ``zipf`` resamples the items under a Zipfian popularity law
    (rank ``r`` drawn with probability ∝ ``r^-s``), the shape real
    query traffic approximates — a few hot queries dominate, a long
    tail trickles.  That skew is what makes an answer cache measurable:
    a uniform replay has no hot keys to hit.

    ``s`` is the skew exponent (larger = hotter head); ``length`` the
    resampled request count (``None`` = same as the item count).
    Picklable and versioned into scenario manifests.
    """

    kind: str = "uniform"
    s: float = 1.1
    length: Optional[int] = None

    def __post_init__(self):
        if self.kind not in POPULARITY_KINDS:
            raise ServeError(
                f"unknown popularity kind {self.kind!r} "
                f"(expected one of {POPULARITY_KINDS})"
            )
        if self.kind == "zipf" and not finite_positive(self.s):
            raise ServeError(f"zipf exponent must be positive, got {self.s}")
        if self.length is not None and self.length < 1:
            raise ServeError(
                f"popularity length must be at least 1, got {self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "PopularitySpec":
        """Parse ``"uniform"`` or ``"zipf:<s>[:<length>]"``."""
        parts = text.strip().split(":")
        kind = parts[0]
        if kind == "uniform":
            if len(parts) > 1:
                raise ServeError("uniform popularity takes no parameters")
            return cls()
        if kind != "zipf":
            raise ServeError(
                f"unknown popularity spec {text!r} "
                "(expected 'uniform' or 'zipf:<s>[:<length>]')"
            )
        if len(parts) < 2 or len(parts) > 3:
            raise ServeError(
                f"zipf popularity needs 'zipf:<s>[:<length>]', got {text!r}"
            )
        try:
            s = float(parts[1])
            length = int(parts[2]) if len(parts) == 3 else None
        except ValueError as exc:
            raise ServeError(f"bad popularity spec {text!r}: {exc}") from None
        return cls(kind="zipf", s=s, length=length)

    def manifest(self) -> Dict[str, object]:
        return {"kind": self.kind, "s": self.s, "length": self.length}

    @classmethod
    def from_manifest(cls, payload: Dict[str, object]) -> "PopularitySpec":
        return cls(
            kind=payload["kind"], s=payload["s"], length=payload["length"]
        )

    def describe(self) -> str:
        if self.kind == "uniform":
            return "uniform (each query once)"
        suffix = f", {self.length} requests" if self.length is not None else ""
        return f"zipf(s={self.s}{suffix})"


def apply_popularity(
    items: Sequence[WorkloadItem],
    spec: Optional[PopularitySpec],
    seed: int,
) -> List[WorkloadItem]:
    """Resample ``items`` under ``spec`` (seeded; identity for uniform).

    Popularity ranks are assigned to items through a seeded permutation
    — which query becomes the hot head is itself part of the draw, not
    an artifact of generation order.  The same ``(items, spec, seed)``
    triple always yields the same request sequence.
    """
    if spec is None or spec.kind == "uniform":
        return list(items)
    if not items:
        return []
    count = len(items)
    length = spec.length if spec.length is not None else count
    rng = derive_rng(seed, "workload:popularity")
    rank_to_item = rng.permutation(count)
    weights = [(rank + 1) ** -spec.s for rank in range(count)]
    total = sum(weights)
    draws = rng.choice(count, size=length, p=[w / total for w in weights])
    return [items[int(rank_to_item[int(rank)])] for rank in draws]


def _arrival_schedule(
    count: int, rate: float, arrival: str, seed: int
) -> List[float]:
    """Scheduled arrival offsets (seconds from replay start) per request."""
    if arrival == "uniform":
        return [index / rate for index in range(count)]
    # Poisson process: i.i.d. exponential gaps with mean 1/rate.  Seeded,
    # so a replay is reproducible; the schedule is fixed up front (open
    # loop — arrivals never wait for completions).
    rng = derive_rng(seed, "workload:poisson-arrivals")
    gaps = rng.exponential(scale=1.0 / rate, size=count)
    schedule: List[float] = []
    clock = 0.0
    for gap in gaps:
        clock += float(gap)
        schedule.append(clock)
    return schedule


def replay(
    service: QueryService,
    items: Sequence[Union[WorkloadItem, QueryRequest, QueryGraph]],
    *,
    rate: Optional[float] = None,
    arrival: str = "uniform",
    seed: int = 0,
    k: int = 10,
    breakdown: bool = False,
    on_result: Optional[Callable] = None,
) -> ReplayReport:
    """Replay ``items`` through ``service`` and measure the experience.

    Args:
        service: the serving front-end under load.
        items: workload items (bare :class:`QueryGraph` entries get ``k``).
        rate: open-loop arrival rate in queries/second; ``None`` submits
            everything immediately.
        arrival: arrival process — ``"uniform"`` (fixed spacing) or
            ``"poisson"`` (seeded exponential gaps at mean rate ``rate``).
        seed: RNG seed for the Poisson schedule.
        breakdown: keep each completed query's ``(qid, QueryResult)`` in
            :attr:`ReplayReport.breakdown`.
        on_result: optional ``(index, request, result)`` callback invoked
            (serialised under the report lock) for every successful
            query — the hook scenario replays use to collect answer sets
            without the report having to carry full results.  A hook that
            raises fails its request; the first such error is re-raised
            once every request has finished.
    """
    if rate is not None and not finite_positive(rate):
        raise ServeError(f"arrival rate must be positive, got {rate}")
    if arrival not in ARRIVAL_PROCESSES:
        raise ServeError(
            f"unknown arrival process {arrival!r} "
            f"(expected one of {ARRIVAL_PROCESSES})"
        )
    requests = []
    classes: List[str] = []
    for item in items:
        if isinstance(item, WorkloadItem):
            requests.append(item.to_request())
            classes.append(item.complexity)
        elif isinstance(item, QueryRequest):
            requests.append(item)
            classes.append("")
        else:
            requests.append(QueryRequest(query=item, k=k))
            classes.append("")

    latencies: List[float] = []
    class_latencies: Dict[str, List[float]] = {}
    failures = [0]
    hook_errors: List[Exception] = []
    tbq_flags: List[bool] = []  # QueryResult.approximate per TBQ answer
    splits: List[Tuple[str, QueryResult]] = []
    lock = threading.Lock()
    done = threading.Semaphore(0)
    stats_before = service.stats_snapshot()
    watch = Stopwatch()

    def _submit(request: QueryRequest, scheduled: float, index: int) -> None:
        try:
            future = service.submit_request(request)
        except OverloadError:
            # A shed request is a failed request, not a failed replay:
            # the admission queue doing its job under overload must not
            # abort the remaining schedule.
            with lock:
                failures[0] += 1
            done.release()
            return

        def _finish(f) -> None:
            latency = watch.elapsed() - scheduled
            # concurrent.futures logs and drops what a done-callback
            # raises, so the release the drain below waits for must not
            # sit behind the hook.
            try:
                with lock:
                    if f.exception() is not None:
                        failures[0] += 1
                        return
                    result = f.result()
                    if on_result is not None:
                        on_result(index, request, result)
                    latencies.append(latency)
                    if classes[index]:
                        class_latencies.setdefault(classes[index], []).append(
                            latency
                        )
                    if request.deadline is not None:
                        tbq_flags.append(result.approximate)
                    if breakdown:
                        splits.append((request.tag or f"q{index}", result))
            except Exception as error:
                with lock:
                    failures[0] += 1
                    hook_errors.append(error)
            finally:
                done.release()

        future.add_done_callback(_finish)

    schedule = (
        _arrival_schedule(len(requests), rate, arrival, seed)
        if rate is not None
        else None
    )
    for index, request in enumerate(requests):
        if schedule is None:
            # Unpaced: no schedule exists, so latency starts at the
            # actual submission instant.
            _submit(request, watch.elapsed(), index)
            continue
        scheduled = schedule[index]
        delay = scheduled - watch.elapsed()
        if delay > 0:
            time.sleep(delay)
        # Latency is measured from the *scheduled* arrival even when the
        # generator falls behind — hiding generator lag would be the
        # classic coordinated-omission distortion open-loop replay exists
        # to avoid.
        _submit(request, scheduled, index)

    for _ in requests:
        done.acquire()
    elapsed = watch.elapsed()
    if hook_errors:
        raise hook_errors[0]

    stats = service.stats_snapshot().since(stats_before)
    return ReplayReport(
        completed=len(latencies),
        failed=failures[0],
        elapsed_seconds=elapsed,
        latencies=sorted(latencies),
        rate=rate,
        breakdown=splits if breakdown else None,
        class_latencies={
            cls: sorted(values) for cls, values in class_latencies.items()
        },
        arrival=arrival,
        deadline_requests=sum(
            1 for request in requests if request.deadline is not None
        ),
        deadline_certified=tbq_flags.count(False),
        deadline_bounded=tbq_flags.count(True),
        stats=stats,
    )


# ----------------------------------------------------------------------
# console entrypoint
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve-workload",
        description=(
            "Replay a preset query workload through the cache-backed "
            "QueryService (frozen CSR graph, production kernels) and "
            "report throughput/latency per pass."
        ),
    )
    parser.add_argument(
        "--preset",
        default="dbpedia",
        choices=("dbpedia", "freebase", "yago2"),
        help="dataset bundle to generate (default: dbpedia)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="PATH",
        help=(
            "replay a frozen scenario Workload artifact (see "
            "repro.scenarios) instead of a preset workload; the artifact "
            "fixes the domain, query set, k, tau, arrival spec and "
            "deadline mix, so --preset/--scale/--seed/--k are ignored and "
            "--rate/--arrival/--deadline/--tbq-fraction are rejected"
        ),
    )
    parser.add_argument("--scale", type=float, default=2.0, help="generator scale")
    parser.add_argument("--seed", type=int, default=1, help="generator seed")
    parser.add_argument("--k", type=int, default=10, help="top-k per query")
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="replay passes over the workload (pass 1 is cold)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop arrival rate in qps (default: unpaced)",
    )
    parser.add_argument(
        "--arrival",
        default="uniform",
        choices=ARRIVAL_PROCESSES,
        help=(
            "arrival process when --rate is set: 'uniform' fixed spacing "
            "or 'poisson' seeded exponential gaps (default: uniform)"
        ),
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help=(
            "per-query TBQ deadline in seconds; applies to every query, "
            "or to the --tbq-fraction slice when that is set "
            "(default: exact SGQ)"
        ),
    )
    parser.add_argument(
        "--tbq-fraction",
        type=float,
        default=None,
        help=(
            "fraction of queries (seeded selection) served time-bounded "
            "with --deadline; the rest run exact SGQ (default: all-or-"
            "nothing per --deadline)"
        ),
    )
    parser.add_argument(
        "--backend",
        default="inline",
        choices=EXECUTION_BACKENDS,
        help=(
            "execution backend: 'inline' (caller's thread) or 'process' "
            "(true multi-core parallelism; per-worker engines over the "
            "frozen graph attached zero-copy from shared memory).  "
            "Identical exact results on both."
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="process-pool size (ignored by inline)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help=(
            "partition the frozen CSR graph into N entity-owned shards: "
            "one row source for the shard set in the engine's cache and "
            "rank-merged incident rows.  Inline backend only (--backend "
            "process is refused, exit 2).  Exact results are bit-identical "
            "to the unsharded store (default: 0 = unsharded)"
        ),
    )
    parser.add_argument(
        "--shard-strategy",
        default="hash",
        choices=SHARD_STRATEGIES,
        help=(
            "entity partitioner for --shards: 'hash' (uniform "
            "mixing) or 'balanced-degree' (greedy degree-mass "
            "balancing).  Deterministic; identical answers either way "
            "(default: hash)"
        ),
    )
    parser.add_argument(
        "--breakdown",
        action="store_true",
        help=(
            "report each query's search-vs-assembly time split per pass "
            "(engine instrumentation; identifies assembly-bound queries)"
        ),
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault injection spec, e.g. "
            "'crash@3;transient@2,5;latency@4:0.05;seed=7;epochs=2' "
            "(see repro.serve.faults.FaultPlan.parse); implies supervised "
            "serving so the replay recovers from the injected faults"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retry budget per request for retryable failures (transient "
            "errors, worker crashes); implies supervised serving "
            "(default: 2 when supervision is on)"
        ),
    )
    parser.add_argument(
        "--hard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-request wall-clock cap enforced by the supervisor (fails "
            "the request; distinct from a TBQ --deadline, which degrades "
            "the answer); implies supervised serving"
        ),
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help=(
            "admission-queue bound: shed submissions beyond N in-flight "
            "requests with OverloadError; implies supervised serving"
        ),
    )
    parser.add_argument(
        "--answer-cache",
        type=int,
        default=0,
        metavar="N",
        help=(
            "enable the front-side result-level answer cache with a "
            "capacity of N entries: exact (SGQ) answers are memoized "
            "under a canonical query fingerprint with singleflight "
            "dedup, so repeated hot queries skip the engine (and IPC on "
            "the process backend) entirely; when full it evicts the "
            "answer with the least hits x measured search time "
            "(default: 0 = off)"
        ),
    )
    parser.add_argument(
        "--popularity",
        default="uniform",
        metavar="SPEC",
        help=(
            "query repetition law: 'uniform' replays each workload query "
            "once (default, the historical behaviour), 'zipf:<s>[:<len>]' "
            "resamples the queries Zipf-skewed with exponent s (seeded), "
            "giving the replay genuine hot keys — the traffic shape that "
            "makes --answer-cache measurable.  With --scenario this "
            "resamples the artifact's fixed query sequence."
        ),
    )
    parser.add_argument(
        "--supervised",
        action="store_true",
        help=(
            "wrap the backend in the SupervisedBackend even without any "
            "other resilience flag (retries, pool rebuild on worker "
            "crash, circuit-breaker fallback)"
        ),
    )
    return parser


def _resilience_kwargs(args, parser) -> Dict[str, object]:
    """Validate the resilience flags and build QueryService.build kwargs."""
    if args.retries is not None and args.retries < 0:
        parser.error(f"--retries must be non-negative, got {args.retries}")
    if args.hard_timeout is not None and not finite_positive(args.hard_timeout):
        parser.error(
            f"--hard-timeout must be positive, got {args.hard_timeout}"
        )
    if args.max_pending is not None and args.max_pending < 1:
        parser.error(
            f"--max-pending must be at least 1, got {args.max_pending}"
        )
    kwargs: Dict[str, object] = {}
    if args.fault_plan is not None:
        try:
            kwargs["fault_plan"] = FaultPlan.parse(args.fault_plan)
        except ServeError as exc:
            parser.error(f"--fault-plan: {exc}")
    if args.retries is not None:
        kwargs["retry_policy"] = BackoffPolicy(retries=args.retries)
    if args.hard_timeout is not None:
        kwargs["hard_timeout"] = args.hard_timeout
    if args.max_pending is not None:
        kwargs["max_pending"] = args.max_pending
    if args.supervised or kwargs:
        kwargs["supervised"] = True
    return kwargs


def _scenario_run(args, parser):
    """The ``--scenario`` artifact and the engine inputs it pins."""
    if (
        args.rate is not None
        or args.arrival != "uniform"
        or args.deadline is not None
        or args.tbq_fraction is not None
    ):
        parser.error(
            "--scenario fixes the arrival spec and deadline mix; "
            "--rate/--arrival/--deadline/--tbq-fraction cannot override it"
        )
    # Deferred import: scenario replay pulls in the generator stack.
    from repro.scenarios.replay import build_resources
    from repro.scenarios.suite import Workload

    try:
        workload = Workload.from_pickle(args.scenario)
    except FileNotFoundError:
        parser.error(f"--scenario: no such artifact: {args.scenario}")
    except ScenarioError as exc:
        parser.error(f"--scenario: {exc}")
    return workload, build_resources(workload)


def _preset_run(args):
    """A preset bundle's queries frozen into a workload with the run's flags.

    The Table VI class is the intent, ``--seed`` seeds the deadline
    selection, the Poisson schedule and the popularity draw, and
    ``--deadline`` stamps every query unless ``--tbq-fraction`` picks a
    seeded slice.  The engine inputs are the bundle's own.
    """
    # Deferred imports: bundle generation pulls in the full bench stack.
    from repro.bench.datasets import load_bundle
    from repro.core.config import SearchConfig
    from repro.scenarios.replay import ScenarioResources
    from repro.scenarios.suite import (
        ArrivalSpec,
        DeadlineMix,
        ScenarioQuery,
        Workload,
    )

    bundle = load_bundle(args.preset, scale=args.scale, seed=args.seed)
    config = SearchConfig()
    workload = Workload(
        name=f"{args.preset}-preset",
        domain=args.preset,
        scale=args.scale,
        generator_seed=args.seed,
        space_seed=3,  # load_bundle's default
        seed=args.seed,
        k=args.k,
        tau=config.tau,
        arrival=ArrivalSpec(process=args.arrival, rate=args.rate),
        deadline_mix=(
            None
            if args.deadline is None
            else DeadlineMix(
                1.0 if args.tbq_fraction is None else args.tbq_fraction,
                args.deadline,
            )
        ),
        queries=tuple(
            ScenarioQuery(qid=q.qid, intent=q.complexity, query=q.query)
            for q in bundle.workload
        ),
    )
    resources = ScenarioResources(
        bundle.schema, bundle.kg, bundle.space, bundle.library, config
    )
    return workload, resources


def _serve_passes(args, parser, workload, resources, *, freeze: bool) -> int:
    """Serve ``workload`` as the flags describe, ``--repeats`` passes.

    Combinations the service rejects exit through ``parser.error`` with
    the service's own message.  Every pass prints its report and the
    digest of its exact answers — identical seeds must print an
    identical digest on every pass, run and backend; a pass that
    disagrees with pass 1 ends the run with exit status 1.  With
    ``freeze``, the heap built so far (graph, store, service) is frozen
    before the first pass, so the passes' collections walk only what
    requests allocate.
    """
    from repro.scenarios.replay import replay_pass, scenario_items

    try:
        popularity = PopularitySpec.parse(args.popularity)
    except ServeError as exc:
        parser.error(f"--popularity: {exc}")
    resilience_kwargs = _resilience_kwargs(args, parser)
    kg = resources.kg
    mix = workload.deadline_mix
    print(
        f"scenario {workload.name}: domain {workload.domain} @ scale "
        f"{workload.scale} ({kg.num_entities} entities, "
        f"{kg.num_edges} edges), {len(workload.queries)} queries, "
        f"k={workload.k}, tau={workload.tau} "
        f"(compact view, {args.backend} backend)"
    )
    counts = workload.intent_counts().items()
    print("intent mix: " + ", ".join(f"{i}={n}" for i, n in counts))
    if mix is not None and mix.fraction > 0:
        print(
            f"deadline mix: {mix.fraction:.0%} of queries time-bounded "
            f"at {mix.deadline:.2f} s (seeded selection)"
        )
    if popularity.kind != "uniform":
        # Resampled on top of the workload's own sequence, seeded by the
        # workload, so repeatable.
        print(
            f"popularity: {popularity.describe()} — resampled to "
            f"{popularity.length or len(scenario_items(workload))} requests"
        )
    plan = resilience_kwargs.get("fault_plan")
    if plan is not None:
        print(f"fault plan: {plan.describe()}")
    if args.answer_cache:
        print(f"answer cache: {args.answer_cache} entries")
    if args.shards:
        print(
            f"sharded store: {args.shards} shards "
            f"({args.shard_strategy} partitioner)"
        )
    try:
        service = QueryService.build(
            kg,
            resources.space,
            resources.library,
            resources.config,
            backend=args.backend,
            workers=args.workers,
            shards=args.shards,
            shard_strategy=args.shard_strategy,
            answer_cache=args.answer_cache,
            **resilience_kwargs,
        )
    except (ServeError, SearchError) as exc:
        parser.error(str(exc))
    if freeze:
        gc.freeze()
    with service:
        if args.backend == "process":
            warmed = service.warmup()
            print(
                f"warmed {warmed}/{service.workers} process workers "
                "(shared graph)"
            )
        first_digest = None
        for run in range(1, args.repeats + 1):
            result = replay_pass(
                service, workload, resources,
                popularity=popularity, breakdown=args.breakdown,
            )
            label = "cold" if run == 1 else "warm"
            print(f"\n--- pass {run}/{args.repeats} ({label}) ---")
            print(result.report.describe())
            digest = result.digest
            print(
                f"exact-match digest: {digest} "
                f"({len(result.answers)} exact queries)"
            )
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                print(
                    f"exact-match digest mismatch: pass 1 printed "
                    f"{first_digest}, pass {run} printed {digest}",
                    file=sys.stderr,
                )
                return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-serve-workload`` console script.

    Called without ``argv`` — as the console script and ``python -m
    repro.serve`` call it — the driver owns its process and freezes the
    heap once the service is built (``gc.freeze()``).  A caller that
    passes ``argv`` keeps its own heap unfrozen: a frozen object is never
    collected, even once it becomes cyclic garbage.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not finite_positive(args.scale):
        parser.error(f"--scale must be positive, got {args.scale}")
    if args.k < 1:
        parser.error(f"--k must be at least 1, got {args.k}")
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    if args.rate is not None and not finite_positive(args.rate):
        parser.error(f"--rate must be positive, got {args.rate}")
    if args.arrival == "poisson" and args.rate is None:
        parser.error("--arrival poisson requires --rate")
    if args.deadline is not None and not finite_positive(args.deadline):
        parser.error(f"--deadline must be positive, got {args.deadline}")
    if args.tbq_fraction is not None:
        if not 0.0 <= args.tbq_fraction <= 1.0:
            parser.error(
                f"--tbq-fraction must be in [0, 1], got {args.tbq_fraction}"
            )
        if args.deadline is None and args.tbq_fraction > 0:
            parser.error("--tbq-fraction requires --deadline")
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    if args.shards < 0:
        parser.error(f"--shards must be non-negative, got {args.shards}")
    if args.scenario is not None:
        workload, resources = _scenario_run(args, parser)
    else:
        workload, resources = _preset_run(args)
    return _serve_passes(args, parser, workload, resources, freeze=argv is None)

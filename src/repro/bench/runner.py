"""Experiment runner: uniform method adapters and effectiveness sweeps.

Bridges the engine (SGQ/TBQ) and the seven baselines behind one callable
shape, evaluates whole workloads at several top-k values, and produces the
row records the benchmark modules print — the same series Figs. 12-14 and
Tables I/V/VI report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines import (
    GStoreBaseline,
    GraBBaseline,
    NeMaBaseline,
    PHomBaseline,
    QGABaseline,
    S4Baseline,
    SLQBaseline,
)
from repro.bench.datasets import DatasetBundle
from repro.bench.metrics import EffectivenessScores, evaluate_answers
from repro.bench.workloads import WorkloadQuery, qga_aliases, s4_prior_instances
from repro.core.config import SearchConfig
from repro.core.engine import SemanticGraphQueryEngine
from repro.errors import ReproError
from repro.utils.timing import Stopwatch


@dataclass
class MethodRun:
    """One (method, query, k) evaluation record."""

    method: str
    qid: str
    k: int
    scores: EffectivenessScores
    seconds: float
    answered: bool


@dataclass
class SweepRow:
    """Averages for one (method, k) cell of a Fig. 12-14 style sweep."""

    method: str
    k: int
    precision: float
    recall: float
    f1: float
    mean_seconds: float
    queries: int


AnswerFn = Callable[[WorkloadQuery, int], List[int]]
PrepareFn = Callable[[WorkloadQuery, int], None]


class MethodAdapter:
    """A named callable answering workload queries with ranked entities.

    ``prepare(query, k)`` is per-query set-up that :func:`run_method`
    runs before it starts the clock: work the protocol needs but does not
    charge to the method, such as TBQ's calibrating SGQ run.
    """

    def __init__(
        self, name: str, answer: AnswerFn, prepare: Optional[PrepareFn] = None
    ):
        self.name = name
        self._answer = answer
        self._prepare = prepare

    def prepare(self, query: WorkloadQuery, k: int) -> None:
        if self._prepare is not None:
            self._prepare(query, k)

    def answer(self, query: WorkloadQuery, k: int) -> List[int]:
        return self._answer(query, k)


def sgq_adapter(
    bundle: DatasetBundle, config: Optional[SearchConfig] = None
) -> MethodAdapter:
    """The paper's SGQ (Section V) as a sweep method."""
    engine = SemanticGraphQueryEngine(
        bundle.kg, bundle.space, bundle.library, config or SearchConfig()
    )

    def answer(query: WorkloadQuery, k: int) -> List[int]:
        return engine.search(query.query, k=k).answer_uids()

    return MethodAdapter("SGQ", answer)


def tbq_adapter(
    bundle: DatasetBundle,
    *,
    time_fraction: float = 0.9,
    config: Optional[SearchConfig] = None,
) -> MethodAdapter:
    """TBQ-<fraction>: time bound set to a fraction of SGQ's time.

    Matches the paper's TBQ-0.9 protocol: "we set the time bound of TBQ as
    90% of the execution time of SGQ" per query.  The SGQ run that sets
    the bound is the adapter's ``prepare`` step, so :func:`run_method`
    times the bounded run alone; an ``answer`` call that was not prepared
    calibrates first.
    """
    if time_fraction <= 0:
        raise ReproError("time_fraction must be positive")
    engine = SemanticGraphQueryEngine(
        bundle.kg, bundle.space, bundle.library, config or SearchConfig()
    )
    bounds: Dict[Tuple[str, int], float] = {}

    def prepare(query: WorkloadQuery, k: int) -> None:
        reference = engine.search(query.query, k=k)
        bounds[query.qid, k] = max(reference.elapsed_seconds * time_fraction, 1e-4)

    def answer(query: WorkloadQuery, k: int) -> List[int]:
        if (query.qid, k) not in bounds:
            prepare(query, k)
        bound = bounds.pop((query.qid, k))
        result = engine.search_time_bounded(query.query, k=k, time_bound=bound)
        return result.answer_uids()

    return MethodAdapter(f"TBQ-{time_fraction:g}", answer, prepare)


def baseline_adapters(
    bundle: DatasetBundle,
    *,
    methods: Sequence[str] = ("GraB", "S4", "QGA", "p-hom"),
    s4_coverage: float = 0.5,
    seed: int = 0,
) -> List[MethodAdapter]:
    """Instantiate the requested baselines with the bundle's resources."""
    instances = None
    adapters: List[MethodAdapter] = []
    for name in methods:
        if name == "gStore":
            method = GStoreBaseline(bundle.kg)
        elif name == "SLQ":
            method = SLQBaseline(bundle.kg, bundle.library)
        elif name == "NeMa":
            method = NeMaBaseline(bundle.kg)
        elif name == "S4":
            if instances is None:
                instances = s4_prior_instances(
                    bundle.kg, bundle.workload, coverage=s4_coverage, seed=seed
                )
            method = S4Baseline(bundle.kg, instances, max_patterns=2, min_support=4)
        elif name == "p-hom":
            method = PHomBaseline(bundle.kg)
        elif name == "GraB":
            method = GraBBaseline(bundle.kg)
        elif name == "QGA":
            method = QGABaseline(bundle.kg, bundle.library, qga_aliases(bundle.schema))
        else:
            raise ReproError(f"unknown baseline {name!r}")

        def answer(query: WorkloadQuery, k: int, _method=method) -> List[int]:
            return _method.search(query.query, k).answers

        adapters.append(MethodAdapter(name, answer))
    return adapters


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

def run_method(
    adapter: MethodAdapter,
    queries: Sequence[WorkloadQuery],
    truth: Dict[str, Set[int]],
    k: int,
) -> List[MethodRun]:
    """Evaluate one method over a workload at one k."""
    runs: List[MethodRun] = []
    for query in queries:
        adapter.prepare(query, k)
        watch = Stopwatch()
        answers = adapter.answer(query, k)
        seconds = watch.elapsed()
        scores = evaluate_answers(answers, truth[query.qid])
        runs.append(
            MethodRun(
                method=adapter.name,
                qid=query.qid,
                k=k,
                scores=scores,
                seconds=seconds,
                answered=bool(answers),
            )
        )
    return runs


def effectiveness_sweep(
    bundle: DatasetBundle,
    adapters: Sequence[MethodAdapter],
    ks: Sequence[int] = (20, 40, 100, 200),
    *,
    complexity: Optional[str] = "simple",
) -> List[SweepRow]:
    """The Fig. 12-14 sweep: P/R/F1 and response time per (method, k)."""
    queries = bundle.queries_of(complexity)
    if not queries:
        raise ReproError(f"no {complexity!r} queries in bundle {bundle.preset!r}")
    rows: List[SweepRow] = []
    for adapter in adapters:
        for k in ks:
            runs = run_method(adapter, queries, bundle.truth, k)
            scores = EffectivenessScores.average([r.scores for r in runs])
            rows.append(
                SweepRow(
                    method=adapter.name,
                    k=k,
                    precision=scores.precision,
                    recall=scores.recall,
                    f1=scores.f1,
                    mean_seconds=sum(r.seconds for r in runs) / len(runs),
                    queries=len(runs),
                )
            )
    return rows

"""Replay frozen scenario workloads and judge them against golden answers.

The bridge between a :class:`~repro.scenarios.suite.Workload` artifact
and the serving stack:

- :func:`build_resources` reconstructs the engine inputs the artifact
  pins — schema, synthetic KG (generator seed + scale), oracle predicate
  space (space seed), transformation library and a
  :class:`~repro.core.config.SearchConfig` carrying the frozen τ;
- :func:`scenario_items` turns the frozen queries into replayable
  :class:`~repro.serve.workload.WorkloadItem`\\ s — intent class as the
  latency bucket, deadline mix stamped by the artifact's own seed, so
  *which* queries run time-bounded is itself part of the artifact;
- :func:`replay_scenario` replays through a
  :class:`~repro.serve.service.QueryService` and collects the exact
  (SGQ) answer sets into a stable content digest — two replays of the
  same artifact on any backend must print the same digest;
- :func:`run_scenario_gate` is CI gate 5: golden-answer equivalence on
  the exact queries (quality regression) plus per-intent p95 latency
  within the artifact's declared budget (latency regression);
- :func:`run_tbq_contract_gate` is CI gate 10: the Section VI contract
  of the time-bounded mode on the same queries, under a deterministic
  :class:`~repro.utils.timing.BudgetClock`.

Deadline items stay out of the *replay* digest and the golden
comparison: on the wall clock a bounded result depends on how far the
search got (the paper's anytime semantics), so a replay gates only its
latency and ``approximate`` flag.  Under a ``BudgetClock`` TBQ is
deterministic, and a bound the search cannot exhaust is certified exact
(``approximate=False``) — that answer *is* digestable, and the contract
gate holds it to the scenario's own golden digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.core.config import SearchConfig
from repro.core.engine import SemanticGraphQueryEngine
from repro.embedding.oracle import oracle_predicate_space
from repro.embedding.predicate_space import PredicateSpace
from repro.errors import ScenarioError
from repro.kg.generator import GeneratorConfig, SyntheticKGBuilder
from repro.kg.graph import KnowledgeGraph
from repro.kg.schema import DomainSchema, preset_schema
from repro.query.transform import TransformationLibrary
from repro.scenarios.suite import Workload
from repro.serve.service import QueryService
from repro.serve.workload import (
    PopularitySpec,
    ReplayReport,
    WorkloadItem,
    apply_popularity,
    mix_deadlines,
    replay,
)
from repro.utils.stats import percentile
from repro.utils.timing import BudgetClock


@dataclass(frozen=True)
class ScenarioResources:
    """Engine inputs reconstructed from a workload artifact."""

    schema: DomainSchema
    kg: KnowledgeGraph
    space: PredicateSpace
    library: TransformationLibrary
    config: SearchConfig


def build_resources(workload: Workload) -> ScenarioResources:
    """Rebuild the exact engine inputs the artifact was frozen against."""
    schema = preset_schema(workload.domain)
    kg = SyntheticKGBuilder(
        schema,
        GeneratorConfig(seed=workload.generator_seed, scale=workload.scale),
    ).build()
    return ScenarioResources(
        schema=schema,
        kg=kg,
        space=oracle_predicate_space(schema, seed=workload.space_seed),
        library=TransformationLibrary.from_schema(schema),
        config=SearchConfig(tau=workload.tau),
    )


def scenario_items(workload: Workload) -> List[WorkloadItem]:
    """Replayable items: intent as latency class, seeded deadline mix.

    A frozen ``popularity`` law (Zipf repetition) is applied after the
    deadline mix — which queries run time-bounded is decided over the
    unique query set, then the popularity draw repeats them.
    """
    items = [
        WorkloadItem(
            query=q.query, k=workload.k, qid=q.qid, complexity=q.intent
        )
        for q in workload.queries
    ]
    mix = workload.deadline_mix
    if mix is not None and mix.fraction > 0:
        items = mix_deadlines(
            items, mix.fraction, mix.deadline, seed=workload.seed
        )
    popularity = workload.popularity
    if popularity is not None:
        items = apply_popularity(items, popularity, workload.seed)
    return items


def answer_digest(answers: Mapping[str, Sequence[str]]) -> str:
    """A stable content hash of per-query answer sets."""
    blob = json.dumps(
        {qid: sorted(names) for qid, names in answers.items()}, sort_keys=True
    )
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ScenarioReplayResult:
    """One replay pass over a scenario workload, with its exact answers."""

    workload_name: str
    backend: str
    report: ReplayReport
    #: exact (no-deadline) qid -> sorted answer entity names.
    answers: Dict[str, List[str]]
    intent_counts: Dict[str, int]
    #: supervision snapshot (``ResilienceStats.to_json()``) captured
    #: before the service closed; ``None`` on an unsupervised replay.
    resilience_stats: Optional[dict] = None

    @property
    def digest(self) -> str:
        return answer_digest(self.answers)


def replay_scenario(
    workload: Workload,
    *,
    backend: str = "inline",
    workers: int = 2,
    compact: bool = True,
    paced: bool = False,
    resources: Optional[ScenarioResources] = None,
    shared_graph: bool = False,
    fault_plan=None,
    retry_policy=None,
    answer_cache: int = 0,
    answer_cache_ttl: Optional[float] = None,
    popularity: Optional[PopularitySpec] = None,
    shards: int = 0,
    shard_strategy: str = "hash",
) -> ScenarioReplayResult:
    """One replay pass of the artifact through a fresh service.

    ``paced=True`` honours the artifact's frozen arrival spec; the
    default replays unpaced (results are identical either way — pacing
    only changes latency, which is what the paced mode exists to
    measure).  ``fault_plan``/``retry_policy`` run the pass under
    supervision (see :mod:`repro.serve.resilience`): the chaos gate uses
    them to prove an injected crash still yields the fault-free digest.
    ``answer_cache``/``answer_cache_ttl`` enable the front-side answer
    cache; ``popularity`` resamples the item sequence on top of anything
    the artifact froze (seeded by the workload) — the cache gate uses
    both to prove the Zipf-skewed digest is cache-invariant.
    ``shards``/``shard_strategy`` serve the pass off the
    entity-partitioned store (:mod:`repro.kg.sharded`; requires
    ``compact=True``) — the sharding gate uses them to prove the digest
    is partition-invariant.
    """
    if resources is None:
        resources = build_resources(workload)
    items = scenario_items(workload)
    if popularity is not None:
        items = apply_popularity(items, popularity, workload.seed)
    answers: Dict[str, List[str]] = {}
    kg = resources.kg

    def _collect(index, request, result) -> None:
        if request.deadline is None:
            answers[request.tag] = sorted(
                kg.entity(uid).name for uid in result.answer_uids()
            )

    rate = workload.arrival.rate if paced else None
    arrival = workload.arrival.process if rate is not None else "uniform"
    extra = {}
    if fault_plan is not None:
        extra["fault_plan"] = fault_plan
    if retry_policy is not None:
        extra["retry_policy"] = retry_policy
    if extra:
        extra["supervised"] = True
    if answer_cache:
        extra["answer_cache"] = answer_cache
        if answer_cache_ttl is not None:
            extra["answer_cache_ttl"] = answer_cache_ttl
    if shards:
        extra["shards"] = shards
        extra["shard_strategy"] = shard_strategy
    with QueryService.build(
        resources.kg,
        resources.space,
        resources.library,
        resources.config,
        backend=backend,
        workers=workers,
        compact=compact,
        shared_graph=shared_graph,
        **extra,
    ) as service:
        if backend == "process":
            service.warmup()
        report = replay(
            service,
            items,
            rate=rate,
            arrival=arrival,
            seed=workload.seed,
            on_result=_collect,
        )
        resilience = service.resilience()
    return ScenarioReplayResult(
        workload_name=workload.name,
        backend=backend,
        report=report,
        answers=answers,
        intent_counts=workload.intent_counts(),
        resilience_stats=(
            resilience.to_json() if resilience is not None else None
        ),
    )


# ----------------------------------------------------------------------
# golden answers + CI gate
# ----------------------------------------------------------------------

def load_golden(path: Union[str, Path]) -> Dict[str, List[str]]:
    """Read a recorded golden-answer file (``qid -> answer names``)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    answers = payload.get("answers")
    if not isinstance(answers, dict):
        raise ScenarioError(f"{path}: golden file has no 'answers' mapping")
    return {qid: list(names) for qid, names in answers.items()}


@dataclass
class ScenarioGateReport:
    """Everything CI gate 5 measured and judged."""

    workload: str
    backend: str
    num_queries: int
    exact_queries: int
    deadline_requests: int
    intent_counts: Dict[str, int]
    digest: str
    golden_digest: str
    equivalent: bool = True
    mismatches: List[str] = field(default_factory=list)
    budget_ok: bool = True
    budget_violations: List[str] = field(default_factory=list)
    #: intent -> {n, p50_ms, p95_ms, budget_p95_ms}
    latency_ms: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.equivalent and self.budget_ok

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "backend": self.backend,
            "num_queries": self.num_queries,
            "exact_queries": self.exact_queries,
            "deadline_requests": self.deadline_requests,
            "intent_counts": dict(self.intent_counts),
            "digest": self.digest,
            "golden_digest": self.golden_digest,
            "equivalent": self.equivalent,
            "mismatches": list(self.mismatches),
            "budget_ok": self.budget_ok,
            "budget_violations": list(self.budget_violations),
            "latency_ms": {
                intent: dict(row) for intent, row in self.latency_ms.items()
            },
            "passed": self.passed,
        }


def run_scenario_gate(
    workload: Workload,
    golden: Mapping[str, Sequence[str]],
    *,
    backend: str = "inline",
    workers: int = 2,
) -> ScenarioGateReport:
    """Replay the held-out suite and judge quality + latency regressions.

    Quality: the exact queries' answer sets must equal the recorded
    golden answers — order-insensitive (sets of entity names), so a
    score tie re-ordering cannot flake the gate, but any gained or lost
    answer fails it.  Latency: per-intent p95 must stay within the
    artifact's declared budget (generous by design; see
    ``DEFAULT_LATENCY_BUDGET_P95_MS``).
    """
    run = replay_scenario(workload, backend=backend, workers=workers)
    report = ScenarioGateReport(
        workload=workload.name,
        backend=backend,
        num_queries=len(workload.queries),
        exact_queries=len(run.answers),
        deadline_requests=run.report.deadline_requests,
        intent_counts=run.intent_counts,
        digest=run.digest,
        golden_digest=answer_digest(golden),
    )

    for qid in sorted(golden):
        if qid not in run.answers:
            report.mismatches.append(f"{qid}: golden query missing from replay")
            continue
        expected = sorted(golden[qid])
        actual = run.answers[qid]
        if expected != actual:
            gained = sorted(set(actual) - set(expected))
            lost = sorted(set(expected) - set(actual))
            report.mismatches.append(
                f"{qid}: answers differ (gained {gained or '[]'}, "
                f"lost {lost or '[]'})"
            )
    for qid in sorted(run.answers):
        if qid not in golden:
            report.mismatches.append(f"{qid}: exact query has no golden record")
    report.equivalent = not report.mismatches

    for intent, latencies in sorted(run.report.class_latencies.items()):
        p95_ms = percentile(latencies, 95) * 1000.0
        budget_ms = workload.latency_budget_p95_ms.get(intent)
        row = {
            "n": float(len(latencies)),
            "p50_ms": percentile(latencies, 50) * 1000.0,
            "p95_ms": p95_ms,
        }
        if budget_ms is not None:
            row["budget_p95_ms"] = budget_ms
            if p95_ms > budget_ms:
                report.budget_violations.append(
                    f"{intent}: p95 {p95_ms:.1f} ms exceeds the "
                    f"{budget_ms:.0f} ms budget"
                )
        report.latency_ms[intent] = row
    report.budget_ok = not report.budget_violations
    return report


@dataclass
class TbqContractReport:
    """What CI gate 10 measured: TBQ at the two ends of the time bound."""

    workload: str
    exact_queries: int
    certified: int
    starved_approximate: int
    digest: str
    golden_digest: str
    problems: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.problems

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "exact_queries": self.exact_queries,
            "certified": self.certified,
            "starved_approximate": self.starved_approximate,
            "digest": self.digest,
            "golden_digest": self.golden_digest,
            "problems": list(self.problems),
            "passed": self.passed,
        }


def run_tbq_contract_gate(
    workload: Workload, golden: Mapping[str, Sequence[str]]
) -> TbqContractReport:
    """Hold TBQ to Section VI on the scenario's exact queries.

    One tick of the ``BudgetClock`` is one A* expansion.  A bound no
    query can exhaust must certify every query (``approximate=False``)
    with exactly the golden answers — TBQ converged to SGQ (Theorem 4) —
    and a bound the first time check already exceeds must flag every
    answer ``approximate=True``: the flag means "the alert fired",
    nothing else.
    """
    resources = build_resources(workload)
    engine = SemanticGraphQueryEngine(
        resources.kg,
        resources.space,
        resources.library,
        resources.config,
        compact=True,
    )
    tick = 1e-3
    answers: Dict[str, List[str]] = {}
    certified = starved = 0
    problems: List[str] = []
    for item in workload.queries:
        if item.qid not in golden:
            continue  # the artifact froze this one as a deadline item
        generous = engine.search_time_bounded(
            item.query, workload.k, time_bound=1e6, clock=BudgetClock(tick)
        )
        certified += not generous.approximate
        if generous.approximate:
            problems.append(f"{item.qid}: a 1e6 s bound was not certified")
        answers[item.qid] = sorted(
            resources.kg.entity(uid).name for uid in generous.answer_uids()
        )
        starving = engine.search_time_bounded(
            item.query,
            workload.k,
            time_bound=tick,
            clock=BudgetClock(tick),
            check_interval=1,
        )
        starved += starving.approximate
        if not starving.approximate:
            problems.append(f"{item.qid}: a one-tick bound was not flagged")
    report = TbqContractReport(
        workload=workload.name,
        exact_queries=len(answers),
        certified=certified,
        starved_approximate=starved,
        digest=answer_digest(answers),
        golden_digest=answer_digest(golden),
        problems=problems,
    )
    if report.digest != report.golden_digest:
        report.problems.append(
            f"certified digest {report.digest} != golden {report.golden_digest}"
        )
    return report

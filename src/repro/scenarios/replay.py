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
- :func:`replay_pass` replays the artifact once through a
  :class:`~repro.serve.service.QueryService`, paced by its own arrival
  spec, and collects the exact (SGQ) answer sets into a stable content
  digest — two replays of the same artifact on any backend must print
  the same digest.  :func:`replay_scenario` builds, warms and closes a
  service around one pass; the ``repro-serve-workload`` CLI loops
  :func:`replay_pass` over one service;
- :func:`load_golden` reads the recorded answers every replay is judged
  against (``tests/test_conformance.py`` holds every backend, shard
  count, cache state and an injected crash to them).

Deadline items stay out of the *replay* digest and the golden
comparison: on the wall clock a bounded result depends on how far the
search got (the paper's anytime semantics).  Under a
:class:`~repro.utils.timing.BudgetClock` TBQ is deterministic, and a
bound the search cannot exhaust is certified exact
(``approximate=False``) — that answer *is* digestable, and the same
test module holds it to the scenario's own golden digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.core.config import SearchConfig
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

    report: ReplayReport
    #: exact (no-deadline) qid -> sorted answer entity names.
    answers: Dict[str, List[str]]

    @property
    def digest(self) -> str:
        return answer_digest(self.answers)


def replay_pass(
    service: QueryService,
    workload: Workload,
    resources: ScenarioResources,
    *,
    popularity: Optional[PopularitySpec] = None,
    breakdown: bool = False,
) -> ScenarioReplayResult:
    """One pass of the artifact through ``service``, paced by its arrival spec.

    ``popularity`` resamples the item sequence on top of anything the
    artifact froze (seeded by the workload); ``breakdown`` keeps each
    query's result in the report (see :func:`~repro.serve.workload.replay`).
    Exact answers are collected as entity names of ``resources.kg``.
    """
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

    report = replay(
        service,
        items,
        rate=workload.arrival.rate,
        arrival=workload.arrival.process,
        seed=workload.seed,
        breakdown=breakdown,
        on_result=_collect,
    )
    return ScenarioReplayResult(report, answers)


def replay_scenario(
    workload: Workload,
    *,
    resources: Optional[ScenarioResources] = None,
    popularity: Optional[PopularitySpec] = None,
    **service_kwargs,
) -> ScenarioReplayResult:
    """One :func:`replay_pass` of the artifact through a fresh, warmed service.

    ``service_kwargs`` go straight to :meth:`QueryService.build
    <repro.serve.service.QueryService.build>`: a ``fault_plan`` /
    ``retry_policy`` runs the pass under supervision (an injected crash
    must still yield the fault-free digest), ``answer_cache`` with a
    Zipf ``popularity`` shows the skewed answers are cache-invariant,
    and ``shards`` shows the digest is partition-invariant.
    """
    if resources is None:
        resources = build_resources(workload)
    with QueryService.build(
        resources.kg,
        resources.space,
        resources.library,
        resources.config,
        **service_kwargs,
    ) as service:
        service.warmup()
        return replay_pass(service, workload, resources, popularity=popularity)


# ----------------------------------------------------------------------
# golden answers
# ----------------------------------------------------------------------

def load_golden(path: Union[str, Path]) -> Dict[str, List[str]]:
    """Read a recorded golden-answer file (``qid -> answer names``)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    answers = payload.get("answers")
    if not isinstance(answers, dict):
        raise ScenarioError(f"{path}: golden file has no 'answers' mapping")
    return {qid: list(names) for qid, names in answers.items()}

"""Scenario synthesis: schema × intent workload generation.

Composes the existing primitives — domain schemas
(:mod:`repro.kg.schema`), the query builder (:mod:`repro.query.builder`),
the predicate semantic space and the noise/transformation machinery —
into a reproducible workload pipeline::

    schema → intent generators → augmentation → split → Workload artifact → replay

Everything is seed-deterministic down to the byte: the same recipe with
the same seed pickles to the same artifact, and a replayed artifact
produces the same exact-answer digest on every execution backend.
"""

from repro.scenarios.augment import (
    AugmentationBudget,
    augment_queries,
    paraphrase_predicate,
)
from repro.scenarios.intents import INTENT_NAMES, generate_intent_queries
from repro.scenarios.replay import (
    ScenarioReplayResult,
    answer_digest,
    build_resources,
    load_golden,
    replay_pass,
    replay_scenario,
    scenario_items,
)
from repro.scenarios.suite import (
    WORKLOAD_FORMAT_VERSION,
    ArrivalSpec,
    DeadlineMix,
    ScenarioQuery,
    ScenarioSuite,
    Workload,
    WorkloadBuilder,
    default_suite,
    split_workload,
)
from repro.scenarios.vocab import DomainVocabulary, predicate_affinity

__all__ = [
    "AugmentationBudget",
    "ArrivalSpec",
    "DeadlineMix",
    "DomainVocabulary",
    "INTENT_NAMES",
    "ScenarioQuery",
    "ScenarioReplayResult",
    "ScenarioSuite",
    "WORKLOAD_FORMAT_VERSION",
    "Workload",
    "WorkloadBuilder",
    "answer_digest",
    "augment_queries",
    "build_resources",
    "default_suite",
    "generate_intent_queries",
    "load_golden",
    "paraphrase_predicate",
    "predicate_affinity",
    "replay_pass",
    "replay_scenario",
    "scenario_items",
    "split_workload",
]

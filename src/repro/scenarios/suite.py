"""Workload-as-artifact: freeze a scenario set into a versioned file.

A :class:`Workload` is the frozen output of the scenario pipeline —
domain, intent mix, augmentation provenance, arrival spec, k, τ and the
deadline mix, plus every generated query — picklable as one artifact and
reconstructible from a pure-JSON manifest.  The replay driver
(``repro-serve-workload --scenario``) and the held-out conformance tests consume
these artifacts, never live generator state, so a benched workload can
be checked in, diffed and replayed byte-identically years later.

``WORKLOAD_FORMAT_VERSION`` guards the contract: loading an artifact
written by a different format version raises
:class:`~repro.errors.ScenarioError` instead of silently replaying a
workload whose semantics drifted.

:func:`split_workload` derives train/eval/held-out sub-workloads by a
seeded, *intent-stratified* shuffle (every intent class keeps its share
in every split); :func:`default_suite` is the one canonical recipe the
checked-in held-out suite is produced from (``scripts/build_scenarios.py``).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.embedding.oracle import oracle_predicate_space
from repro.errors import ScenarioError
from repro.kg.schema import PRESET_SCHEMAS, preset_schema
from repro.query.model import QueryEdge, QueryGraph, QueryNode
from repro.query.transform import TransformationLibrary
from repro.scenarios.augment import AugmentationBudget, augment_queries
from repro.scenarios.intents import INTENT_NAMES, generate_intent_queries
from repro.scenarios.vocab import DomainVocabulary
from repro.serve.workload import PopularitySpec
from repro.utils.rng import derive_rng
from repro.utils.stats import finite_positive

#: Bump on any incompatible change to the artifact layout.
WORKLOAD_FORMAT_VERSION = 1

#: Default per-intent p95 latency budget (milliseconds), asserted by
#: ``tests/test_conformance.py``.  Generous on purpose: scenario
#: queries run in single-digit milliseconds at the checked-in scale, so
#: the budget catches order-of-magnitude regressions without flaking on
#: shared-runner noise.
DEFAULT_LATENCY_BUDGET_P95_MS = 2000.0


@dataclass(frozen=True)
class ArrivalSpec:
    """Frozen arrival process for open-loop replay."""

    process: str = "uniform"
    rate: Optional[float] = None


@dataclass(frozen=True)
class DeadlineMix:
    """Frozen TBQ share: ``fraction`` of items get ``deadline`` seconds."""

    fraction: float
    deadline: float


@dataclass(frozen=True)
class ScenarioQuery:
    """One frozen query with its provenance."""

    qid: str
    intent: str
    query: QueryGraph
    augmentations: Tuple[str, ...] = ()


def query_to_json(query: QueryGraph) -> dict:
    """A pure-JSON rendering of a query graph (manifest format)."""
    return {
        "nodes": [
            {"label": n.label, "etype": n.etype, "name": n.name}
            for n in query.nodes()
        ],
        "edges": [
            {
                "label": e.label,
                "source": e.source,
                "predicate": e.predicate,
                "target": e.target,
            }
            for e in query.edges()
        ],
    }


def query_from_json(payload: Mapping) -> QueryGraph:
    """Rebuild a query graph from its manifest rendering."""
    return QueryGraph(
        [QueryNode(**node) for node in payload["nodes"]],
        [QueryEdge(**edge) for edge in payload["edges"]],
    )


@dataclass(frozen=True)
class Workload:
    """A frozen, versioned, replayable scenario workload.

    ``popularity`` (optional, default ``None`` = uniform) freezes a
    query repetition law into the artifact — replays resample the query
    sequence under it (see
    :func:`repro.serve.workload.apply_popularity`).  Artifacts written
    before the field existed unpickle with the class default, so the
    format version is unchanged.
    """

    name: str
    domain: str
    scale: float
    generator_seed: int
    space_seed: int
    seed: int
    k: int
    tau: float
    arrival: ArrivalSpec
    deadline_mix: Optional[DeadlineMix]
    queries: Tuple[ScenarioQuery, ...]
    latency_budget_p95_ms: Dict[str, float] = field(default_factory=dict)
    popularity: Optional[PopularitySpec] = None
    version: int = WORKLOAD_FORMAT_VERSION

    def intent_counts(self) -> Dict[str, int]:
        """Query count per intent class, in canonical intent order."""
        counts: Dict[str, int] = {}
        for intent in INTENT_NAMES:
            n = sum(1 for q in self.queries if q.intent == intent)
            if n:
                counts[intent] = n
        for q in self.queries:  # non-canonical intents, if any ever appear
            counts.setdefault(q.intent, sum(1 for o in self.queries if o.intent == q.intent))
        return counts

    # ------------------------------------------------------------------
    # manifest (pure JSON) round-trip
    # ------------------------------------------------------------------
    def manifest(self) -> dict:
        """A pure-JSON description that fully reconstructs the workload."""
        return {
            "format_version": self.version,
            "name": self.name,
            "domain": self.domain,
            "scale": self.scale,
            "generator_seed": self.generator_seed,
            "space_seed": self.space_seed,
            "seed": self.seed,
            "k": self.k,
            "tau": self.tau,
            "arrival": {"process": self.arrival.process, "rate": self.arrival.rate},
            "deadline_mix": (
                {
                    "fraction": self.deadline_mix.fraction,
                    "deadline": self.deadline_mix.deadline,
                }
                if self.deadline_mix is not None
                else None
            ),
            "latency_budget_p95_ms": dict(sorted(self.latency_budget_p95_ms.items())),
            "popularity": (
                self.popularity.manifest() if self.popularity is not None else None
            ),
            "intent_counts": self.intent_counts(),
            "queries": [
                {
                    "qid": q.qid,
                    "intent": q.intent,
                    "augmentations": list(q.augmentations),
                    "graph": query_to_json(q.query),
                }
                for q in self.queries
            ],
        }

    @classmethod
    def from_manifest(cls, payload: Mapping) -> "Workload":
        version = payload.get("format_version")
        if version != WORKLOAD_FORMAT_VERSION:
            raise ScenarioError(
                f"workload manifest format version {version!r} is not the "
                f"supported version {WORKLOAD_FORMAT_VERSION}"
            )
        deadline_mix = payload.get("deadline_mix")
        popularity = payload.get("popularity")
        return cls(
            name=payload["name"],
            domain=payload["domain"],
            scale=payload["scale"],
            generator_seed=payload["generator_seed"],
            space_seed=payload["space_seed"],
            seed=payload["seed"],
            k=payload["k"],
            tau=payload["tau"],
            arrival=ArrivalSpec(**payload["arrival"]),
            deadline_mix=(
                DeadlineMix(**deadline_mix) if deadline_mix is not None else None
            ),
            queries=tuple(
                ScenarioQuery(
                    qid=q["qid"],
                    intent=q["intent"],
                    query=query_from_json(q["graph"]),
                    augmentations=tuple(q["augmentations"]),
                )
                for q in payload["queries"]
            ),
            latency_budget_p95_ms=dict(payload.get("latency_budget_p95_ms", {})),
            popularity=(
                PopularitySpec.from_manifest(popularity)
                if popularity is not None
                else None
            ),
            version=version,
        )

    # ------------------------------------------------------------------
    # pickle artifact round-trip
    # ------------------------------------------------------------------
    def to_pickle(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(self, protocol=4))
        return path

    @classmethod
    def from_pickle(cls, path: Union[str, Path]) -> "Workload":
        payload = pickle.loads(Path(path).read_bytes())
        if not isinstance(payload, cls):
            raise ScenarioError(
                f"{path}: not a scenario Workload artifact "
                f"(got {type(payload).__name__})"
            )
        if payload.version != WORKLOAD_FORMAT_VERSION:
            raise ScenarioError(
                f"{path}: workload format version {payload.version} is not "
                f"the supported version {WORKLOAD_FORMAT_VERSION}; "
                "regenerate with scripts/build_scenarios.py"
            )
        return payload


class WorkloadBuilder:
    """Fluent recipe for a :class:`Workload` (brad's builder pattern).

    Every knob has a validated default; :meth:`build` runs the full
    pipeline — schema vocabulary → intent generators → budgeted
    augmentation — and freezes the result.  Identical recipes with
    identical seeds produce byte-identical artifacts.
    """

    def __init__(self, name: str, *, seed: int) -> None:
        if not name:
            raise ScenarioError("workload needs a non-empty name")
        self._name = name
        self._seed = int(seed)
        self._domain = "dbpedia"
        self._scale = 1.0
        self._generator_seed = 11
        self._space_seed = 3
        self._k = 10
        self._tau = 0.8
        self._mix: Dict[str, int] = {}
        self._arrival = ArrivalSpec()
        self._deadline_mix: Optional[DeadlineMix] = None
        self._budget: Optional[AugmentationBudget] = None
        self._popularity: Optional[PopularitySpec] = None
        self._latency_budgets: Dict[str, float] = {}
        self._default_latency_budget_ms = DEFAULT_LATENCY_BUDGET_P95_MS

    # -- configuration -------------------------------------------------
    def domain(
        self,
        preset: str,
        *,
        scale: float = 1.0,
        generator_seed: int = 11,
        space_seed: int = 3,
    ) -> "WorkloadBuilder":
        if preset not in PRESET_SCHEMAS:
            raise ScenarioError(
                f"unknown domain {preset!r}; available: {sorted(PRESET_SCHEMAS)}"
            )
        if not finite_positive(scale):
            raise ScenarioError(f"scale must be positive, got {scale}")
        self._domain = preset
        self._scale = float(scale)
        self._generator_seed = int(generator_seed)
        self._space_seed = int(space_seed)
        return self

    def intents(self, **counts: int) -> "WorkloadBuilder":
        """Set the intent mix; underscores map to dashes (``tau_stress``)."""
        for raw, count in counts.items():
            intent = raw.replace("_", "-")
            if intent not in INTENT_NAMES:
                raise ScenarioError(
                    f"unknown intent {intent!r}; available: {list(INTENT_NAMES)}"
                )
            if count < 1:
                raise ScenarioError(
                    f"intent {intent!r}: count must be >= 1, got {count}"
                )
            self._mix[intent] = int(count)
        return self

    def top_k(self, k: int) -> "WorkloadBuilder":
        if k < 1:
            raise ScenarioError(f"k must be at least 1, got {k}")
        self._k = int(k)
        return self

    def tau(self, value: float) -> "WorkloadBuilder":
        if not 0.0 <= value <= 1.0:
            raise ScenarioError(f"tau must be in [0, 1], got {value}")
        self._tau = float(value)
        return self

    def arrivals(
        self, process: str, *, rate: Optional[float] = None
    ) -> "WorkloadBuilder":
        if process not in ("uniform", "poisson"):
            raise ScenarioError(f"unknown arrival process {process!r}")
        if rate is not None and not finite_positive(rate):
            raise ScenarioError(f"arrival rate must be positive, got {rate}")
        if process == "poisson" and rate is None:
            raise ScenarioError("poisson arrivals require a rate")
        self._arrival = ArrivalSpec(process=process, rate=rate)
        return self

    def deadlines(self, fraction: float, deadline: float) -> "WorkloadBuilder":
        if not 0.0 <= fraction <= 1.0:
            raise ScenarioError(f"deadline fraction must be in [0, 1], got {fraction}")
        if not finite_positive(deadline):
            raise ScenarioError(f"deadline must be positive, got {deadline}")
        self._deadline_mix = DeadlineMix(fraction=fraction, deadline=deadline)
        return self

    def augment(
        self,
        *,
        paraphrase_fraction: float = 0.0,
        node_noise_fraction: float = 0.0,
        top_n: int = 5,
        min_similarity: float = 0.0,
    ) -> "WorkloadBuilder":
        self._budget = AugmentationBudget(
            paraphrase_fraction=paraphrase_fraction,
            node_noise_fraction=node_noise_fraction,
            top_n=top_n,
            min_similarity=min_similarity,
        )
        return self

    def popularity(
        self,
        kind: str = "zipf",
        *,
        s: float = 1.1,
        length: Optional[int] = None,
    ) -> "WorkloadBuilder":
        """Freeze a query repetition law (seeded Zipf) into the artifact.

        Replays then resample the query sequence under it, so the
        workload contains genuine hot keys — the traffic shape answer
        caching is evaluated against.  ``kind="uniform"`` restores the
        default (each query once).
        """
        try:
            spec = PopularitySpec(kind=kind, s=s, length=length)
        except Exception as exc:
            raise ScenarioError(str(exc)) from None
        self._popularity = None if spec.kind == "uniform" else spec
        return self

    def latency_budget(
        self, default_p95_ms: Optional[float] = None, **per_intent: float
    ) -> "WorkloadBuilder":
        if default_p95_ms is not None:
            if not finite_positive(default_p95_ms):
                raise ScenarioError("latency budget must be positive")
            self._default_latency_budget_ms = float(default_p95_ms)
        for raw, value in per_intent.items():
            intent = raw.replace("_", "-")
            if intent not in INTENT_NAMES:
                raise ScenarioError(f"unknown intent {intent!r}")
            if not finite_positive(value):
                raise ScenarioError("latency budget must be positive")
            self._latency_budgets[intent] = float(value)
        return self

    # -- pipeline ------------------------------------------------------
    def build(self) -> Workload:
        if not self._mix:
            raise ScenarioError(
                f"workload {self._name!r}: intent mix is empty; call .intents()"
            )
        schema = preset_schema(self._domain)
        vocab = DomainVocabulary.from_schema(self._domain, schema)

        generated: List[Tuple[str, QueryGraph]] = []
        for intent in sorted(self._mix):
            for query in generate_intent_queries(
                vocab, intent, self._mix[intent], seed=self._seed, tau=self._tau
            ):
                generated.append((intent, query))

        if self._budget is not None:
            space = (
                oracle_predicate_space(schema, seed=self._space_seed)
                if self._budget.paraphrase_fraction > 0
                else None
            )
            library = (
                TransformationLibrary.from_schema(schema)
                if self._budget.node_noise_fraction > 0
                else None
            )
            augmented = augment_queries(
                [query for _intent, query in generated],
                budget=self._budget,
                space=space,
                library=library,
                seed=self._seed,
            )
        else:
            augmented = [(query, ()) for _intent, query in generated]

        queries: List[ScenarioQuery] = []
        per_intent_index: Dict[str, int] = {}
        for (intent, _original), (query, tags) in zip(generated, augmented):
            index = per_intent_index.get(intent, 0)
            per_intent_index[intent] = index + 1
            queries.append(
                ScenarioQuery(
                    qid=f"{self._domain}:{intent}:{index:03d}",
                    intent=intent,
                    query=query,
                    augmentations=tags,
                )
            )

        budgets = {
            intent: self._latency_budgets.get(intent, self._default_latency_budget_ms)
            for intent in sorted(self._mix)
        }
        return Workload(
            name=self._name,
            domain=self._domain,
            scale=self._scale,
            generator_seed=self._generator_seed,
            space_seed=self._space_seed,
            seed=self._seed,
            k=self._k,
            tau=self._tau,
            arrival=self._arrival,
            deadline_mix=self._deadline_mix,
            queries=tuple(queries),
            latency_budget_p95_ms=budgets,
            popularity=self._popularity,
        )


# ----------------------------------------------------------------------
# deterministic splits + suite
# ----------------------------------------------------------------------

def split_workload(
    workload: Workload,
    fractions: Mapping[str, float],
    *,
    seed: Optional[int] = None,
) -> Dict[str, Workload]:
    """Partition a workload into named splits, stratified by intent.

    Each intent class is shuffled with its own derived rng and divided
    according to ``fractions`` (which must sum to 1), so every split
    keeps the intent mix — a held-out split with zero τ-stress queries
    would gate nothing.  Query order inside a split follows the parent
    workload, and the same ``(workload, fractions, seed)`` always yields
    the same partition.
    """
    if not fractions:
        raise ScenarioError("split needs at least one named fraction")
    for name, value in fractions.items():
        if value <= 0:
            raise ScenarioError(f"split {name!r}: fraction must be positive")
    total = sum(fractions.values())
    if abs(total - 1.0) > 1e-9:
        raise ScenarioError(f"split fractions must sum to 1, got {total}")
    seed = workload.seed if seed is None else seed

    split_names = list(fractions)
    assignment: Dict[int, str] = {}
    for intent in workload.intent_counts():
        indexes = [
            i for i, q in enumerate(workload.queries) if q.intent == intent
        ]
        rng = derive_rng(seed, f"scenario-split:{workload.name}:{intent}")
        shuffled = [indexes[int(i)] for i in rng.permutation(len(indexes))]
        # Cumulative rounding: split sizes differ from exact shares by < 1.
        start, cumulative = 0, 0.0
        for name in split_names:
            cumulative += fractions[name]
            end = round(cumulative * len(indexes))
            for position in shuffled[start:end]:
                assignment[position] = name
            start = end

    out: Dict[str, Workload] = {}
    for name in split_names:
        members = tuple(
            q
            for i, q in enumerate(workload.queries)
            if assignment.get(i) == name
        )
        out[name] = replace(
            workload, name=f"{workload.name}/{name}", queries=members
        )
    return out


@dataclass(frozen=True)
class ScenarioSuite:
    """A named collection of split workloads (train / eval / held_out)."""

    name: str
    workloads: Dict[str, Workload]

    def workload(self, split: str) -> Workload:
        try:
            return self.workloads[split]
        except KeyError:
            raise ScenarioError(
                f"suite {self.name!r} has no split {split!r}; "
                f"available: {sorted(self.workloads)}"
            ) from None


def default_suite(
    domain: str = "dbpedia",
    *,
    seed: int = 20260806,
    scale: float = 1.0,
    generator_seed: int = 11,
) -> ScenarioSuite:
    """The canonical scenario suite recipe (checked-in artifacts use it).

    50 queries (10 per intent) over one domain, paraphrase + node-noise
    augmentation on a quarter of the set each, Poisson arrivals and a
    20% TBQ slice, split 60/20/20 into train/eval/held_out with intent
    stratification (2 held-out queries per intent class).
    """
    full = (
        WorkloadBuilder(f"{domain}-scenarios-v1", seed=seed)
        .domain(domain, scale=scale, generator_seed=generator_seed)
        .intents(star=10, chain=10, noisy_predicate=10, entity_heavy=10, tau_stress=10)
        .top_k(5)
        .tau(0.8)
        .arrivals("poisson", rate=120.0)
        .deadlines(0.2, 0.75)
        .augment(paraphrase_fraction=0.25, node_noise_fraction=0.25, min_similarity=0.8)
        .build()
    )
    splits = split_workload(
        full, {"train": 0.6, "eval": 0.2, "held_out": 0.2}
    )
    return ScenarioSuite(f"{domain}-v1", splits)
